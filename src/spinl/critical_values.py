"""The exact-value engine.

Builds, from first principles, the constant terms of the two relevant
Eisenstein expansions, the holomorphic-projection Fourier coefficients
A_1(s), A_2(s), and the assembled critical values of

* L(s-9, Delta) L(s-10, Delta)          (coefficient of <Delta,Delta>),
* L(s, Delta x g20)                      (coefficient of <g20,g20>),
* their product, the spinor critical value  (coefficient of both norms),

each as an exact rational times a single power of pi, for s = 12..19.
Every pi-exponent is fixed by s, so the pass is rational: A_1, A_2, D0'
and D0'' are Fractions, the Whittaker moment sums run on ints, and only
c_constants, d_constants and projection_coeffs wrap their results in
PiValue, at return.  Every value returned reads as (rational,
pi_exponent): a PiValue is that pair, and a CriticalValueResult carries
the same two fields next to s and its Petersson factors.  No table is
ever an input here; printed tables are regression fixtures in the test
suite only.  The per-s results are immutable and LRU-cached; an s that
is not of an integral type in range (one operator.index accepts, such as
int or a numpy integer) raises ValueError on every call, before any
work.
"""

from __future__ import annotations

import enum
import functools
import operator
from fractions import Fraction
from math import comb, factorial, perm
from typing import NamedTuple, Tuple

from .exact_arith import (
    PiValue,
    _zeta_rational,
    gamma_pole_ratio,
    zeta_pole_over_gamma,
)

__all__ = [
    "PeterssonFactors",
    "ProjectionCoeffs",
    "CriticalValueResult",
    "c_constants",
    "projection_coeffs",
    "two_delta_product",
    "d_constants",
    "rankin_g20_value",
    "main_identity",
]


class PeterssonFactors(enum.Enum):
    """Which Petersson norms a critical-value coefficient multiplies."""

    DELTA_DELTA = "delta_delta"
    G20_G20 = "g20_g20"
    BOTH = "both"


class ProjectionCoeffs(NamedTuple):
    """First two Fourier coefficients of the holomorphic projection, each a
    single monomial with pi-exponent 2s-12, defined for s in 3..10."""

    s: int
    a1: PiValue
    a2: PiValue


class CriticalValueResult(NamedTuple):
    s: int
    rational: Fraction
    pi_exponent: int
    petersson_factors: PeterssonFactors


# typed: an s of another type never meets the entry of an int s
_cached = functools.lru_cache(maxsize=32, typed=True)


def _check_s_range(s: int, lo: int, hi: int) -> int:
    """s as an int if it is of an integral type (operator.index) in lo..hi."""
    try:
        n = operator.index(s)
        if lo <= n <= hi:
            return n
    except TypeError:
        pass
    raise ValueError(f"s must be an int in {lo}..{hi}, got {s!r}")


def _eisenstein_limit(a: int, b: int) -> Fraction:
    """lim_{eps->0} Gamma(a + 2 eps) zeta(a + 2 eps) / Gamma(b + eps) for odd
    a and b <= 0, the limit along s in C0' and D0': pole over pole for
    a < 0, zeta's pole against the 1/Gamma zero at a = 1, and 0 for a >= 3."""
    if a < 0:
        return _zeta_rational(a) * gamma_pole_ratio(a, b, 2)
    if a == 1:
        return zeta_pole_over_gamma(b, 2)
    return Fraction(0)


def _c_rationals(s: int) -> Tuple[Fraction, ...]:
    """(C0', C0'', C1, C2) / pi^(2s-12), for s in 3..10."""
    c0p = -2 * _eisenstein_limit(2 * s - 13, s - 11) / factorial(s - 2)
    c0pp = (2 - Fraction(2) ** (13 - 2 * s)) * _zeta_rational(2 * s - 12)
    return c0p, c0pp, Fraction(2), 2 - Fraction(2) ** (2 * s - 12)


def c_constants(s: int) -> Tuple[PiValue, PiValue, PiValue, PiValue]:
    """Constant-term data (C0', C0'', C1, C2) of the weight-10 level-2
    Eisenstein expansion entering the <Delta,Delta> side, for s in 3..10,
    each a single monomial with pi-exponent 2s-12, or zero.

    C0' = -2 pi^(2s-12) Gamma(2s-13) zeta(2s-13) / (Gamma(s-11) Gamma(s-1)),
    evaluated as a limit along s (_eisenstein_limit): nonzero for s in 3..7,
    0 for s in 8..10.
    """
    s = _check_s_range(s, 3, 10)
    return tuple(PiValue.monomial(q, 2 * s - 12) for q in _c_rationals(s))


def _whittaker_moment_sum(s: int, two_power: bool) -> int:
    """sum_{i=0..r} (2^i) (-1)^i C(r, i) Gamma(11-i)/Gamma(s-1-i), r = 11-s,
    the 2^i only when two_power is set, on ints: the Gamma ratio is the
    falling product perm(10-i, 12-s), 0 exactly where Gamma(s-1-i) has a
    pole."""
    r = 11 - s
    two = 2 if two_power else 1
    return sum((-two) ** i * comb(r, i) * perm(10 - i, 12 - s) for i in range(r + 1))


@_cached
def _projection(s: int) -> Tuple[Fraction, Fraction]:
    """(A_1(s), A_2(s)) / pi^(2s-12), for s in 3..10."""
    c0p, c0pp, c1, c2 = _c_rationals(s)
    s1 = _whittaker_moment_sum(s, two_power=False)
    s2 = _whittaker_moment_sum(s, two_power=True)
    g, h = factorial(12 - s) * c0p, factorial(s - 1) * c0pp
    a1 = g + h + Fraction(s1, 24) * c1
    a2 = g * 2 ** (s - 2) + (h + Fraction(s1, 24) * c2) * 2 ** (11 - s) + s2 * c1
    return a1 / factorial(10), a2 / factorial(10)


# its own cache, so a repeated call returns the same object; two_delta_product
# reads _projection's rationals and builds no PiValue
@_cached
def projection_coeffs(s: int) -> ProjectionCoeffs:
    """Fourier coefficients A_1(s), A_2(s) of the holomorphic projection of
    G_{2,2}(z) (4 pi y)^(s-11) E_{10,2}(z, s-11), for s in 3..10."""
    s = _check_s_range(s, 3, 10)
    a1, a2 = _projection(s)
    return ProjectionCoeffs(s, PiValue.monomial(a1, 2 * s - 12), PiValue.monomial(a2, 2 * s - 12))


@_cached
def two_delta_product(s: int) -> CriticalValueResult:
    """Coefficient of <Delta,Delta> in L(s-9, Delta) L(s-10, Delta), a single
    monomial with pi-exponent 2s-19, for s in 12..19.

    Assembled as 3*2^13 pi^11 (232 A_1(s-9) - A_2(s-9)) over
    (1 + 3*2^(13-s) + 2^(31-2s)) Gamma(s-9); the 232/256 combination carries
    the trace evaluation <Delta(z), Delta(2z)> = -(1/256) <Delta, Delta>.
    """
    s = _check_s_range(s, 12, 19)
    a1, a2 = _projection(s - 9)
    # the /256 trace factor is absorbed: (3/2) 4^11 / 256 = 3*2^13
    den = (1 + 3 * Fraction(2) ** (13 - s) + Fraction(2) ** (31 - 2 * s)) * factorial(s - 10)
    return CriticalValueResult(
        s, 3 * 2**13 * (232 * a1 - a2) / den, 2 * s - 19, PeterssonFactors.DELTA_DELTA
    )


def _d_rationals(s: int) -> Tuple[Fraction, Fraction]:
    """(D0', D0'') / pi^(2s-30), for s in 12..19."""
    lim = _eisenstein_limit(2 * s - 31, s - 19)
    return 2 * Fraction(2) ** (2 * s - 30) * lim / factorial(s - 12), 2 * _zeta_rational(2 * s - 30)


def d_constants(s: int) -> Tuple[PiValue, PiValue]:
    """Constant-term data (D0', D0'') of the weight-8 level-1 Eisenstein
    expansion entering the <g20,g20> side, for s in 12..19, each a single
    monomial with pi-exponent 2s-30, or zero.

    D0' = 2 (2 pi)^(2s-30) Gamma(2s-31) zeta(2s-31) / (Gamma(s-11) Gamma(s-19)),
    again as a limit along s (_eisenstein_limit): nonzero for s in 12..16,
    0 for s in 17..19.  D0'' = 2 zeta(2s-30).
    """
    s = _check_s_range(s, 12, 19)
    return tuple(PiValue.monomial(q, 2 * s - 30) for q in _d_rationals(s))


@_cached
def rankin_g20_value(s: int) -> CriticalValueResult:
    """Coefficient of <g20,g20> in the degree-4 value L(s, Delta x g20), a
    single monomial with pi-exponent 2s-11, for s in 12..19:

        (4 pi)^19 / (2 * 18!) * (D0'' + Gamma(31-s)/Gamma(s) * D0').
    """
    s = _check_s_range(s, 12, 19)
    d0p, d0pp = _d_rationals(s)
    combo = d0pp + Fraction(factorial(30 - s), factorial(s - 1)) * d0p
    return CriticalValueResult(
        s, Fraction(4**19, 2 * factorial(18)) * combo, 2 * s - 11, PeterssonFactors.G20_G20
    )


@_cached
def main_identity(s: int) -> CriticalValueResult:
    """Coefficient of <Delta,Delta><g20,g20> in the spinor critical value at
    s in 12..19: the product of the two factor results (rationals multiply,
    pi-exponents add; the total exponent is 4s-30)."""
    s = _check_s_range(s, 12, 19)
    left, right = two_delta_product(s), rankin_g20_value(s)
    return CriticalValueResult(
        s,
        left.rational * right.rational,
        left.pi_exponent + right.pi_exponent,
        PeterssonFactors.BOTH,
    )
