"""The exact engine as it was assembled before its rational pass: every
constant term, projection coefficient and critical value built as a
PiSum and read back with as_monomial.  The tests compare the
rational pass with it exactly, rational, pi-exponent and norm factors
alike.  PiSum is the sum of pi powers, with the algebra, that this
assembly needs; the library's PiValue is one monomial and carries none.
Two helpers only tests read live here too: whittaker_closed_form, the
Whittaker polynomial the projection assembly sums, and
pi_value_numeric, an exact value rendered to D digits."""

from fractions import Fraction
from math import comb, factorial

from spinl.critical_values import CriticalValueResult, PeterssonFactors
from spinl.exact_arith import (
    PiValue,
    _as_int,
    falling_ratio,
    gamma_pole_ratio,
    zeta_exact as _zeta_exact,
    zeta_pole_over_gamma,
)
from spinl.numeric_lfun.bigfloat import GUARD, _check_dps, context, render_exact, round_to


def whittaker_closed_form(alpha, r):
    """Coefficients (ascending in y) of the degenerate Whittaker polynomial

        W(y, alpha, -r) = sum_{i=0..r} (-1)^i C(r,i) [Gamma(alpha)/Gamma(alpha-i)] y^(r-i),

    with the Gamma ratio continued through integer arguments as a falling
    product.  Entry [j] is the coefficient of y^j; an alpha or r not of an
    integral type, or r < 0, raises ValueError.
    """
    alpha, r = _as_int(alpha, "alpha"), _as_int(r, "r")
    if r < 0:
        raise ValueError("need r >= 0")
    coeffs = [Fraction(0)] * (r + 1)
    for i in range(r + 1):
        coeffs[r - i] = Fraction((-1) ** i * comb(r, i)) * falling_ratio(alpha, i)
    return coeffs


def pi_value_numeric(pv, dps):
    """Evaluate an exact value to dps digits: the sum of q pi^e over the
    (q, e) in pv.monomials, each rendered by render_exact at dps + GUARD."""
    _check_dps(dps)
    ctx = context(dps + GUARD)
    return round_to(dps, sum(render_exact(ctx, q, e) for q, e in pv.monomials))


class PiSum:
    """A finite sum of monomials q * pi^e, with sums, negation, products and
    division by rationals: the algebra the library's PiValue, one
    monomial, does without.

    Monomials are kept sorted by strictly increasing exponent and zero
    coefficients are dropped; the empty sum is exact zero.  A PiSum equals
    a PiSum or a PiValue with the same monomials.
    """

    __slots__ = ("monomials",)

    def __init__(self, monomials=()):
        acc = {}
        for coeff, expo in monomials:
            e = int(expo)
            acc[e] = acc.get(e, Fraction(0)) + Fraction(coeff)
        self.monomials = tuple((acc[e], e) for e in sorted(acc) if acc[e] != 0)

    @classmethod
    def monomial(cls, coeff, exponent):
        return cls([(Fraction(coeff), exponent)])

    def as_monomial(self):
        """(coefficient, pi exponent); zero is (0, 0), and a sum of two or
        more pi powers raises ValueError."""
        if not self.monomials:
            return Fraction(0), 0
        if len(self.monomials) != 1:
            raise ValueError(f"not a single pi-monomial: {self.monomials!r}")
        return self.monomials[0]

    def __eq__(self, other):
        if isinstance(other, (PiSum, PiValue)):
            return self.monomials == other.monomials
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (PiSum, PiValue)):
            return PiSum(self.monomials + other.monomials)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, (PiSum, PiValue)):
            return self + -PiSum(other.monomials)
        return NotImplemented

    def __neg__(self):
        return PiSum((-c, e) for c, e in self.monomials)

    def __mul__(self, other):
        if isinstance(other, (PiSum, PiValue)):
            return PiSum(
                (c1 * c2, e1 + e2) for c1, e1 in self.monomials for c2, e2 in other.monomials
            )
        if isinstance(other, (int, Fraction)):
            return PiSum((c * other, e) for c, e in self.monomials)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return PiSum((c / other, e) for c, e in self.monomials)
        return NotImplemented


def zeta_exact(n):
    return PiSum(_zeta_exact(n).monomials)


def _eisenstein_limit(a, b):
    if a < 0:
        return zeta_exact(a).as_monomial()[0] * gamma_pole_ratio(a, b, 2)
    if a == 1:
        return zeta_pole_over_gamma(b, 2)
    return Fraction(0)


def c_constants(s):
    e = 2 * s - 12
    c0p = PiSum.monomial(-2 * _eisenstein_limit(2 * s - 13, s - 11) / factorial(s - 2), e)
    c0pp = (Fraction(2) - Fraction(2) ** (13 - 2 * s)) * zeta_exact(2 * s - 12)
    c1 = PiSum.monomial(Fraction(2), e)
    c2 = PiSum.monomial(Fraction(2) - Fraction(2) ** (2 * s - 12), e)
    return c0p, c0pp, c1, c2


def _whittaker_moment_sum(s, two_power):
    r = 11 - s
    w = whittaker_closed_form(s - 1, r)
    two = 2 if two_power else 1
    return sum(c * falling_ratio(s + j, j + 1) * two ** (r - j) for j, c in enumerate(w))


def projection_coeffs(s):
    """(A_1(s), A_2(s)) as PiValues, for s in 3..10."""
    c0p, c0pp, c1, c2 = c_constants(s)
    f10 = factorial(10)
    s1 = _whittaker_moment_sum(s, two_power=False)
    s2 = _whittaker_moment_sum(s, two_power=True)
    a1 = (
        Fraction(factorial(12 - s), f10) * c0p
        + Fraction(factorial(s - 1), f10) * c0pp
        + (s1 / (24 * f10)) * c1
    )
    a2 = (
        (Fraction(factorial(12 - s)) * Fraction(2) ** (s - 2) / f10) * c0p
        + (Fraction(factorial(s - 1)) * Fraction(2) ** (11 - s) / f10) * c0pp
        + (s2 / f10) * c1
        + (Fraction(2) ** (11 - s) * s1 / (24 * f10)) * c2
    )
    return a1, a2


def two_delta_product(s):
    a1, a2 = projection_coeffs(s - 9)
    combo = 232 * a1 - a2
    num = Fraction(3 * 2**13) * combo
    den = (1 + 3 * Fraction(2) ** (13 - s) + Fraction(2) ** (31 - 2 * s)) * factorial(s - 10)
    coeff, expo = (num / den).as_monomial()
    return CriticalValueResult(s, coeff, expo + 11, PeterssonFactors.DELTA_DELTA)


def d_constants(s):
    e = 2 * s - 30
    lim = _eisenstein_limit(2 * s - 31, s - 19)
    d0p = PiSum.monomial(2 * Fraction(2) ** e * lim / factorial(s - 12), e)
    return d0p, 2 * zeta_exact(2 * s - 30)


def rankin_g20_value(s):
    d0p, d0pp = d_constants(s)
    combo = d0pp + Fraction(factorial(30 - s), factorial(s - 1)) * d0p
    value = (Fraction(4) ** 19 / (2 * factorial(18))) * combo
    coeff, expo = value.as_monomial()
    return CriticalValueResult(s, coeff, expo + 19, PeterssonFactors.G20_G20)


def main_identity(s):
    left, right = two_delta_product(s), rankin_g20_value(s)
    return CriticalValueResult(
        s,
        left.rational * right.rational,
        left.pi_exponent + right.pi_exponent,
        PeterssonFactors.BOTH,
    )
