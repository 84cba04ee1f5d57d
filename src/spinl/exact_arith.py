"""Exact arithmetic substrate: rationals, Bernoulli numbers, zeta special
values, the Gamma-ratio limits needed by the Eisenstein constant terms,
and the one trial division (table denominators, Hecke primes).

Everything in this module is exact.  Rationals are `fractions.Fraction`
(aliased as `Rational`); a value "rational times one power of pi" is a
`PiValue`, the named tuple (rational, pi_exponent).  All functions are
pure and all values immutable, so concurrent use needs no locking.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import comb, factorial
from typing import List, NamedTuple, Tuple

Rational = Fraction

__all__ = [
    "Rational",
    "PiValue",
    "bernoulli",
    "zeta_exact",
    "falling_ratio",
    "gamma_pole_ratio",
    "zeta_pole_over_gamma",
    "factor_integer",
]


class PiValue(NamedTuple):
    """q * pi^e with q rational and e an integer, the form of every exact
    value.  :meth:`monomial` builds it and gives zero as (0, 0), so equal
    values are equal tuples.  It carries no arithmetic: the exact engine
    computes on rationals and wraps its results in a PiValue at return."""

    rational: Fraction
    pi_exponent: int

    @classmethod
    def monomial(cls, coeff, exponent: int) -> "PiValue":
        q = Fraction(coeff)
        return cls(q, int(exponent) if q else 0)

    @property
    def monomials(self) -> Tuple[Tuple[Fraction, int], ...]:
        """((rational, pi_exponent),), or () for zero."""
        return ((self.rational, self.pi_exponent),) if self.rational else ()

    def as_monomial(self) -> Tuple[Fraction, int]:
        """(rational, pi_exponent); zero is (0, 0)."""
        return self.rational, self.pi_exponent


_BERNOULLI_CACHE: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n in the convention B_1 = -1/2.

    Computed from the defining recurrence sum_{k<=n} C(n+1,k) B_k = 0
    with memoization, keeping the module closed under rationals; the odd
    B_k past B_1 are 0 and the recurrence skips them.
    """
    if n < 0:
        raise ValueError("Bernoulli numbers need n >= 0")
    while len(_BERNOULLI_CACHE) <= n:
        m = len(_BERNOULLI_CACHE)
        if m > 1 and m % 2 == 1:
            _BERNOULLI_CACHE.append(Fraction(0))
            continue
        acc = sum(
            comb(m + 1, k) * _BERNOULLI_CACHE[k] for k in range(m) if k < 2 or k % 2 == 0
        )
        _BERNOULLI_CACHE.append(Fraction(-1, m + 1) * acc)
    return _BERNOULLI_CACHE[n]


def _zeta_rational(n: int) -> Fraction:
    """zeta(n) / pi^max(n, 0), a rational wherever zeta_exact has a closed
    form; odd n >= 1 raises, as there."""
    if n >= 1 and n % 2 == 1:
        raise ValueError(f"zeta({n}) has no exact rational/pi closed form")
    if n >= 2:
        return (-1) ** (n // 2 + 1) * bernoulli(n) * 2**n / (2 * factorial(n))
    if n == 0:
        return Fraction(-1, 2)
    if n % 2 == 0:
        return Fraction(0)
    return -bernoulli(1 - n) / (1 - n)


def zeta_exact(n: int) -> PiValue:
    """Exact value of zeta at an integer where a closed form exists.

    * n even >= 2:  zeta(n) = (-1)^(n/2+1) B_n (2 pi)^n / (2 n!), a single
      monomial with pi-exponent n;
    * n = 0: -1/2;
    * n negative even: exact 0 (trivial zeros);
    * n negative odd: -B_(1-n)/(1-n).

    Odd n >= 1 is rejected: n = 1 is the pole and odd n >= 3 has no exact
    closed form (the numerical module's concern).
    """
    return PiValue.monomial(_zeta_rational(n), max(n, 0))


def falling_ratio(a: int, i: int) -> Fraction:
    """The product prod_{j=1..i} (a - j), i.e. Gamma(a)/Gamma(a-i) continued
    to every integer a.

    The product formula is taken as the definition, so the value is 0
    exactly when some factor vanishes; poles of the denominator Gamma never
    need separate treatment.
    """
    if i < 0:
        raise ValueError("falling_ratio needs i >= 0")
    p = 1
    for j in range(1, i + 1):
        p *= a - j
    return Fraction(p)


def gamma_pole_ratio(x: int, y: int, c: int) -> Fraction:
    """lim_{eps->0} Gamma(x + c*eps) / Gamma(y + eps) with both arguments at
    nonpositive-integer poles.

    Near a pole, Gamma(-n + d) ~ (-1)^n / (n! d); the residues give
    (1/c) * (-1)^(x-y) * (-y)! / (-x)!.  The scaling c accounts for the
    numerator argument moving c times as fast along the limit direction.
    """
    if x > 0 or y > 0:
        raise ValueError("gamma_pole_ratio needs nonpositive integers")
    if c < 1:
        raise ValueError("gamma_pole_ratio needs c >= 1")
    sign = -1 if (x - y) % 2 else 1
    return Fraction(sign * factorial(-y), c * factorial(-x))


def zeta_pole_over_gamma(y: int, c: int) -> Fraction:
    """lim_{eps->0} zeta(1 + c*eps) / Gamma(y + eps) for y a nonpositive
    integer.

    zeta has residue 1 at its pole, so zeta(1 + c*eps) ~ 1/(c*eps), while
    1/Gamma(y + eps) ~ eps (-1)^(-y) (-y)!; the pole and the zero cancel to
    the finite value (-1)^(-y) (-y)! / c.
    """
    if y > 0:
        raise ValueError("zeta_pole_over_gamma needs a nonpositive integer")
    if c < 1:
        raise ValueError("zeta_pole_over_gamma needs c >= 1")
    return Fraction((-1) ** (-y) * factorial(-y), c)


def _as_int(x, name: str) -> int:
    """x as an int if it is of an integral type (operator.index), else
    ValueError naming the argument."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{name} must be an int, got {x!r}") from None


def factor_integer(n: int) -> List[Tuple[int, int]]:
    """Prime factorization by trial division as (prime, exponent) pairs,
    for n of an integral type.  Table denominators are smooth, so this
    never works hard."""
    n = _as_int(n, "n")
    if n < 1:
        raise ValueError("need a positive integer")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out
