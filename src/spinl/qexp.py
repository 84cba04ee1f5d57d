"""Truncated q-expansions and the specific level-1 / level-p modular forms
this package consumes: Delta, E_k, G_{2,p}, g_20 = E_8*Delta, the Hecke
operator T_p, and the Dirichlet coefficients of the degree-4 convolution.

A ``QSeries`` is a read-only expansion: its coefficients are read one by
one or as a tuple, and it carries no series arithmetic. Coefficients are
exact: a coefficient is stored as an ``int`` when it is integral and as
a ``Fraction`` only when it is not (E_k's 2k/B_k factor, the constant
term of G_{2,p}, and what is derived from those). The two products the
forms need, in Delta and in g20, are integral and run on plain integers
by Kronecker substitution: each operand becomes one decimal number of
biased w-digit slots, and one multiply in the standard ``decimal``
module (libmpdec, a number-theoretic transform for large operands,
O(n log n)) gives every product coefficient. That multiply runs in a private
context that traps any rounding, so it is exact or raises. Only the
product coefficients that are read, q^0..q^N, must fit a slot, so Delta
and g20 size their slots by Deligne's bound |a(n)| <= d(n) n^((k-1)/2)
on the coefficients they keep, and only their digits are printed. The
constant "50...0" that biases the slots is made once per slot count in a
product, for packing and read-back alike. Delta is q times Jacobi's
eta^3 = sum (-1)^k (2k+1) q^(k(k+1)/2) squared three times: the first
squaring, of a series with ~sqrt(2N) nonzero terms, is a sparse loop,
the other two are transforms. E_k and G_{2,p} read their divisor sums
from one sieve. delta_qexp and g20_qexp hold the longest series of
their form built (_LONGEST): a builder asked for exactly its precision
returns it, and Lemma 1 reads it in place. Every builder takes N of an
integral type (one operator.index accepts) and raises ValueError for
any other N before any work; so do the weight k, the prime p and Lemma
1's order wherever they are taken.
"""

from __future__ import annotations

import decimal
import operator
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Sequence, Tuple

from .exact_arith import _as_int, bernoulli, factor_integer

__all__ = [
    "QSeries",
    "RankinCoeffs",
    "delta_qexp",
    "eisenstein_qexp",
    "g2p_qexp",
    "g20_qexp",
    "hecke_tp",
    "rankin_coeffs",
    "lemma1_local_check",
    "is_prime",
]

def is_prime(n: int) -> bool:
    """Whether n, of an integral type (else ValueError), is prime."""
    n = _as_int(n, "n")
    return n >= 2 and factor_integer(n) == [(n, 1)]


def _schoolbook(a: Sequence, b: Sequence, n_out: int) -> list:
    """Coefficients 0..n_out of a * b, summed over b's nonzero terms only, so
    a sparse operand (eta^3 has ~sqrt(2 n_out) of them) costs that many."""
    nonzero = [(j, bj) for j, bj in enumerate(b) if bj]
    out = [0] * (n_out + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in nonzero:
                if i + j > n_out:
                    break
                out[i + j] += ai * bj
    return out


# _kronecker's own context: private, and exact or raising (see there)
_DEC = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.InvalidOperation, decimal.Overflow, decimal.Inexact, decimal.Rounded],
)


def _kronecker(a: Sequence[int], b: Sequence[int], n_out: int, bound: int | None = None) -> list:
    """Coefficients 0..n_out of the product of two integer polynomials.

    Kronecker substitution in base 10^w: each operand is one decimal number
    with a w-digit slot per coefficient, and the product is one
    ``decimal`` multiply, which libmpdec makes with a number-theoretic
    transform in O(n log n) for large operands. A slot holds x + h with
    h = 5 10^(w-1), so it is written as nonnegative digits; subtracting the
    packed h's (a constant "50...0" decimal, made once per slot count and
    shared by both operands and the read-back) leaves sum x_i 10^(wi).

    Only the low n_out + 1 slots of the product C = sum c_k 10^(wk) are
    read, so only their coefficients must fit: |c_k| < h for k <= n_out.
    Then (C + H) mod 10^K, with K = w (n_out + 1) and H the packed h's of
    those slots, is exactly sum_{k <= n_out} (c_k + h) 10^(wk), which reads
    off without carries, and only those K digits are printed; the unread
    high slots may overflow. ``bound`` is the caller's bound on those |c_k|
    (Deligne's, for Delta and g20); without it, the bound is
    max|a| max|b| min(len(a), len(b)), which holds for every slot. The
    arithmetic runs in the private context ``_DEC``, never the thread's
    current one, and that context traps Inexact and Rounded: a result too
    long for it raises instead of losing digits.

    Slots pass through ``str`` and ``int``, so a slot of more than
    ``sys.get_int_max_str_digits()`` digits (4,300 by default) raises
    ValueError; the package's own series need fewer than ~60.
    """
    max_a = max(map(abs, a))
    max_b = max_a if a is b else max(map(abs, b))
    if max_a == 0 or max_b == 0:
        return [0] * (n_out + 1)
    if bound is None:
        bound = max_a * max_b * min(len(a), len(b))
    # Every operand coefficient and every product coefficient that is read
    # has |x| <= B, and w is the smallest width with 4 B < 10^w: then x + h
    # lies strictly between 2.5 10^(w-1) and 7.5 10^(w-1), so it is exactly
    # w digits.
    w = len(str(4 * max(bound, max_a, max_b)))
    h = 5 * 10 ** (w - 1)
    biases = {}  # the packed h's, by slot count

    def bias(n):
        if n not in biases:
            biases[n] = _DEC.create_decimal(str(h) * n)
        return biases[n]

    def pack(xs):
        digits = "".join([str(x + h) for x in reversed(xs)])
        return _DEC.subtract(_DEC.create_decimal(digits), bias(len(xs)))

    A = pack(a)
    C = _DEC.add(_DEC.multiply(A, A if a is b else pack(b)), bias(n_out + 1))
    # C mod 10^K, floored so that it is nonnegative: the high part is cut by
    # moving the exponent, which prints nothing
    K = w * (n_out + 1)
    high = _DEC.scaleb(C, -K).to_integral_value(decimal.ROUND_FLOOR, _DEC)
    s = _DEC.to_sci_string(_DEC.subtract(C, _DEC.scaleb(high, K)))
    # slot k is the k-th w-digit group from the right
    return [int(s[j - w : j]) - h for j in range(K, 0, -w)]


def _exact(c):
    """c as an int when it is integral, else as a Fraction."""
    if isinstance(c, int):
        return int(c)
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class QSeries:
    """A q-expansion truncated at precision N: the coefficients of
    q^0 .. q^N, read-only."""

    __slots__ = ("_coeffs", "precision")

    def __init__(self, coeffs: Sequence, precision: int | None = None):
        cs = [_exact(c) for c in coeffs]
        if precision is None:
            precision = len(cs) - 1
        if precision < 0:
            raise ValueError("precision must be nonnegative")
        if len(cs) < precision + 1:
            cs.extend([0] * (precision + 1 - len(cs)))
        self._coeffs = tuple(cs[: precision + 1])
        self.precision = precision

    @classmethod
    def _of(cls, coeffs: Sequence, precision: int) -> "QSeries":
        """The series of coeffs[0..precision], which are exact already (an
        int wherever the value is integral): no normalising pass."""
        out = object.__new__(cls)
        out._coeffs, out.precision = tuple(coeffs), precision
        return out

    @property
    def coeffs(self) -> Tuple[int | Fraction, ...]:
        return self._coeffs

    def __getitem__(self, n: int) -> int | Fraction:
        if not 0 <= n <= self.precision:
            raise IndexError(f"coefficient {n} beyond precision {self.precision}")
        return self._coeffs[n]

    def is_integral(self) -> bool:
        return all(type(c) is int for c in self._coeffs)

    def integer_coeffs(self) -> list:
        if not self.is_integral():
            raise ValueError("series has non-integer coefficients")
        return list(self._coeffs)

    def __eq__(self, other):
        if isinstance(other, QSeries):
            return (
                self.precision == other.precision
                and self._coeffs == other._coeffs
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.precision, self._coeffs))

    def __repr__(self):
        head = ", ".join(str(c) for c in self._coeffs[:6])
        tail = ", ..." if self.precision > 5 else ""
        return f"QSeries(N={self.precision}; [{head}{tail}])"


def _exact_series(cs: list, precision: int) -> QSeries:
    """The series of cs, computed from exact coefficients: an all-int list
    is exact as it is; a Fraction may have come out integral, so anything
    else is normalised."""
    if all(type(c) is int for c in cs):
        return QSeries._of(cs, precision)
    return QSeries(cs, precision)


# typed, so that N = 5.0 misses the entry of N = 5 and reaches _check_n
_cached = lru_cache(maxsize=16, typed=True)


def _check_n(N, least: int = 1) -> int:
    """N as an int if it is of an integral type (operator.index) and at
    least `least`, else ValueError: the first step of every builder, before
    any work or any read of _LONGEST."""
    try:
        n = operator.index(N)
        if n >= least:
            return n
    except TypeError:
        pass
    raise ValueError(f"need an int N >= {least}, got {N!r}")


def _eta_cubed(n: int) -> list:
    """prod_{m>=1} (1 - q^m)^3 to precision n by Jacobi's identity: the sum
    of (-1)^k (2k+1) q^(k(k+1)/2) over k >= 0."""
    out = [0] * (n + 1)
    k = t = 0
    while t <= n:
        out[t] = -(2 * k + 1) if k % 2 else 2 * k + 1
        k += 1
        t += k
    return out


# the longest Delta and g20 built, by form, held strongly.  Each reader reads
# an entry once, as another thread may replace it; two racing builds can
# leave the shorter here, which costs a later build, never a wrong series
_LONGEST: dict = {}


def _keep_longest(form: str, series: QSeries) -> QSeries:
    """series, held in _LONGEST if it is the longest of its form built."""
    longest = _LONGEST.get(form)
    if longest is None or longest.precision < series.precision:
        _LONGEST[form] = series
    return series


@_cached
def delta_qexp(N: int) -> QSeries:
    """Ramanujan's Delta = q prod (1-q^n)^24 to precision N.

    Coefficient of q^n is tau(n); the constant term is exactly 0.
    """
    N = _check_n(N)
    longest = _LONGEST.get("delta")
    if longest is not None and longest.precision == N:  # the cache dropped it
        return longest
    eta3 = _eta_cubed(N - 1)
    eta6 = _schoolbook(eta3, eta3, N - 1)  # eta^3 is sparse: no transform
    eta12 = _kronecker(eta6, eta6, N - 1)
    # eta24[i] = tau(i + 1), and Deligne's |tau(n)| <= d(n) n^(11/2) with
    # d(n) <= 2 sqrt(n) bounds it by 2 N^6
    eta24 = _kronecker(eta12, eta12, N - 1, 2 * N**6)
    return _keep_longest("delta", QSeries._of([0] + eta24, N))


def _divisor_power_sums(N: int, e: int) -> list:
    """sigma_e(n) for n = 0..N (index 0 unused, set to 0), multiplicatively:
    with p the smallest prime factor of n = p^a m, sigma_e(n) is
    sigma_e(p^a) sigma_e(m), and sigma_e(p^a) = sigma_e(p^(a-1)) + p^(ae)."""
    spf = list(range(N + 1))  # smallest prime factors, by a sieve
    for p in range(2, isqrt(N) + 1):
        if spf[p] == p:
            for m in range(p * p, N + 1, p):
                if spf[m] == m:
                    spf[m] = p
    out = [0] * (N + 1)
    if N >= 1:
        out[1] = 1
    for n in range(2, N + 1):
        p = spf[n]
        m = n // p
        while m % p == 0:
            m //= p
        out[n] = out[m] * out[n // m] if m > 1 else out[n // p] + n**e
    return out


def eisenstein_qexp(k: int, N: int) -> QSeries:
    """Normalized Eisenstein series E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n."""
    k = _as_int(k, "k")
    if k < 4 or k % 2 != 0:
        raise ValueError("Eisenstein weight must be even and >= 4")
    N = _check_n(N, 0)
    alpha = _exact(-Fraction(2 * k) / bernoulli(k))
    sig = _divisor_power_sums(N, k - 1)
    return _exact_series([1] + [alpha * c for c in sig[1:]], N)


def g2p_qexp(p: int, N: int) -> QSeries:
    """The weight-2 level-p Eisenstein combination G_2(z) - p G_2(pz).

    Constant term (p-1)/24; coefficient of q^n is the sum of the divisors d
    of n with p not dividing d, sigma_1(n) - p sigma_1(n/p), the second term
    only when p divides n, from the one divisor-sum sieve.
    """
    p = _as_int(p, "p")
    if not is_prime(p):
        raise ValueError("p must be prime")
    N = _check_n(N)
    sig = _divisor_power_sums(N, 1)
    out = [sig[n] - (p * sig[n // p] if n % p == 0 else 0) for n in range(1, N + 1)]
    return QSeries([Fraction(p - 1, 24)] + out, N)


@_cached
def g20_qexp(N: int) -> QSeries:
    """The normalized weight-20 cusp eigenform E_8 * Delta to precision N."""
    N = _check_n(N)
    longest = _LONGEST.get("g20")
    if longest is not None and longest.precision == N:
        return longest
    # Deligne: |b(n)| <= d(n) n^(19/2) <= 2 N^10 for n <= N
    e8, delta = eisenstein_qexp(8, N).coeffs, delta_qexp(N).coeffs
    return _keep_longest("g20", QSeries._of(_kronecker(e8, delta, N, 2 * N**10), N))


def hecke_tp(f: QSeries, p: int, k: int) -> QSeries:
    """Apply the level-1 Hecke operator T_p in weight k.

    Output coefficient n is a(np) + p^(k-1) a(n/p), p^(k-1) exact (a Fraction
    at k <= 0) and the second term only when p | n; precision floor(N/p).
    """
    p, k = _as_int(p, "p"), _as_int(k, "k")
    if not is_prime(p):
        raise ValueError("p must be prime")
    n_out = f.precision // p
    if n_out < 1:
        raise ValueError(
            f"insufficient precision {f.precision} for T_{p}"
        )
    pk = p ** (k - 1) if k >= 1 else Fraction(1, p ** (1 - k))
    a = f.coeffs
    out = list(a[: n_out * p + 1 : p])
    for n in range(0, n_out + 1, p):
        out[n] += pk * a[n // p]
    return _exact_series(out, n_out)


class RankinCoeffs:
    """Dirichlet coefficients A(1)..A(N) of the degree-4 convolution of the
    weight-12 and weight-20 eigenforms: A(n) = sum_{d^2|n} d^30 tau(n/d^2) b(n/d^2).
    """

    __slots__ = ("precision", "values")

    def __init__(self, precision: int, values: Tuple[int, ...]):
        self.precision = precision
        self.values = values  # index 0 unused

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= self.precision:
            raise IndexError(f"A({n}) beyond precision {self.precision}")
        return self.values[n]


@_cached
def rankin_coeffs(N: int) -> RankinCoeffs:
    N = _check_n(N)
    tau, b = delta_qexp(N).coeffs, g20_qexp(N).coeffs
    vals = [t * c for t, c in zip(tau, b)]  # d = 1, and A(0) = 0
    for d in range(2, isqrt(N) + 1):
        dd, d30 = d * d, d**30
        for m in range(1, N // dd + 1):
            vals[m * dd] += d30 * tau[m] * b[m]
    return RankinCoeffs(N, tuple(vals))


# lemma1_local_check reads tau(p^k), b(p^k) straight from q-expansions up to
# this index and extends by the Hecke recursion beyond it (exact expansion to
# 5^8 coefficients is not practical; the recursion itself is a separately
# tested property).
_DIRECT_COEFF_CAP = 4096


def lemma1_local_check(p: int, order: int) -> bool:
    """Compare, to the given order in X = p^(-s), the coefficient series
    sum_k tau(p^k) b(p^k) X^k against the closed degree-4 local factor

        (1 - a a' b b' X^2) / prod (1 - a b X)(1 - a b' X)(1 - a' b X)(1 - a' b' X)

    with a + a' = tau(p), a a' = p^11, b + b' = b(p), b b' = p^19.  Both
    sides are expanded with exact integer symmetric-function arithmetic.
    The coefficients are read in place from the longest Delta and g20
    series built (_LONGEST) when it reaches far enough.
    """
    p, order = _as_int(p, "p"), _as_int(order, "order")
    if p not in (2, 3, 5, 7):
        raise ValueError("p must be one of 2, 3, 5, 7")
    if not 0 <= order <= 10:
        raise ValueError("order must be in 0..10")
    n_direct = max(min(p**order, _DIRECT_COEFF_CAP), p)  # tau(p), b(p) even at order 0

    def reach(build, form: str) -> QSeries:  # _LONGEST[form] read once
        longest = _LONGEST.get(form)
        return build(max(n_direct, longest.precision) if longest else n_direct)

    tau_series, b_series = reach(delta_qexp, "delta"), reach(g20_qexp, "g20")

    def prime_powers(series: QSeries, pk_weight: int) -> list:
        out = [1]
        for k in range(1, order + 1):
            if p**k <= n_direct:
                out.append(series[p**k])
            else:
                # Hecke recursion a(p^(k+1)) = a(p) a(p^k) - p^(w-1) a(p^(k-1))
                out.append(out[1] * out[k - 1] - p**pk_weight * out[k - 2])
        return out

    taupk = prime_powers(tau_series, 11)
    bpk = prime_powers(b_series, 19)
    lhs = [taupk[k] * bpk[k] for k in range(order + 1)]

    tp, bp = tau_series[p], b_series[p]
    p11, p19, p30 = p**11, p**19, p**30
    # elementary symmetric functions of {ab, ab', a'b, a'b'}
    e1 = tp * bp
    e2 = p19 * (tp * tp - 2 * p11) + p11 * (bp * bp - 2 * p19) + 2 * p30
    e3 = p30 * tp * bp
    e4 = p30 * p30
    den = [1, -e1, e2, -e3, e4]
    num = [1, 0, -p30]
    rhs = []
    for k in range(order + 1):
        c = num[k] if k < len(num) else 0
        for j in range(1, min(k, 4) + 1):
            c -= den[j] * rhs[k - j]
        rhs.append(c)
    return lhs == rhs
