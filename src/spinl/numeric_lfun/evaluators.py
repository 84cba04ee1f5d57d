"""Approximate-functional-equation L-evaluators and Rankin's norm formula.

Degree 2 (weight-k level-1 eigenforms).  With Lambda(s) = (2 pi)^-s Gamma(s) L(s)
and sign eps = (-1)^(k/2):

    Lambda(s) = sum_n a(n) [ (2 pi n)^-s Gamma(s, 2 pi n)
                             + eps (2 pi n)^(s-k) Gamma(k-s, 2 pi n) ].

Degree 4 (the weight-12 x weight-20 convolution, Gamma_C(s) Gamma_C(s-11)).
With Lambda(s) = (2 pi)^-2s Gamma(s) Gamma(s-11) L(s) and eps = +1:

    Lambda(s) = sum_n A(n) [ F(s, (2 pi)^2 n) + eps F(31-s, (2 pi)^2 n) ],
    F(s, a)   = int_1^inf phi(a t) t^(s-1) dt,
    phi(t)    = 2 t^(-11/2) K_11(2 sqrt(t)),

phi being the inverse Mellin transform of Gamma(s) Gamma(s-11) (a fact the
test suite pins by direct quadrature).  F is evaluated in closed form: the
derivative identity d/dt [(at)^(-v/2) K_v(2 sqrt(at))] = -a (at)^(-(v+1)/2)
K_(v+1)(2 sqrt(at)) reduces F by parts to K_0/K_1 boundary data at 2 sqrt(a)
plus one incomplete integral int_X^inf x^m K_0(x) dx, which telescopes to
K_0/K_1 terms for odd m (integer s) and to the Bickley function for even m
(half-integer s); any other real s falls back to tanh-sinh quadrature.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

from ..exact_arith import bernoulli, zeta_exact
from ..qexp import QSeries, RankinCoeffs, delta_qexp, g20_qexp, rankin_coeffs
from .bigfloat import _settle, context, fraction_to_mpf, pi_value_numeric, round_to
from .quadrature import tanh_sinh
from .special import _bessel_k01, bessel_k, bickley_ki1, gamma_upper

__all__ = [
    "LFunctionSpec",
    "PeterssonNorm",
    "delta_lfunction",
    "g20_lfunction",
    "rankin_lfunction",
    "l_degree2",
    "l_rankin4",
    "petersson_norm",
    "functional_eq_residual",
    "kernel_mellin_check",
]


@dataclass(frozen=True)
class LFunctionSpec:
    """Self-dual L-function descriptor: Gamma_R shifts, conductor, the weight
    w in Lambda(s) = eps Lambda(w - s), the sign, and a coefficient accessor."""

    gamma_shifts: Tuple[int, ...]
    conductor: int
    weight: int
    sign: int
    coefficients: Callable[[int], int]

    @property
    def degree(self) -> int:
        return len(self.gamma_shifts)


@dataclass(frozen=True)
class PeterssonNorm:
    k: int
    value: object  # mpf at the requested precision
    l_used: int


def _int_coeff_accessor(values: Sequence[int]) -> Callable[[int], int]:
    def a(n: int) -> int:
        return values[n]

    return a


def delta_lfunction(n_coeffs: int = 64) -> LFunctionSpec:
    vals = delta_qexp(n_coeffs).integer_coeffs()
    return LFunctionSpec((0, 1), 1, 12, +1, _int_coeff_accessor(vals))


def g20_lfunction(n_coeffs: int = 64) -> LFunctionSpec:
    vals = g20_qexp(n_coeffs).integer_coeffs()
    return LFunctionSpec((0, 1), 1, 20, +1, _int_coeff_accessor(vals))


def rankin_lfunction(n_coeffs: int = 200) -> LFunctionSpec:
    A = rankin_coeffs(n_coeffs)
    return LFunctionSpec((0, 1, -11, -10), 1, 31, +1, lambda n: A[n])


# ---------------------------------------------------------------------------
# degree 2


def _deg2_tail_ok(k: int, M: int, dps: int) -> bool:
    # first omitted term ~ |a(M+1)| e^(-2 pi (M+1)) / (2 pi (M+1)); Deligne
    # bound |a(n)| <= d(n) n^((k-1)/2), folded constants generous
    import math

    log10_tail = (
        3 + ((k - 1) / 2 + 1) * math.log10(M + 2) - 2 * math.pi * (M + 1) / math.log(10)
    )
    return log10_tail < -(dps + 2)


def _lambda_deg2(ctx, a: Callable[[int], int], k: int, s, M: int, dps: int, sign: int):
    twopi = 2 * ctx.pi
    acc = ctx.zero
    s = ctx.convert(s)
    for n in range(1, M + 1):
        x = twopi * n
        t = x ** (-s) * ctx.convert(gamma_upper(s, x, dps)) + sign * x ** (
            s - k
        ) * ctx.convert(gamma_upper(k - s, x, dps))
        acc += a(n) * t
    return acc


def l_degree2(form: QSeries, k: int, s, dps: int, M: int):
    """L(s, f) for a weight-k level-1 eigenform given by its q-expansion,
    via the incomplete-gamma smoothed sum over M coefficients."""
    if k not in (12, 20):
        raise ValueError("supported weights are 12 and 20")
    if form.precision < M:
        raise ValueError(f"form has {form.precision} coefficients, need {M}")
    if not _deg2_tail_ok(k, M, dps):
        raise ValueError(
            f"M={M} too small for {dps}-digit accuracy at weight {k}"
        )
    ctx = context(dps + 10)
    coeffs = form.integer_coeffs()
    sign = +1 if (k // 2) % 2 == 0 else -1
    lam = _lambda_deg2(ctx, _int_coeff_accessor(coeffs), k, s, M, dps + 10, sign)
    s = ctx.convert(s)
    return round_to(dps, lam * (2 * ctx.pi) ** s / ctx.gamma(s))


# ---------------------------------------------------------------------------
# degree 4

class _BoundedCache:
    """A mapping of at most `cap` entries that evicts the least recently
    used one; get and set are safe from any thread."""

    def __init__(self, cap: int):
        self.cap = cap
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def __setitem__(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            if len(self._data) > self.cap:
                self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


# a verify run at D = 60, M = 300 holds 300 nodes; entries live in the
# value contexts, so a hit is the same number in every thread
_CACHE_CAP = 2048
_NODE_CACHE = _BoundedCache(_CACHE_CAP)
_KI1_CACHE = _BoundedCache(_CACHE_CAP)


def _deg4_node(n: int, dps: int):
    """Per-n boundary data for the parts-reduction: a, X = 2 sqrt(a),
    K_0..K_10 at X, and u_v = (X/2)^-v K_v(X); cached per (n, dps)."""
    key = (n, dps)
    hit = _NODE_CACHE.get(key)
    if hit is not None:
        return hit
    ctx = context(dps)
    a = (2 * ctx.pi) ** 2 * n
    X = 2 * ctx.sqrt(a)
    k0, k1 = _bessel_k01(X, dps)
    K = [k0, k1]
    for j in range(1, 10):
        K.append(K[j - 1] + (2 * j / X) * K[j])
    half = X / 2
    u = tuple(_settle(dps, K[v] / half**v) for v in range(11))
    node = (_settle(dps, a), _settle(dps, X), k0, k1, u)
    _NODE_CACHE[key] = node
    return node


def _r_integral(m: int, X, k0, k1, n: int, dps: int):
    """R_m = int_X^inf x^m K_0(x) dx via R_m = X^m K_1 + (m-1) X^(m-1) K_0
    + (m-1)^2 R_(m-2); base R_1 = X K_1, R_0 = Ki_1(X)."""
    if m % 2 == 1:
        r = X * k1
        mm = 1
    else:
        key = (n, dps)
        r = _KI1_CACHE.get(key)
        if r is None:
            r = _KI1_CACHE[key] = bickley_ki1(X, dps)
        mm = 0
    while mm < m:
        mm += 2
        r = X**mm * k1 + (mm - 1) * X ** (mm - 1) * k0 + (mm - 1) ** 2 * r
    return r


def _incomplete_mellin_deg4(ctx, s, n: int, dps: int):
    """F(s, (2 pi)^2 n) for s with 2s integral (the closed-form chains)."""
    a, X, k0, k1, u = _deg4_node(n, dps)
    s = ctx.convert(s)
    acc = ctx.zero
    prod = ctx.one
    apow = a
    for j in range(11):
        acc += u[10 - j] * prod / apow
        prod *= s - (j + 1)
        apow *= a
    sigma = s - 11
    m = int(round(float(2 * sigma - 1)))
    r = _r_integral(m, X, k0, k1, n, dps)
    i0 = 2 * (4 * a) ** (-sigma) * r
    acc += prod / (apow / a) * i0
    return 2 * acc


def _incomplete_mellin_deg4_quad(ctx, s, n: int, dps: int):
    """Generic-s fallback: F(s, a) = 4 a^(-11/2) int_1^V v^(2s-12) K_11(2 sqrt(a) v) dv
    by tanh-sinh, V set by the e^(-2 sqrt(a) v) decay."""
    a = (2 * ctx.pi) ** 2 * n
    root = 2 * ctx.sqrt(a)
    s = ctx.convert(s)

    def f(v):
        return v ** (2 * s - 12) * ctx.convert(bessel_k(11, root * v, dps))

    V = (dps + 8) * ctx.log(10) / root + 4
    val = tanh_sinh(ctx, f, ctx.one, V, max_level=8, strict=True)
    return 4 * a ** ctx.mpf("-5.5") * val


def _mellin_tail(ctx, s, n: int, dps: int):
    two_s = float(2 * ctx.convert(s))
    if abs(two_s - round(two_s)) < 1e-12 and round(two_s) >= 24:
        return _incomplete_mellin_deg4(ctx, s, n, dps)
    return _incomplete_mellin_deg4_quad(ctx, s, n, dps)


def _deg4_tail_ok(M: int) -> bool:
    # measured truncation: ~1e-8 relative at M = 12, ~6e-13 at M = 20,
    # below 1e-25 at M >= 60; under 12 the value is meaningless
    return M >= 12


def _lambda_deg4(ctx, A: Callable[[int], int], s, M: int, dps: int):
    acc = ctx.zero
    w = 31
    for n in range(1, M + 1):
        acc += A(n) * (
            _mellin_tail(ctx, s, n, dps) + _mellin_tail(ctx, w - s, n, dps)
        )
    return acc


def l_rankin4(coeffs: RankinCoeffs, s: int, dps: int, M: int):
    """L(s, Delta x g20) for s in 12..19 via the smoothed Bessel-kernel sum
    over M coefficients (M >= 150 recommended for 30-digit work)."""
    if not 12 <= s <= 19 or s != int(s):
        raise ValueError("s must be an integer in 12..19")
    if M > coeffs.precision:
        raise ValueError(f"only {coeffs.precision} coefficients available")
    if not _deg4_tail_ok(M):
        raise ValueError(f"M={M} gives a meaningless truncation")
    ctx = context(dps + 12)
    lam = _lambda_deg4(ctx, lambda n: coeffs[n], int(s), M, dps + 12)
    return round_to(
        dps, lam * (2 * ctx.pi) ** (2 * s) / (ctx.gamma(s) * ctx.gamma(s - 11))
    )


def kernel_mellin_check(s0: int, dps: int):
    """Relative error of the quadrature of int_0^inf phi(t) t^(s0-1) dt
    against Gamma(s0) Gamma(s0-11): the identity that certifies the
    degree-4 kernel before any L-value is trusted.

    Integrates in v = sqrt(t), then log coordinates, so the only discarded
    piece is O(v^4) below v = 2e-6 (far below any supported tolerance)."""
    if s0 <= 12:
        raise ValueError("check points need s0 > 12")
    ctx = context(dps + 20)

    def f(w):
        v = ctx.exp(w)
        return v ** (2 * s0 - 11) * ctx.convert(bessel_k(11, 2 * v, dps + 18))

    v_hi = (dps + 14) * ctx.log(10) / 2 + 25
    w_cuts = (ctx.log(ctx.mpf("2e-6")), ctx.zero, ctx.log(v_hi))
    val = 4 * (
        tanh_sinh(ctx, f, w_cuts[0], w_cuts[1])
        + tanh_sinh(ctx, f, w_cuts[1], w_cuts[2])
    )
    ref = ctx.gamma(s0) * ctx.gamma(s0 - 11)
    return round_to(dps, abs(val - ref) / ref)


# ---------------------------------------------------------------------------
# functional equation residual and Petersson norms


def functional_eq_residual(
    spec: LFunctionSpec,
    coeffs: Optional[Callable[[int], int]],
    t,
    dps: int,
    M: int,
):
    """|Lambda(t) - eps Lambda(w - t)| with both sides evaluated by the
    smoothed sum: the internal numerical-stability certificate (the quantity
    is identically zero in exact arithmetic)."""
    a = coeffs if coeffs is not None else spec.coefficients
    w = spec.weight
    tf = float(t)
    if not 0 < tf < w:
        raise ValueError(f"t={t} outside the critical strip (0, {w})")
    ctx = context(dps + 10)
    if spec.degree == 2:
        left = _lambda_deg2(ctx, a, w, t, M, dps + 10, spec.sign)
        right = _lambda_deg2(ctx, a, w, ctx.convert(w) - ctx.convert(t), M, dps + 10, spec.sign)
    elif spec.degree == 4:
        left = _lambda_deg4(ctx, a, ctx.convert(t), M, dps + 10)
        right = _lambda_deg4(ctx, a, ctx.convert(w) - ctx.convert(t), M, dps + 10)
    else:
        raise ValueError("only the degree-2 and degree-4 shapes are supported")
    return round_to(dps, abs(left - spec.sign * right))


_VALID_NORM_ARGS = {(12, 4), (20, 4), (20, 6), (20, 8)}


def _norm_m_for(dps: int) -> int:
    import math

    M = 20
    while 2 * math.pi * M - 13 * math.log(M + 1) < (dps + 8) * math.log(10):
        M += 5
    return M


def petersson_norm(k: int, r: int, dps: int) -> PeterssonNorm:
    """<f_k, f_k> by Rankin's formula

        (4 pi)^(1-k) (k-2)!/zeta(l) * a_r/(a_l + a_r - a_k) * L(k-1, f_k) L(l, f_k)

    with l = k - r, a_j = -2j/B_j the first Eisenstein coefficient, the
    Eisenstein data exact, zeta(l) rendered from its exact pi-power form,
    and both L-values from the degree-2 evaluator."""
    if (k, r) not in _VALID_NORM_ARGS:
        raise ValueError(f"unsupported (k, r) = ({k}, {r})")
    l = k - r
    alpha = {j: -Fraction(2 * j) / bernoulli(j) for j in (r, l, k)}
    ratio = alpha[r] / (alpha[l] + alpha[r] - alpha[k])
    M = _norm_m_for(dps)
    form = delta_qexp(M) if k == 12 else g20_qexp(M)
    inner = dps + 8
    ctx = context(inner)
    L1 = ctx.convert(l_degree2(form, k, k - 1, inner, M))
    L2 = ctx.convert(l_degree2(form, k, l, inner, M))
    zl = ctx.convert(pi_value_numeric(zeta_exact(l), inner))
    value = (
        (4 * ctx.pi) ** (1 - k)
        * ctx.factorial(k - 2)
        / zl
        * fraction_to_mpf(ctx, ratio)
        * L1
        * L2
    )
    return PeterssonNorm(k, round_to(dps, value), l)
