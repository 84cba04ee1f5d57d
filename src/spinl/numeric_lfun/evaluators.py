"""Approximate-functional-equation L-evaluators and Rankin's norm formula.

Degree 2 (weight-k level-1 eigenforms).  With Lambda(s) = (2 pi)^-s Gamma(s) L(s)
and sign eps = (-1)^(k/2):

    Lambda(s) = sum_n a(n) [ G_s(2 pi n) + eps G_(k-s)(2 pi n) ],
    G_a(x)    = x^-a Gamma(a, x).

For 0 < s < k <= 20 write s = f + j with 0 < f <= 1.  The G_(f+j),
j = 0..19, come as one table per n, f and precision from one e^-x and the
all-positive upward recurrence G_(a+1) = (a G_a + e^-x) / x, run as
G_a = (e^-x / x) H_a with H_(a+1) = a H_a / x + 1 on Python integers, from
H_f = x e^x x^-f Gamma(f, x): H_1 = 1 at integer orders, otherwise
Legendre's continued fraction on the same integers; x, pi and e^-x come
from libmp, and each G_a stays unrounded, an integer at the exponent of
e^-x / x.  The sums S_a = sum_n a(n) G_a(2 pi n) are taken once per
coefficient set and f, so any s in the strip costs two table entries,
Lambda(s) = S_s + eps S_(k-s), with k - s taken exactly and split the same
way (its f is 1 - f, or 1 with s).

Degree 4 (the weight-12 x weight-20 convolution, Gamma_C(s) Gamma_C(s-11)).
With Lambda(s) = (2 pi)^-2s Gamma(s) Gamma(s-11) L(s) and eps = +1:

    Lambda(s) = sum_n A(n) [ F(s, (2 pi)^2 n) + eps F(31-s, (2 pi)^2 n) ],
    F(s, a)   = int_1^inf phi(a t) t^(s-1) dt,
    phi(t)    = 2 t^(-11/2) K_11(2 sqrt(t)),

phi being the inverse Mellin transform of Gamma(s) Gamma(s-11) (a fact the
test suite pins by direct quadrature).  F is evaluated in closed form: the
derivative identity d/dt [(at)^(-v/2) K_v(2 sqrt(at))] = -a (at)^(-(v+1)/2)
K_(v+1)(2 sqrt(at)) reduces F by parts to K_0..K_10 at X = 2 sqrt(a) plus
one incomplete integral R_m = int_X^inf x^m K_0(x) dx, m = 2s - 23:

    F(s, a) = 2 [ sum_(j=0..10) p_j(s) w_j + p_11(s) tau_m ],
    p_j(s)  = (s-1)(s-2)...(s-j),
    w_j     = a^-(j+1) (X/2)^-(10-j) K_(10-j)(X),
    tau_m   = (2 / a^11) X^-(m+1) R_m.

Only p depends on s, and only w and tau on n.  The tau satisfy one
recurrence, tau_m = tau_1 + (m-1) g_0 + ((m-1)/X)^2 tau_(m-2) with
tau_1 = (2/a^11) K_1/X and g_0 = (2/a^11) K_0/X^2, for real m, so each
class mu in (-1, 1] of m mod 2 is one chain tau_mu, tau_(mu+2), ...,
tau_(mu+16), which reaches every m < 17.  The chain of mu = 1 (integer s)
starts at tau_1; any other starts at tau_mu = (2/a^11) X^-(mu+1) R_mu
with X^-mu R_mu from special._ki1 (Ki_1(X) at mu = 0, the half-integer
s): K_0's large-x expansion integrated term by term once X + mu ln X
passes (D + 10) ln 10, below that the Bickley function's trapezoid rule
on R_mu = int_0^inf (cosh u)^(-mu-1) Gamma(mu+1, X cosh u) du.  The
degree-4 domain is 11 < s < 20: there both
sides have m in (-1, 17) and every p_j(s) >= 0, so F is a sum of positive
terms; below s = 11 the p_j alternate and the closed form cancels, and
_side refuses such an s.

Since a = (X/2)^2, every factor above is a power of r = 2/X:
w_j = K_(10-j) r^(12+j), 2/a^11 = 2 r^22, tau_1 = K_1 r^23 and
g_0 = K_0 r^24 / 2.  A node is built in one integer pass from a
fixed-point K_0/K_1 pair: with y_nu = K_nu r^(22-nu), K's recurrence is
the division-free y_(nu+1) = nu y_nu + a y_(nu-1) from y_0 = K_0 r^22 and
y_1 = K_1 r^21, and w_j = y_(10-j); the fields and the tau chains stay
unrounded, integers at one exponent per node.  Past _k0_k1's series cut
the pair is _k0_k1's own at the grid's X_n = 4 pi sqrt(n) (_grid_x);
below it, one descent per D by the multiplication theorem from the first
node past the cut (the band) down to n = 1 (_band_chain), the loop the
kernel check runs down its own node set (_descent).  Every
degree-4 entry point takes M >= _deg4_m(D), every node below the band at
D: a floor, not a truncation bound.  Since p does not depend on n, the
n-sum commutes with the dot product:

    sum_n A(n) F(s, a_n) = 2 [ sum_j p_j(s) W_j + p_11(s) T_m ],
    W_j = sum_n A(n) w_j(n),   T_m = sum_n A(n) tau_m(n),

and the moments W, T (like the degree-2 S_a) are summed once per
coefficient set and class mu (keyed by mu as passed), each one exact
integer sum rounded once, so Lambda at any real s in the domain is one
dot per side.

Per-term precision.  Term n of either sum decays like e^-X = e^(-4 pi
sqrt(n)) (degree 4) or e^(-2 pi n) (degree 2), so at D = 60 the node at
n = 300 is ~10^-50 of the one at n = 1.  On a cache miss _moments builds
each node or table at its own level, the digits its share of the sum
needs: dps at the largest term, one digit fewer per digit below it,
never fewer than MIN_DPS, from a float estimate of |c_n| times the
slowest decay among the per-n entries; the degree-4 nodes below the band
stay at dps, from one descent.  The per-n caches key on that level; no
per-n step makes an mpmath context.

Every public entry point at D digits works in context(D + GUARD) and
rounds once to D; its helpers (_lambda, _l_value, _norm) round nothing.
Each L-value, at either degree, is one _l_value: Lambda(s) over one gamma
factor built from the Gamma_C shifts.  It and each norm are memoized as
libmp values in no context, in any thread; with _coefficients reading a
held series as one slice of its tuple, a repeated call redoes no sum, and
a new s only its dots.
"""

from __future__ import annotations

import math
import operator
import threading
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Callable, NamedTuple, Optional, Tuple

from mpmath.libmp import (
    dps_to_prec, fone, from_float, from_int, from_man_exp, fzero, mpf_add, mpf_div,
    mpf_exp, mpf_lt, mpf_mul, mpf_neg, mpf_pi, mpf_pow_int, mpf_shift, mpf_sub,
    mpf_sum, pi_fixed, round_nearest, to_fixed, to_float, to_int,
)

from ..exact_arith import _zeta_rational, bernoulli
from ..qexp import QSeries, delta_qexp, g20_qexp, rankin_coeffs
from .bigfloat import (
    GUARD, MIN_DPS, _check_dps, _check_real, _rounded, context, render_exact, round_to,
)
from .quadrature import QuadratureError
from .special import (
    _LN2, _LN10, _divisor, _k0_k1, _k_up, _ki1, _legendre_seed, _libmp, _pair_wp, _series_cut,
)

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


class LFunctionSpec(NamedTuple):
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


class PeterssonNorm(NamedTuple):
    k: int
    value: object  # mpf at the requested precision
    l_used: int


def delta_lfunction(n_coeffs: int = 64) -> LFunctionSpec:
    return LFunctionSpec((0, 1), 1, 12, +1, delta_qexp(n_coeffs).__getitem__)


def g20_lfunction(n_coeffs: int = 64) -> LFunctionSpec:
    return LFunctionSpec((0, 1), 1, 20, +1, g20_qexp(n_coeffs).__getitem__)


def rankin_lfunction(n_coeffs: int = 200) -> LFunctionSpec:
    return LFunctionSpec((0, 1, -11, -10), 1, 31, +1, rankin_coeffs(n_coeffs).__getitem__)


# ---------------------------------------------------------------------------
# per-n caches and the sums over n

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


# the degree-4 nodes, keyed by (n, dps), and their seeded chains by
# (n, mu, dps): a verify run at D = 60, M = 300 holds 300 nodes; entries
# are integers and libmp values, so a hit is the same number in every
# thread
_CACHE_CAP = 2048
_NODE_CACHE = _BoundedCache(_CACHE_CAP)
_KI1_CACHE = _BoundedCache(_CACHE_CAP)

# the moments, the band's descent, the kernel errors, the degree-2 M
# floors, the L-values and the norms, by their arguments: all M coefficient
# values (never their accessor), mu, f or s as passed, and dps
_memo = lru_cache(maxsize=64)


def _moments(
    coeffs: tuple, dps: int, vector: Callable[[int, int], tuple],
    scale: Callable[[int], float],
) -> tuple:
    """(sum_n c_n v_j(n))_j over n = 1..len(coeffs) for coeffs = (c_1, ...,
    c_M): each sum one exact integer dot product, rounded once to dps
    digits, a libmp value in no context; memoized by its two callers.

    vector(n, d) gives (exp, (v_0(n), v_1(n), ...)): the v_j(n) as signed
    mantissas at one exponent, each good to 10^-d of itself with a few
    guard digits, and scale(n) is the float log10 of a function of n that
    no v_j falls slower than: v_j(n) / v_j(m) <= 10^(scale(n) - scale(m))
    for m < n.  With mag_n = log10 |c_n| + scale(n), term n is then at most
    10^-(top_n - mag_n) of term m in every sum, top_n = mag_m the largest
    mag up to n, so it is built at the level d_n = dps - floor(top_n -
    mag_n), clamped to [MIN_DPS, dps], and errs by at most 10^-dps of the
    largest term of every sum, before its guard digits.  A zero c_n builds
    nothing.  Each c_n is shifted once to the lowest exp over n, and each
    sum is one C-level dot product of those with its column."""
    ns = [n for n, c in enumerate(coeffs, 1) if c]
    mags = [math.log10(abs(coeffs[n - 1])) + scale(n) for n in ns]
    terms = []
    for n, mag, top in zip(ns, mags, accumulate(mags, max)):
        # no margin above the share (tests/test_lfun.py::TestLevels): one
        # coefficient's moments stay within 0.499 ulp of the exact sum; 3
        # and 4 digits below it they reach 0.82 and 5 ulps
        d = dps - math.floor(top - mag)
        terms.append((coeffs[n - 1], vector(n, min(dps, max(MIN_DPS, d)))))
    if not terms:  # zeros, in the vector's shape
        terms = [(0, vector(1, MIN_DPS))]
    low = min(e for _, (e, _) in terms)
    cs = [c << e - low for c, (e, _) in terms]
    prec = dps_to_prec(dps)
    return tuple(
        from_man_exp(sum(map(operator.mul, cs, col)), low, prec, round_nearest)
        for col in zip(*(row for _, (_, row) in terms))
    )


# ---------------------------------------------------------------------------
# degree 2


def _deg2_tail_ok(k: int, M: int, dps: int) -> bool:
    # first omitted term ~ |a(M+1)| e^(-2 pi (M+1)) / (2 pi (M+1)); Deligne
    # bound |a(n)| <= d(n) n^((k-1)/2), folded constants generous
    log10_tail = 3 + ((k - 1) / 2 + 1) * math.log10(M + 2) + _deg2_scale(M + 1)
    return log10_tail < -(dps + 2)


@_memo
def _deg2_m(k: int, dps: int) -> int:
    """The fewest coefficients whose degree-2 sum _deg2_tail_ok accepts at
    dps digits: the one choice of M wherever the package picks it."""
    M = 1
    while not _deg2_tail_ok(k, M, dps):
        M += 1
    return M


_G_TOP = 19  # a = f + j for j = 0..19 covers k - 1 at weight 20


def _deg2_table(n: int, dps: int, f) -> tuple:
    """(G_a) for a = f + j, j = 0..19, at x = 2 pi n, G_a = x^-a Gamma(a, x),
    for a real f in (0, 1].  G_a = e H_a with e = e^-x / x and the
    all-positive recurrence H_(a+1) = a H_a / x + 1, from
    H_f = x e^x x^-f Gamma(f, x) (_legendre_seed, exactly 1 at f = 1).  x,
    pi and e come from libmp and the H_a are summed on integers, all at dps
    digits plus 20 bits, as the degree-4 node is built; the table is
    (exp, (G_f, ..., G_(f+19))), each G_a an unrounded mantissa at e's
    exponent exp."""
    wp = dps_to_prec(dps) + 20
    fm = _libmp(f, wp)
    sign, man, exp, _ = fm
    if sign or not man or mpf_lt(fone, fm):
        raise ValueError(f"f = {f} outside (0, 1]")
    x = mpf_mul(mpf_pi(wp), from_int(2 * n), wp)
    _, e, e_exp, _ = mpf_div(mpf_exp(mpf_neg(x), wp), x, wp)
    shift, d = _divisor(x)
    # a = f + j = (man + j 2^q) / 2^q exactly
    q = -exp
    one = 1 << wp
    # the seed to the full working precision, e^-B = 2^-wp
    H = [_legendre_seed(to_fixed(x, wp), to_fixed(fm, wp), wp, wp * _LN2)]
    for j in range(_G_TOP):
        H.append(((man + (j << q)) * H[-1] << shift) // (d << q) + one)
    # e H 2^(e_exp - wp), cut to e's exponent
    return e_exp, tuple([e * h >> wp for h in H])


def _deg2_scale(n: int) -> float:
    """log10 e^-x at x = 2 pi n: every entry of _deg2_table(n, .) falls in
    n at least as fast (G_a = x^-a Gamma(a, x) for a near 0 comes
    closest)."""
    return -2 * math.pi * n / _LN10


@_memo
def _deg2_moments(coeffs: tuple, f, dps: int) -> tuple:
    """(S_a)_a over the entries a = f + j of _deg2_table(., dps, f),
    S_a = sum_n c_n G_a(2 pi n), for f in (0, 1], f keyed as passed."""
    f = _libmp(f, dps_to_prec(dps))
    return _moments(coeffs, dps, lambda n, d: _deg2_table(n, d, f), _deg2_scale)


def _split(a) -> tuple:
    """(f, j) with a = f + j, 0 < f <= 1 and j an integer, for a libmp a > 0:
    the class of a in both smoothed sums, f exact."""
    j = to_int(a)  # the floor, as a > 0
    f = mpf_sub(a, from_int(j))  # exact
    if f == fzero:
        j, f = j - 1, fone
    return f, j


def _deg2_side(ctx, coeffs: tuple, a):
    """S_a over coeffs at ctx's precision, for an mpf a > 0."""
    f, j = _split(a._mpf_)
    return ctx.make_mpf(_deg2_moments(coeffs, f, ctx.dps)[j])


def l_degree2(form: QSeries, k: int, s, dps: int, M: int):
    """L(s, f) for a weight-k level-1 eigenform given by its q-expansion,
    via the incomplete-gamma smoothed sum over M coefficients, for real s
    in the critical strip 0 < s < k; any other s raises ValueError before
    any a(n) is read, and so does an M that _coefficients refuses."""
    _check_dps(dps)
    _check_real(s, "s")
    if k not in (12, 20):
        raise ValueError("supported weights are 12 and 20")
    s = context(dps + GUARD).convert(s)
    _side(2, k, s)
    coeffs = _coefficients(form.__getitem__, M, 2, k, dps)
    return _rounded(dps, _l_value((0,), k, (-1) ** (k // 2), coeffs, s._mpf_, dps + GUARD))


# ---------------------------------------------------------------------------
# degree 4

# a chain holds tau_m for m = mu + 2i, i = 0..8: every m < 17 (s < 20) of
# its class mu in (-1, 1]
_CHAIN_LEN = 9


class _Node(NamedTuple):
    """Per-n data of the degree-4 sum at a = (2 pi)^2 n, X = 2 sqrt(a):
    every field but X and ix2 is an integer F standing for F 2^exp,
    unrounded."""

    X: tuple  # libmp: the grid's X_n at 2^-wq, wq = dps + 15 digits plus 20 bits
    ix2: tuple  # 1 / X^2 = (r/2)^2, libmp, at 2^-wq
    exp: int
    c: int  # 2 / a^11
    g0: int  # c K_0(X) / X^2
    w: tuple  # w_j = a^-(j+1) (X/2)^-(10-j) K_(10-j)(X), j = 0..10
    tau: tuple  # the chain of mu = 1, tau_1, tau_3, ..., tau_17; tau_1 = c K_1(X) / X


def _chain(g0: int, g1: int, ix2: tuple, first: int, mu) -> tuple:
    """(tau_mu, tau_(mu+2), ..., tau_(mu+16)) from tau_mu = first by
    tau_m = tau_1 + (m-1) g0 + (m-1)^2 (r/2)^2 tau_(m-2), on a node's
    integers g0 and g1 = tau_1 at its exponent, for a libmp mu, m - 1 =
    b / 2^q exact, and (r/2)^2 = 1/X^2 = v 2^e the node's ix2: products and
    shifts, no division; the one chain rule of _deg4_node (mu = 1) and
    _seeded_chain.  Past the first, every tau is positive and at least
    tau_1."""
    sign, man, exp, _ = mu
    q = max(-exp, 0)
    b = ((-man if sign else man) << max(exp, 0)) - (1 << q)  # mu - 1
    _, v, e, _ = ix2  # e < 0, as 1/X^2 < 1
    chain = [first]
    for _ in range(_CHAIN_LEN - 1):
        b += 2 << q
        chain.append(g1 + (b * g0 >> q) + (b * b * v * chain[-1] >> 2 * q - e))
    return tuple(chain)


def _deg4_band(dps: int) -> int:
    """The first n whose X = 4 pi sqrt(n) lies past _k0_k1's series cut at
    dps digits: the nodes below it take K_0, K_1 from _band_chain."""
    return math.floor((_series_cut(dps) / (4 * math.pi)) ** 2) + 1


def _deg4_m(dps: int) -> int:
    """The fewest coefficients a degree-4 sum takes at dps digits: every node
    below the band, and at least 12; a floor, not a truncation bound."""
    return max(12, _deg4_band(dps) - 1)


def _k_step(pair: tuple, wp: int, shrink: int, c2: int, c_lam: int) -> tuple:
    """(K_0, K_1, exp) at X_n = lambda X_a from pair at X_a, 0 < lambda < 1,
    given shrink = 1 - lambda^2, c2 = c^2 and c_lam = c / lambda at 2^-wp,
    c = (1 - lambda^2) X_a / 2, by the multiplication theorem (DLMF 10.44.2),
    a sum of positive terms K_nu(X_n) = lambda^nu sum_k c^k K_(nu+k)(X_a) / k!.
    kappa_k = c^k K_k(X_a) / k! is the dominant solution of
    kappa_(k+1) = (k kappa_k (1 - lambda^2) + c^2 kappa_(k-1) / k) / (k+1),
    K's upward recurrence, so it runs forward on integers at 2^-wp until
    kappa_k is 0 (fixed-point c^k / k! times K_k instead left the pairs
    6e-19 off at dps = 40): K_0(X_n) = sum kappa_k, K_1(X_n) =
    (lambda / c) sum k kappa_k, cut back to wp bits of K_0."""
    k0, k1, exp = pair
    x, y = k0, k1 * math.isqrt(c2 << wp) >> wp  # kappa_0, kappa_1
    s0, s1, k = x, 0, 1
    while y:
        s0 += y
        s1 += k * y
        x, y = y, ((k * y * shrink >> wp) + (c2 * x >> wp) // k) // (k + 1)
        k += 1
    k1 = (s1 << wp) // c_lam
    shift = max(s0.bit_length() - wp, 0)
    return s0 >> shift, k1 >> shift, exp + shift


def _descent(xs: list, wp: int, dps: int) -> list:
    """(K_0, K_1, exp) at each X of xs, descending integers X 2^wp, the
    first past _k0_k1's series cut: the seed _k0_k1(X, dps) there, then one
    _k_step per X, 1 - lambda^2 = (X_a^2 - X_n^2) / X_a^2, c^2 and c / lambda
    from two consecutive X; the one descent of the band and the kernel check."""
    xa = xs[0]
    pairs = [_k0_k1(from_man_exp(xa, -wp), dps)[1:]]
    for xn in xs[1:]:
        p, q = (xa - xn) * (xa + xn), xa * xa  # 1 - lambda^2 = p / q
        pairs.append(_k_step(pairs[-1], wp, (p << wp) // q, p * p // (q << wp + 2), p // (2 * xn)))
        xa = xn
    return pairs


def _grid_x(n: int, wq: int) -> int:
    """X_n at 2^-wq, the one construction of the grid X_n = 4 pi sqrt(n):
    sqrt(n) 2^wq by one isqrt, times pi."""
    return math.isqrt(n << 2 * wq) * pi_fixed(wq) >> wq - 2


@_memo
def _band_chain(dps: int) -> tuple:
    """(K_0, K_1, exp) at X_n for n = _deg4_band(dps), ..., 1, so that the
    pair at X_n below the band is entry -n, a function of (n, dps) alone:
    one _descent down the grid from the band to X_1, at _pair_wp(dps),
    seeded at the band at dps; 179 pairs at dps = 130, cached per dps."""
    wp = _pair_wp(dps)
    return tuple(_descent([_grid_x(m, wp) for m in range(_deg4_band(dps), 0, -1)], wp, dps))


def _deg4_node(n: int, dps: int) -> _Node:
    """The s-independent data of F(s, (2 pi)^2 n): the weights w and the
    chain of mu = 1, in one integer pass from one K_0/K_1 pair at
    X = 4 pi sqrt(n) (_band_chain below the band, _k0_k1 past it), X
    taken as isqrt(n) times pi at the pair's bits, wq = _pair_wp(dps).  With
    r = 2/X, so that r^2 = 1/a, and y_nu = K_nu r^(22-nu), K's upward
    recurrence is the division-free

        y_(nu+1) = nu y_nu + a y_(nu-1),

    from y_0 = K_0 r^22 and y_1 = K_1 r^21, with r^22 = a^-11 from 1/a by
    squaring and r^21 = r^22 X/2; then

        w_j = y_(10-j) = K_(10-j) r^(12+j),  c = 2 r^22,
        g0 = c K_0 / X^2 = y_0 r^2 / 2,  tau_1 = c K_1 / X = y_1 r^2,

    cut to the node's exponent, where g0, the smallest, keeps dps digits
    plus 30 bits, and the chain of mu = 1 by _chain from (g0, tau_1, 1/X^2)
    before the node is made; nothing is rounded; cached per (n, dps)."""
    key = (n, dps)
    hit = _NODE_CACHE.get(key)
    if hit is not None:
        return hit
    wp, wq = dps_to_prec(dps) + 20, _pair_wp(dps)
    X = _grid_x(n, wq)
    in_band = n < _deg4_band(dps)
    k0, k1, exp = _band_chain(dps)[-n] if in_band else _k0_k1(from_man_exp(X, -wq), dps)[1:]
    a = X * X >> wq + 2
    la = a.bit_length() - wq  # a < 2^la
    # powers of r^2 = 1/a at 2^-L, r^22 with wq bits or more
    L = wq + 11 * la
    r2 = (1 << L + wq) // a
    r4 = r2 * r2 >> L
    r16 = (r4 * r4 >> L) ** 2 >> L
    r22 = (r16 * r4 >> L) * r2 >> L
    # y stands for y 2^(exp - L + t), y_0 with wp + la + 11 bits
    y0 = k0 * r22
    t = y0.bit_length() - wp - la - 11
    y = [y0 >> t, k1 * r22 * X >> t + wq + 1]
    for nu in range(1, 10):
        y.append(nu * y[nu] + (a * y[nu - 1] >> wq))
    shift = 1 - exp - t  # c = 2 r^22 at the node's exponent, up or down
    ix2 = from_man_exp(r2 >> 11 * la + 2, -wq)
    g0, tau1 = y[0] * r2 >> L + 1, y[1] * r2 >> L
    node = _NODE_CACHE[key] = _Node(
        from_man_exp(X, -wq),
        ix2,
        exp - L + t,
        r22 << shift if shift >= 0 else r22 >> -shift,
        g0,
        tuple(y[::-1]),
        _chain(g0, tau1, ix2, tau1, fone),
    )
    return node


def _seeded_chain(n: int, dps: int, node: _Node, mu) -> tuple:
    """The chain of a class mu in (-1, 1), tau_mu, ..., tau_(mu+16), from
    tau_mu = c X^-(mu+1) R_mu with X^-mu R_mu = _ki1(X, dps, mu) unrounded
    (Ki_1(X) at mu = 0, the half-integer s), on the node's integers; built
    on first use and cached per (n, mu, dps)."""
    key = (n, mu, dps)
    hit = _KI1_CACHE.get(key)
    if hit is not None:
        return hit
    # the seed = man 2^exp < 1 has more mantissa bits than X: exp + shift < 0
    _, man, exp, _ = _ki1(node.X, dps, mu)
    shift, d = _divisor(node.X)
    tau0 = (node.c * man >> -exp - shift) // d
    chain = _KI1_CACHE[key] = _chain(node.g0, node.tau[0], node.ix2, tau0, mu)
    return chain


def _falling(s, prec: int) -> tuple:
    """(p_0(s), ..., p_11(s)), p_j(s) = (s-1)(s-2)...(s-j) for a libmp s:
    the only s-dependent factors of the closed form, as libmp values, each
    difference and product rounded to prec bits as a context's own mpf
    operators round them."""
    p = [fone]
    for j in range(1, 12):
        d = mpf_sub(s, from_int(j), prec, round_nearest)
        p.append(mpf_mul(p[-1], d, prec, round_nearest))
    return tuple(p)


def _dot(ctx, p, v):
    """sum_j p_j v_j rounded once in ctx, for libmp values p_j and v_j: what
    ctx.fdot computes, without its conversion of every v_j."""
    terms = [mpf_mul(x, y) for x, y in zip(p, v)]
    return ctx.make_mpf(mpf_sum(terms, ctx.prec, round_nearest))


def _deg4_vector(n: int, dps: int, mu) -> tuple:
    """(exp, (w_0, ..., w_10, tau_mu, tau_(mu+2), ..., tau_(mu+16))) at n,
    mantissas at the node's exponent exp, for a libmp mu in (-1, 1]: the
    per-n data the moments of one class sum."""
    node = _deg4_node(n, dps)
    chain = node.tau if mu == fone else _seeded_chain(n, dps, node, mu)
    return node.exp, node.w + chain


def _deg4_scale(n: int) -> float:
    """log10 of sqrt(pi/2X) e^-X r^12 at X = 4 pi sqrt(n), r = 2/X, the
    leading term of K_nu(X) times the smallest power of r in the node:
    every field of the node falls in n at least as fast (w_0 = K_10 r^12
    comes closest; K_10 / K_0 falls in X)."""
    X = 4 * math.pi * math.sqrt(n)
    return (0.5 * math.log(math.pi / (2 * X)) - X + 12 * math.log(2 / X)) / _LN10


@_memo
def _deg4_moments(coeffs: tuple, mu, dps: int) -> tuple:
    """(W_0, ..., W_10, T_mu, T_(mu+2), ..., T_(mu+16)): the sums over n of
    _deg4_vector(n, ., mu) against coeffs, for mu in (-1, 1], mu keyed as
    passed; the nodes below the band are built at dps, from one descent."""
    mu = _libmp(mu, dps_to_prec(dps))
    band = _deg4_band(dps)
    vector = lambda n, d: _deg4_vector(n, dps if n < band else d, mu)
    return _moments(coeffs, dps, vector, _deg4_scale)


def _deg4_sum(ctx, coeffs: tuple, s):
    """sum_n A(n) F(s, (2 pi)^2 n) over coeffs = (A(1), ..., A(M)) at ctx's
    precision, for 11 < s < 20: with s = f + j (_split), m = 2s - 23 =
    mu + 2 (j - 11) for the class mu = 2f - 1 in (-1, 1], both exact, so the
    sum is one dot with the cached moments of mu's chain, T_m at entry j."""
    s = ctx.convert(s)
    f, j = _split(s._mpf_)
    v = _deg4_moments(coeffs, mpf_sub(mpf_shift(f, 1), fone), ctx.dps)
    return 2 * _dot(ctx, _falling(s._mpf_, ctx.prec), (*v[:11], v[j]))


def l_rankin4(coeffs: QSeries, s: int, dps: int, M: int):
    """L(s, Delta x g20) for s in 12..19 via the smoothed Bessel-kernel sum
    over A(1..M), read from coeffs (rankin_coeffs' series) as one slice,
    M >= _deg4_m(dps), else ValueError; at s = 12 the error reaches 10^-30
    near M = 80 and 10^-60 near M = 230."""
    _check_dps(dps)
    if s not in range(12, 20):
        raise ValueError("s must be an integer in 12..19")
    c = _coefficients(coeffs.__getitem__, M, 4, 31, dps)
    return _rounded(dps, _l_value((0, -11), 31, +1, c, from_int(int(s)), dps + GUARD))


# the kernel check's trapezoid error falls like C e^(-c/h) in its step
# h = _KERNEL_RATE / B: fitted at s0 = 19, the slowest point, over
# 1/h = 13..34 at D = 100, c = 8.7 and C = 3e18 to within a digit.  The
# gate's e^(-B/2) assumes c = _KERNEL_RATE; a rate below c makes it an
# overestimate, and 7.5 leaves the gate of 10^-(D+18) 3.5 digits or more
# at D = 15..150 (8.0 leaves 0.98 at D = 60)
_KERNEL_RATE, _KERNEL_GATE = 7.5, 18


def _kernel_pairs(xs: list, dps: int) -> list:
    """(K_0, K_1, exp) at each X of xs, ascending libmp values that reach
    past _k0_k1's series cut at dps digits: _k0_k1's asymptotic pair past
    the cut, one _descent down xs from the cut to X = 1, and _k0_k1's
    series below X = 1, where consecutive lambda^2 fall fast and c
    underflows.  The descent runs at _pair_wp(dps), which holds each X
    exactly, seeded at the first X past the cut at dps + 5 digits (a seed
    at dps leaves the kernel errors off 0 at D = 20 and 28)."""
    cut = _series_cut(dps)
    floats = [to_float(x) for x in xs]
    low, top = bisect_left(floats, 1.0), bisect_right(floats, cut)
    pairs = [_k0_k1(x, dps)[1:] if i < low or i >= top else None for i, x in enumerate(xs)]
    wq = _pair_wp(dps)
    descent = _descent([to_fixed(x, wq) for x in reversed(xs[low:top + 1])], wq, dps + 5)
    pairs[low:top] = descent[:0:-1]  # all but the seed, ascending
    return pairs


@_memo
def _kernel_errors(dps: int) -> tuple:
    ctx = context(dps + 20)
    wp = ctx.prec + 20
    B, L = (dps + 33) * math.log(10), (dps + 8) * math.log(10)
    h, v_hi = _KERNEL_RATE / B, L / 2
    for _ in range(20):  # the cut: v^27 e^(-2v) = 10^-(dps+8)
        v_hi = (L + 27 * math.log(v_hi)) / 2
    v0, step = ctx.mpf("2e-6"), from_float(h)
    k = k0 = math.floor(-math.log(B) / h)
    # e^-t at 2^-ew, stepped by one multiply per node
    ew = wp + 20
    em = to_fixed(mpf_exp(mpf_neg(mpf_mul(from_int(k), step)), ew), ew)
    decay = to_fixed(mpf_exp(mpf_neg(step), ew), ew)
    nodes = []  # (E (1 + e^-t), v) per node
    while True:
        e = from_man_exp(em, -ew)
        E = mpf_exp(mpf_sub(mpf_mul(from_int(k), step), e, wp), wp)
        v = mpf_add(v0._mpf_, E, wp)
        if to_float(v) > v_hi:
            break
        nodes.append((mpf_mul(E, mpf_add(fone, e, wp), wp), v))
        em = em * decay >> ew
        k += 1
    xs = [mpf_shift(v, 1) for _, v in nodes]
    parts = [[0] * 7, [0] * 7]  # the sums over even and odd k
    for k, (dv, v), x, (K0, K1, exp) in zip(range(k0, k), nodes, xs, _kernel_pairs(xs, dps + 12)):
        K = from_man_exp(_k_up(x, [K0, K1], 11)[11], exp)
        g = mpf_mul(dv, mpf_mul(mpf_pow_int(v, 14, wp), K), wp)
        G, V2 = to_fixed(g, wp), to_fixed(mpf_mul(v, v), wp)
        for i in range(7):
            parts[k % 2][i] += G
            G = G * V2 >> wp
    scale = mpf_shift(step, 2)  # 4 h
    errors = []
    for s0, even, odd in zip(range(13, 20), *parts):
        # step 2h is off by ~|odd - even| h; step h, by e^(-c/2h) = e^(-B/2) times that
        pred = math.log(abs(odd - even) or 1) - math.log(odd + even) - B / 2
        if pred > -(dps + _KERNEL_GATE) * math.log(10):
            raise QuadratureError(f"kernel node set too coarse at s0 = {s0}, D = {dps}")
        head = 2 * ctx.fsum(
            (-1) ** j * ctx.factorial(10 - j) / ctx.factorial(j) * v0 ** (2 * s0 - 22 + 2 * j)
            / (2 * s0 - 22 + 2 * j)
            for j in range(11)
        )
        quad = ctx.make_mpf(mpf_mul(scale, from_man_exp(even + odd, -wp), ctx.prec, round_nearest))
        ref = ctx.gamma(s0) * ctx.gamma(s0 - 11)
        errors.append(round_to(dps, abs(head + quad - ref) / ref))
    return tuple(errors)


def kernel_mellin_check(s0: int, dps: int):
    """Relative error, compared at D + 20 digits, of the quadrature of
    int_0^inf phi(t) t^(s0-1) dt = Gamma(s0) Gamma(s0-11), the identity that
    certifies the degree-4 kernel, for an integer s0 in 13..19 (any other
    s0 raises ValueError).

    In v = sqrt(t) the integrand is 4 v^(2 s0 - 12) K_11(2v).  Below
    v0 = 2e-6 the finite part of K_11's small-argument series integrates to
    2 sum_(k=0..10) (-1)^k (10-k)!/k! v0^e / e, e = 2 s0 - 22 + 2k, with a
    remainder O(v0^(2 s0 - 1) log v0).  Above it, v = v0 + E with
    E = exp(t - e^-t) makes the integrand fall double exponentially as
    t -> -inf, with dv/dt = E (1 + e^-t); its trapezoid sum at t = k h,
    h = _KERNEL_RATE / B, B = (D + 33) ln 10, runs from t = -log B, where
    v - v0 is ~e^-B / B, to the cut v^27 e^(-2v) < 10^-(D+8) of s0 = 19:
    188 nodes at D = 30, 297 at D = 60, with e^-t stepped by one multiply
    per node.  K_11(2v) comes by K's upward recurrence from a K_0/K_1 pair
    at D + 12 digits per node, taken from the top down (_kernel_pairs):
    the asymptotic pair past the series cut, one descent down the node set
    from the cut to X = 2v = 1, the series below X = 1.  The seven sums of
    v^14 (v^2)^(s0 - 13) K_11 run on integers at one scale, each rounded
    once.  The even nodes give the sum at step 2h; by the error model
    C e^(-c/h) their difference from the full sum, times e^(-c/2h), here
    e^(-B/2) (c taken as _KERNEL_RATE, below the fitted c), predicts the
    error at h, and a prediction above 10^-(D+18) at any s0 raises
    QuadratureError.  The seven errors are cached per D."""
    _check_dps(dps)
    if s0 not in range(13, 20):
        raise ValueError("check points are the integers s0 = 13..19")
    return _kernel_errors(dps)[int(s0) - 13]


# ---------------------------------------------------------------------------
# the coefficient gate, Lambda, the functional equation residual, norms


def _check_m(M: int, degree: int, w: int, dps: int) -> None:
    """The one M rule, reading no a(n): ValueError naming the floor unless
    operator.index(M) >= _deg2_m(w, dps) at degree 2, _deg4_m(dps) at 4, else 1."""
    need = _deg2_m(w, dps) if degree == 2 else _deg4_m(dps) if degree == 4 else 1
    try:
        why = "too small" if operator.index(M) < need else None
    except TypeError:
        why = "not an int"
    if why:
        raise ValueError(f"M={M!r} {why} at {dps} digits for degree {degree}, weight {w}: "
                         f"need M >= {need}")


def _coefficients(a: Callable[[int], int], M: int, degree: int, w: int, dps: int) -> tuple:
    """(a(1), ..., a(M)) through the accessor a, the one reader of every
    entry point, once _check_m accepts M; ValueError also for an a(n)
    beyond the accessor (IndexError) or one that is not an int.  A
    QSeries' own __getitem__ is read as one slice of its tuple, which holds
    precision + 1 entries, for M up to its precision; any other accessor,
    or a larger M, is mapped."""
    _check_m(M, degree, w, dps)
    if getattr(a, "__func__", None) is QSeries.__getitem__ and M <= a.__self__.precision:
        c = a.__self__.coeffs[1:M + 1]
    else:
        try:
            c = tuple(map(a, range(1, M + 1)))
        except IndexError as err:
            raise ValueError(f"M={M} beyond the coefficients: {err}") from None
    if set(map(type, c)) != {int}:
        raise ValueError(f"coefficients must be int, got {sorted({type(x).__name__ for x in c})}")
    return c


def _side(degree: int, w: int, s):
    """The side(ctx, coeffs, a) of Lambda at this degree and weight w for an
    mpf s in its domain, _deg2_side for 0 < s < w <= 20, _deg4_sum for
    11 < s < 20 at w = 31, else ValueError: the one domain check, made by
    _lambda and by every entry point before it reads any a(n)."""
    if degree == 2:
        if not 0 < s < w <= _G_TOP + 1:
            raise ValueError(f"need 0 < s < k <= {_G_TOP + 1}, got s = {s}, k = {w}")
        return _deg2_side
    if degree == 4:
        if w != 31 or not 11 < s < 20:
            raise ValueError(f"need 11 < s < 20 at weight 31, got s = {s}, w = {w}")
        return _deg4_sum
    raise ValueError("only the degree-2 and degree-4 shapes are supported")


def _sides(ctx, degree: int, w: int, coeffs: tuple, s) -> tuple:
    """(side(s), side(w - s)) over coeffs = (a(1), ..., a(M)) at ctx's
    precision, w - s exact: side(a) (_side) is S_a at degree 2 and
    sum_n A(n) F(a, (2 pi)^2 n) at degree 4."""
    s = ctx.convert(s)
    side, r = _side(degree, w, s), ctx.make_mpf(mpf_sub(from_int(w), s._mpf_))
    return side(ctx, coeffs, s), side(ctx, coeffs, r)


def _lambda(ctx, degree: int, w: int, sign: int, coeffs: tuple, s):
    """Lambda(s) = side(s) + eps side(w - s) (_sides)."""
    left, right = _sides(ctx, degree, w, coeffs, s)
    return left + sign * right


@_memo
def _l_value(shifts: tuple, w: int, sign: int, coeffs: tuple, s, dps: int):
    """L(s) = Lambda(s) prod_c (2 pi)^s / Gamma(s + c) in context(dps), a
    libmp value, for a libmp s, over the Gamma_C shifts c ((0,) for Delta
    and g20, (0, -11) for Delta x g20): the one L-value of every entry point."""
    ctx = context(dps)
    s = ctx.make_mpf(s)
    lam = _lambda(ctx, 2 * len(shifts), w, sign, coeffs, s)
    gammas = ctx.fprod(ctx.gamma(s + c) for c in shifts)
    return (lam * (2 * ctx.pi) ** (len(shifts) * s) / gammas)._mpf_


def functional_eq_residual(
    spec: LFunctionSpec,
    coeffs: Optional[Callable[[int], int]],
    t,
    dps: int,
    M: int,
):
    """|Lambda(t) - eps Lambda(w - t)| with both sides evaluated by the
    smoothed sum, for t in the evaluator's domain (_side: 0 < t < k at
    degree 2, 11 < t < 20 at degree 4); any other t, degree or weight raises
    ValueError before any a(n) is read, and so does an M that _coefficients
    refuses, as in l_degree2 and l_rankin4: M must be at least
    _deg2_m(w, dps) at degree 2 and _deg4_m(dps) at degree 4, and a(1..M),
    from coeffs or else the spec's accessor, must all be ints.

    This is not an accuracy certificate.  Both Lambdas split the sum at the
    symmetric point and w - t is taken exactly, so Lambda(w - t) adds the
    two sides of Lambda(t), each summed once, in swapped order: the result
    is exactly 0 at every t.  A certificate would move the split point, the
    free parameter of the smoothed functional equation, and compare."""
    _check_dps(dps)
    _check_real(t, "t")
    w, sign = spec.weight, spec.sign
    ctx = context(dps + GUARD)
    t = ctx.convert(t)
    _side(spec.degree, w, t)
    c = _coefficients(spec.coefficients if coeffs is None else coeffs, M, spec.degree, w, dps)
    a, b = _sides(ctx, spec.degree, w, c, t)  # Lambda(t) = a + eps b, Lambda(w - t) = b + eps a
    return round_to(dps, abs(a + sign * b - sign * (b + sign * a)))


_VALID_NORM_ARGS = {(12, 4), (20, 4), (20, 6), (20, 8)}


@_memo
def _norm(k: int, r: int, dps: int):
    """<f_k, f_k> by Rankin's formula (petersson_norm), a libmp value in
    context(dps + GUARD) and unrounded beyond it."""
    ctx = context(dps + GUARD)
    M, l = _deg2_m(k, dps), k - r
    alpha = {j: -Fraction(2 * j) / bernoulli(j) for j in (r, l, k)}
    ratio = alpha[r] / (alpha[l] + alpha[r] - alpha[k])
    coeffs = _coefficients((delta_qexp if k == 12 else g20_qexp)(M).__getitem__, M, 2, k, dps)
    L1, L2 = (ctx.make_mpf(_l_value((0,), k, (-1) ** (k // 2), coeffs, from_int(s), ctx.dps))
              for s in (k - 1, l))
    value = (4 * ctx.pi) ** (1 - k) * ctx.factorial(k - 2) / render_exact(ctx, _zeta_rational(l), l)
    return (value * render_exact(ctx, ratio, 0) * L1 * L2)._mpf_


def petersson_norm(k: int, r: int, dps: int) -> PeterssonNorm:
    """<f_k, f_k> by Rankin's formula

        (4 pi)^(1-k) (k-2)!/zeta(l) * a_r/(a_l + a_r - a_k) * L(k-1, f_k) L(l, f_k)

    with l = k - r, a_j = -2j/B_j the first Eisenstein coefficient, the
    Eisenstein data exact, zeta(l) rendered from its exact pi-power form,
    and both L-values from the degree-2 evaluator over _deg2_m(k, dps)
    coefficients, all at dps + GUARD digits and rounded once."""
    _check_dps(dps)
    try:
        k, r = operator.index(k), operator.index(r)
        ok = (k, r) in _VALID_NORM_ARGS
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"unsupported (k, r) = ({k}, {r})")
    return PeterssonNorm(k, _rounded(dps, _norm(k, r, dps)), k - r)
