"""Special functions for the L-evaluators: the upper incomplete gamma
Gamma(s, x), the modified Bessel function K_nu at integer order, the
Bickley function Ki_1 and its fractional moments
x^-mu int_x^inf t^mu K_0(t) dt, and the seed x^(1-a) e^x Gamma(a, x) for
0 < a < 2 (Legendre's continued fraction, one upward step above a = 1).
The evaluators take K_nu, the moments and the seed from here; Gamma(s, x),
mpmath's gammainc at D + GUARD digits for every s, is public and serves
the tests as the oracle of the evaluators' own degree-2 table.

K_nu is summed in fixed point: Python integers scaled by a power of two,
with the working precision plus 20 guard bits (wp), so each term of a
series costs a few integer multiplies, shifts and floor divisions instead
of several normalised mpf operations, and each result is rounded once,
into the value context.  Below the cut x = 1.2 (D + 10) (_series_cut) K_0
and K_1 come from their power series at 2^-wp, with 0.87 x + 15 guard
digits in the working precision (and so in wp) absorbing the e^(2x)
cancellation; log(x/2) and Euler's gamma enter once each as fixed-point
numbers, the latter taken at a multiple of 256 bits above every working
precision of the series branch at D and shifted down, so that mpmath
computes it once for a run of nodes at D digits or fewer.  The series
serves bessel_k, and the kernel check's nodes below x = 1; the degree-4
nodes below the cut, and the kernel check's from x = 1 up to it, descend
from past it by one multiplication-theorem loop (evaluators._descent).  Above
it both come from one loop over the asymptotic expansion
sqrt(pi/2x) e^(-x) sum_k a_k(nu) / x^k, stopped once its terms fall below
10^-(D+8), with one reciprocal 1/(8x) and no division per term, times
e^-x from libmp and sqrt(pi/2x) from one isqrt; there the pair shares
e^-x's exponent, and every pair past the cut comes from it.
Either way K_0 and K_1 are two integer mantissas at one exponent, and
the upward recurrence K_(nu+1) = K_(nu-1) + (2 nu / x) K_nu, stable for
K, runs on them: x is taken losslessly as a libmp value m 2^e, so each
division by x is exact but for its floor.  No mpmath context is made
per series precision, and x may be passed as a libmp value.  The tests
check the core against the integral representation
int_0^inf e^(-x cosh t) cosh(nu t) dt, against mpmath's besselk, and
against itself at 15 more digits.

Ki_1 and its fractional moments of order mu in (-1, 1) have two
branches, both on integers at 2^-wp, with no mpmath context, and one
rounding after.  At large x, x + mu ln x > (D + 10) ln 10, K_0's
asymptotic expansion integrates term by term into
sqrt(pi/2x) e^-x sum_k u_k, with the prefactor code of K itself and one
integer step per term; the smallest u_k is ~x^-mu e^-x, below the
result's last digit past that cut.  Below it, Ki_1 is a trapezoid sum
over the real line whose step follows from the integrand's strip of
analyticity, so its error is set by the precision alone.  The step is a
float, exact as a libmp value, math.isqrt takes the square root in each
term, and the prefactor e^-x h / sqrt(x) comes from libmp at wp.  The
moment of order mu is the same sum with one more factor per node,
z^-mu e^z Gamma(mu+1, z) at z = x + r^2, from the seed on the same
integers, its continued fraction run only as deep as the node's weight
e^-r^2 needs.
The tests check both branches against int_x^inf (t/x)^mu K_0 and against
each other above the cut.
"""

from __future__ import annotations

import math

from mpmath.libmp import (
    dps_to_prec,
    euler_fixed,
    fone,
    from_float,
    from_int,
    from_man_exp,
    from_str,
    fzero,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_shift,
    mpf_sqrt,
    pi_fixed,
    round_nearest,
    to_fixed,
    to_float,
)

from .bigfloat import GUARD, _check_dps, _check_real, _rounded, context, round_to

__all__ = [
    "incomplete_gamma_int",
    "gamma_upper",
    "bessel_k",
    "bickley_ki1",
]

BESSEL_X_MIN = 1e-6
BESSEL_X_MAX = 1e4
BESSEL_NU_MAX = 20


def incomplete_gamma_int(s: int, x, dps: int):
    """Upper incomplete Gamma(s, x) for integer s >= 1 and x > 0: gamma_upper
    after its own check that s is a positive integer."""
    _check_dps(dps)
    _check_real(s, "s")
    if s < 1 or s != int(s):
        raise ValueError("s must be a positive integer")
    return gamma_upper(s, x, dps)


def gamma_upper(s, x, dps: int):
    """Upper incomplete Gamma(s, x) for x > 0 and s a positive integer or
    any non-integer real: mpmath's gammainc at dps + GUARD digits, the
    finite sum (s-1)! e^(-x) sum_{k<s} x^k / k! at integer s.  The
    evaluators do not call it; it is the tests' oracle for their degree-2
    table.  Integer s <= 0 raises: there gammainc takes an integer path
    that loses up to ~15 of the asked-for digits near x = 100."""
    _check_dps(dps)
    _check_real(s, "s")
    _check_real(x, "x")
    if s < 1 and s == int(s):
        raise ValueError("s must be a positive integer")
    ctx = context(dps + GUARD)
    x = ctx.convert(x)
    if not x > 0:
        raise ValueError("x must be positive")
    return round_to(dps, ctx.gammainc(ctx.convert(s), x, ctx.inf))


def _divisor(x):
    """(shift, d) with v / x = (v << shift) / d exactly, for an integer v and
    a positive libmp value x = m 2^e."""
    _, man, exp, _ = x
    return max(-exp, 0), man << max(exp, 0)


def _k0_k1_series(x, wp: int, gamma: int):
    """K_0, K_1 from their power series as mantissas at 2^-wp, given Euler's
    gamma at 2^-wp; the caller's wp carries the guard bits against the
    e^(2x) cancellation.  With
    t_k = q^k / (k! (k+1)!), q = x^2/4, H_k = 1 + 1/2 + ... + 1/k and
    c = log(x/2) + gamma:

        K_0 = sum_k (k+1) t_k (H_k - c),
        K_1 = 1/x + (x/2) sum_k t_k (c - H_k - 1/(2(k+1)))."""
    one = 1 << wp
    xf = to_fixed(x, wp)
    q = xf * xf >> (wp + 2)
    c = to_fixed(mpf_log(mpf_shift(x, -1), wp), wp) + gamma
    t, h, k = one, 0, 0
    s0 = s1 = 0
    while t:
        d = (h - c) * t >> wp
        s0 += (k + 1) * d
        s1 -= d + t // (2 * k + 2)
        k += 1
        t = (t * q >> wp) // (k * (k + 1))
        h += one // k
    return s0, (one << wp) // xf + (xf * s1 >> (wp + 1)), -wp


def _k0_k1_asymptotic(x, wp: int, dps: int) -> tuple:
    """K_0, K_1 at a libmp x from the large-x expansion sqrt(pi/2x) e^(-x)
    sum t_k(nu), t_k = t_(k-1) (4 nu^2 - (2k-1)^2) / (8kx) (DLMF 10.40.2):
    both sums in one loop at 2^-wp, each step (c t r >> wp) // k with one
    reciprocal r = 1/(8x) per call, times _asymptotic_prefactor's man 2^exp
    as two mantissas at exp.  |t_k(1)| > |t_k(0)| for k >= 1, so the loop
    stops once the K_1 terms fall below 10^-(dps+8); if either series stops
    decreasing first, the expansion cannot deliver: ArithmeticError."""
    eps = (1 << wp) // 10 ** (dps + 8)
    r = (1 << 2 * wp) // (8 * to_fixed(x, wp))
    t0 = t1 = acc0 = acc1 = 1 << wp
    k = 1
    while abs(t1) >= eps:
        odd = (2 * k - 1) ** 2
        n0, n1 = (-odd * t0 * r >> wp) // k, ((4 - odd) * t1 * r >> wp) // k
        if abs(n0) >= abs(t0) or abs(n1) >= abs(t1):
            raise ArithmeticError("asymptotic series bottomed out early")
        t0, t1 = n0, n1
        acc0 += t0
        acc1 += t1
        k += 1
    man, exp = _asymptotic_prefactor(x, wp)
    return man * acc0 >> wp, man * acc1 >> wp, exp


def _asymptotic_prefactor(x, wp: int):
    """sqrt(pi/2x) e^-x for a libmp x as (mantissa, exponent): e^-x from
    libmp at wp bits times sqrt(pi/2x) at 2^-wp from one isqrt, the
    prefactor of the large-x expansions of K_nu and of _ki1."""
    _, e, exp, _ = mpf_exp(mpf_neg(x), wp)
    root = math.isqrt((pi_fixed(wp) << 2 * wp) // (2 * to_fixed(x, wp)))
    return e * root >> wp, exp


def _libmp(x, prec: int):
    """x as a libmp value, as a context of precision prec converts it:
    exactly from a libmp value, an mpf, int or float, rounded to prec from
    a string or a fraction."""
    if isinstance(x, tuple):
        return x
    if hasattr(x, "_mpf_"):
        return x._mpf_
    if isinstance(x, int):
        return from_int(x)
    if isinstance(x, float):
        return from_float(x)
    return from_str(str(x), prec, round_nearest)


# Euler's gamma is taken at a multiple of this many bits and shifted down
_EULER_STEP = 256
_LN2, _LN10 = math.log(2), math.log(10)


def _series_cut(dps: int) -> float:
    """The x up to which _k0_k1 sums the power series at dps digits."""
    return 1.2 * (dps + 10)


def _series_wp(x: float, dps: int) -> int:
    # the series' guard digits absorb its e^(2x) cancellation
    return dps_to_prec(dps + int(0.87 * x) + 15) + 20


def _pair_wp(dps: int) -> int:
    """The bits of _k0_k1's asymptotic branch at dps digits, D + 15 digits
    plus 20 bits: a descent that _k0_k1 seeds past the cut builds its X at
    these bits, so that the seed reads X exactly."""
    return dps_to_prec(dps + 15) + 20


def _k0_k1(x, dps: int):
    """(x, K_0, K_1, exp): x (an mpf, a libmp value, a number or a string)
    as a libmp value and K_0(x), K_1(x) unrounded, as integer mantissas of
    K 2^exp, summed at the working precision (D + 15 digits, or D + 0.87 x
    + 15 on the series branch, x < 1.2 (D + 10)) plus 20 bits, exact at a
    libmp x of no more fraction bits.  The series takes Euler's gamma at
    the multiple of _EULER_STEP bits above its largest working precision at
    D: mpmath's memo would compute it anew each time a larger x asked for
    5% more bits."""
    xf = to_float(x) if isinstance(x, tuple) else float(x)
    if not BESSEL_X_MIN < xf < BESSEL_X_MAX:
        domain = (BESSEL_X_MIN, BESSEL_X_MAX)
        raise OverflowError(f"argument {xf} outside the supported domain {domain}")
    cut = _series_cut(dps)
    if xf > cut:
        wp = _pair_wp(dps)
        xm = _libmp(x, wp - 20)
        return (xm, *_k0_k1_asymptotic(xm, wp, dps))
    wp = _series_wp(xf, dps)
    xm = _libmp(x, wp - 20)
    rung = -(-_series_wp(cut, dps) // _EULER_STEP) * _EULER_STEP
    return (xm, *_k0_k1_series(xm, wp, euler_fixed(rung) >> rung - wp))


def _k_up(x, K: list, nu: int) -> list:
    """[K_0, ..., K_nu] from K = [K_0, K_1], mantissas at one shared
    exponent, by K_(j+1) = K_(j-1) + (2j / x) K_j on integers."""
    shift, d = _divisor(x)
    for j in range(1, nu):
        K.append(K[j - 1] + (2 * j * K[j] << shift) // d)
    return K


def bessel_k(nu: int, x, dps: int):
    """Modified Bessel function K_nu(x) to dps digits, integer 0 <= nu <= 20,
    x inside (1e-6, 1e4): a real number, or a decimal string or a libmp
    value, which _k0_k1 reads exactly at its working precision."""
    _check_dps(dps)
    _check_real(nu, "nu")
    if not isinstance(x, (str, tuple)):
        _check_real(x, "x")
    if not 0 <= nu <= BESSEL_NU_MAX or nu != int(nu):
        raise ValueError(f"order must be an integer in 0..{BESSEL_NU_MAX}")
    nu = int(nu)
    xm, k0, k1, exp = _k0_k1(x, dps)
    return _rounded(dps, from_man_exp(_k_up(xm, [k0, k1], nu)[nu], exp))


def bickley_ki1(x, dps: int):
    """Bickley function Ki_1(x) = int_x^inf K_0(t) dt, for x >= 1.

    Putting cosh u = 1 + r^2/x in int_0^inf e^(-x cosh u) / cosh u du gives

        Ki_1(x) = e^-x x^(-1/2) int_R e^(-r^2) / ((1 + r^2/x) sqrt(2 + r^2/x)) dr,

    an integrand analytic in |Im r| < sqrt(x).  Its trapezoid sum with step
    h = 2 pi sqrt(x) / (x + B), cut where e^(-r^2) < e^-B, is off by about
    e^-B, and B is set from the working digits: the error is below the
    result's last digit by construction, at any x.  The sum runs on
    integers at 2^-wp, the working precision plus 20 bits.  Above
    x = (dps + 10) ln 10 the large-x expansion

        Ki_1(x) = sqrt(pi/2x) e^-x (1 - 5/(8x) + 129/(128 x^2) - ...)

    takes over: its smallest term, ~e^-x, is below the last digit there.
    With one more factor per node, or per term, the same two branches give
    x^-mu int_x^inf t^mu K_0(t) dt, the seeds of the degree-4 chains
    (_ki1)."""
    _check_dps(dps)
    _check_real(x, "x")
    return _rounded(dps, _ki1(x, dps))


def _legendre_seed(X: int, F: int, wp: int, B: float) -> int:
    """H_a = x^(1-a) e^x Gamma(a, x) at 2^-wp to within e^-B of itself, for
    X = x > 0 and F = a at 2^-wp with 0 < a < 2: exactly 1 at a = 1, one
    upward step H_a = (a-1) H_(a-1) / x + 1 above it, and below it
    Legendre's continued fraction

        x^-a e^x Gamma(a, x) = 1/(x+1-a - 1(1-a)/(x+3-a - 2(2-a)/(x+5-a - ...))),

    run backward on integers from depth N.  Its truncation error after N
    terms falls like e^(-4 sqrt(N x)), so N = (B/4)^2 / x + B/4 + 10 puts
    it below e^-B; B = wp ln 2 gives the full working precision."""
    one = 1 << wp
    if F >= one:
        return one if F == one else (F - one) * _legendre_seed(X, F - one, wp, B) // X + one
    N = int((B / 4) ** 2 / (X / one) + B / 4) + 10
    T = X + (2 * N + 1) * one - F
    for i in range(N, 0, -1):
        T = X + (2 * i - 1) * one - F - (i * (i * one - F) << wp) // T
    return (X << wp) // T


def _ki1(x, dps: int, mu=fzero):
    """x^-mu int_x^inf t^mu K_0(t) dt for a libmp mu in (-1, 1), an exact
    libmp product not yet rounded; at mu = 0 this is Ki_1(x), summed as
    bickley_ki1 sums it; x an mpf, a libmp value, a number or a string.
    Past the cut x + mu ln x = (dps + 10) ln 10 it comes from the large-x
    expansion (_ki1_asymptotic), below it from the trapezoid sum
    (_ki1_trapezoid), both on integers at 2^-wp, dps + 10 digits plus 20
    bits."""
    wp = dps_to_prec(dps + 10) + 20
    x = _libmp(x, wp - 20)
    if mpf_lt(x, fone):
        raise ValueError("Ki_1 implemented for x >= 1 only")
    # the expansion's smallest term is ~ x^-mu e^-x
    xf = to_float(x)
    if xf + to_float(mu) * math.log(xf) > (dps + 10) * _LN10:
        return _ki1_asymptotic(x, wp, dps, mu)
    return _ki1_trapezoid(x, wp, dps, mu)


def _ki1_asymptotic(x, wp: int, dps: int, mu):
    """x^-mu int_x^inf t^mu K_0(t) dt = sqrt(pi/2x) e^-x sum_k u_k for a
    libmp x and mu: with t_k the terms of K_0's expansion (those of
    _k0_k1_asymptotic), differentiating gives u_0 = 1 and
    u_k = t_k - (k - 1/2 - mu) u_(k-1) / x.  The u_k fall until k nears x,
    where the smallest is ~x^-mu e^-x.  Each u_k is a polynomial in mu and
    can vanish early (u_1 = (mu - 5/8)/x), so the loop stops only once t_k
    and u_k are both below 10^-(dps+8): the t_k fall faster, so the later
    u_k stay small.  It raises ArithmeticError if the factor
    (k - 1/2 - mu)/x reaches 1 first."""
    eps = (1 << wp) // 10 ** (dps + 8)
    xf = to_fixed(x, wp)
    half_mu = (1 << wp - 1) + to_fixed(mu, wp)  # 1/2 + mu
    t = u = acc = 1 << wp
    k = 1
    while abs(t) >= eps or abs(u) >= eps:
        if (k << wp) - half_mu >= xf:
            raise ArithmeticError("asymptotic series bottomed out early")
        t = (-((2 * k - 1) ** 2) * t << wp) // (8 * k * xf)
        u = t - ((k << wp) - half_mu) * u // xf
        acc += u
        k += 1
    man, exp = _asymptotic_prefactor(x, wp)
    return from_man_exp(man * acc, exp - wp)


def _ki1_trapezoid(x, wp: int, dps: int, mu):
    """x^-mu int_x^inf t^mu K_0(t) dt as bickley_ki1's trapezoid sum, for a
    libmp x >= 1 and mu, on integers at 2^-wp.

    In t = x cosh u the integral is int_0^inf (cosh u)^(-mu-1)
    Gamma(mu+1, x cosh u) du, so the sum over r gains the factor
    z^-mu e^z Gamma(mu+1, z) = _legendre_seed(z, mu+1) at z = x + r^2,
    analytic in the same strip.  Node k weighs e^-(k h)^2, so its continued
    fraction needs only to come within e^((k h)^2) 2^-wp of the factor."""
    xf, B = to_float(x), (dps + 16) * _LN10
    # any step up to the strip's bound will do, so a float one, exact in libmp
    step = 2 * math.pi * math.sqrt(xf) / (xf + B)
    h = from_float(step)
    one = 1 << wp
    hf, X = to_fixed(h, wp), to_fixed(x, wp)
    F, full = to_fixed(mu, wp) + one, wp * _LN2
    # g = e^(-(k h)^2) by g_k = g_(k-1) q_k, q_k = e^(-h^2 (2k - 1))
    h2 = mpf_neg(mpf_mul(h, h))
    q, q_step = (to_fixed(mpf_exp(mpf_shift(h2, c), wp), wp) for c in (0, 1))
    g = one
    total = ((one << wp) // math.isqrt(2 << 2 * wp)) * _legendre_seed(X, F, wp, full) >> wp
    for k in range(1, int(math.sqrt(B) / step) + 2):
        g = g * q >> wp
        q = q * q_step >> wp
        r2 = (k * hf) ** 2
        y = r2 // X
        root = math.isqrt(one + one + y << wp)
        f = g * _legendre_seed(X + (r2 >> wp), F, wp, max(full - (k * step) ** 2, 0)) >> wp
        total += (f << 2 * wp + 1) // ((one + y) * root)
    pre = mpf_div(mpf_mul(mpf_exp(mpf_neg(x), wp), h), mpf_sqrt(x, wp), wp)
    return mpf_mul(pre, from_man_exp(total, -wp))
