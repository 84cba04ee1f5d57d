"""Special functions for the L-evaluators: incomplete gamma at integer (and
real) first argument, the modified Bessel function K_nu at integer order,
and the Bickley function Ki_1.

K_nu starts from K_0 and K_1, computed together in fixed point: Python
integers scaled by 2^wp, where wp is the working precision plus 20
guard bits, so each term of a series costs a few integer
multiplies, shifts and floor divisions instead of several normalised mpf
operations.  Below the threshold x = 1.2 (D + 10) both come from their
power series, with 0.87 x + 15 guard digits in the working precision
(and so in wp) absorbing the e^(2x) cancellation; log(x/2) and Euler's gamma
enter once each as fixed-point numbers.  Above it both come from one loop
over the asymptotic expansion sqrt(pi/2x) e^(-x) sum_k a_k(nu) / x^k,
stopped once its terms fall below 10^-(D+8), with the prefactor taken
once from mpmath's libmp.

The core needs no mpmath context: x is taken losslessly as a libmp value,
K_0 and K_1 come back as libmp values rounded to the working precision
(D + 15 digits, or D + 0.87 x + 15 on the series branch), and the upward
recurrence K_(nu+1) = K_(nu-1) + (2 nu / x) K_nu, stable for K, runs in
libmp's mpf_div/mpf_mul/mpf_add at that precision with round-to-nearest,
as a context of that precision would.  So no context is made per
series precision; only the final rounding to D digits goes through a
value context.  The tests check the core against the integral
representation int_0^inf e^(-x cosh t) cosh(nu t) dt, against
mpmath's besselk, and against itself at 15 more digits.

Ki_1 is a trapezoid sum over the real line whose step follows from the
integrand's strip of analyticity, so its error is set by the precision
alone; the tests check it against int_x^inf K_0.
"""

from __future__ import annotations

from mpmath.libmp import (
    dps_to_prec,
    euler_fixed,
    from_float,
    from_int,
    from_man_exp,
    from_str,
    mpf_add,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_shift,
    mpf_sqrt,
    round_nearest,
    to_fixed,
)

from .bigfloat import _value_context, context, round_to

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
    """Upper incomplete Gamma(s, x) for integer s >= 1 and x > 0, via the
    finite sum Gamma(s,x) = (s-1)! e^(-x) sum_{k<s} x^k / k!."""
    if s < 1 or s != int(s):
        raise ValueError("s must be a positive integer")
    ctx = context(dps + 8)
    x = ctx.convert(x)
    if x <= 0:
        raise ValueError("x must be positive")
    term = ctx.one
    acc = ctx.one
    for k in range(1, int(s)):
        term = term * x / k
        acc += term
    return round_to(dps, ctx.factorial(int(s) - 1) * ctx.exp(-x) * acc)


def gamma_upper(s, x, dps: int):
    """Upper incomplete Gamma(s, x) for real s > 0: the exact finite sum at
    integer s, mpmath's gammainc otherwise (needed only at the non-integer
    functional-equation test points)."""
    if s == int(s) and s >= 1:
        return incomplete_gamma_int(int(s), x, dps)
    ctx = context(dps + 8)
    return round_to(dps, ctx.gammainc(ctx.convert(s), ctx.convert(x), ctx.inf))


def _k0_k1_series(x, wp: int):
    """K_0, K_1 from their power series at fixed point 2^-wp, as (mantissa,
    exponent) pairs; the caller's wp carries the guard bits against the
    e^(2x) cancellation.  With t_k = q^k / (k! (k+1)!), q = x^2/4,
    H_k = 1 + 1/2 + ... + 1/k and c = log(x/2) + gamma:

        K_0 = sum_k (k+1) t_k (H_k - c),
        K_1 = 1/x + (x/2) sum_k t_k (c - H_k - 1/(2(k+1)))."""
    one = 1 << wp
    xf = to_fixed(x, wp)
    q = xf * xf >> (wp + 2)
    c = to_fixed(mpf_log(mpf_shift(x, -1), wp), wp) + euler_fixed(wp)
    t, h, k = one, 0, 0
    s0 = s1 = 0
    while t:
        d = (h - c) * t >> wp
        s0 += (k + 1) * d
        s1 -= d + t // (2 * k + 2)
        k += 1
        t = (t * q >> wp) // (k * (k + 1))
        h += one // k
    return (s0, -wp), ((one << wp) // xf + (xf * s1 >> (wp + 1)), -wp)


def _k0_k1_asymptotic(x, wp: int, dps: int):
    """K_0, K_1 from the large-x expansion sqrt(pi/2x) e^(-x) sum a_k(nu)/x^k,
    both summed in one loop at fixed point 2^-wp, as (mantissa, exponent)
    pairs.  |a_k(1)| > |a_k(0)| for k >= 1, so the loop stops once the K_1
    terms fall below 10^-(dps+8); if either series stops decreasing first,
    the expansion cannot deliver and ArithmeticError is raised."""
    eps = (1 << wp) // 10 ** (dps + 8)
    xf = to_fixed(x, wp)
    t0 = t1 = acc0 = acc1 = 1 << wp
    k = 1
    while abs(t1) >= eps:
        d = 8 * k * xf
        odd = (2 * k - 1) ** 2
        n0, n1 = (-odd * t0 << wp) // d, ((4 - odd) * t1 << wp) // d
        if abs(n0) >= abs(t0) or abs(n1) >= abs(t1):
            raise ArithmeticError("asymptotic series bottomed out early")
        t0, t1 = n0, n1
        acc0 += t0
        acc1 += t1
        k += 1
    _, man, exp, _ = mpf_mul(
        mpf_sqrt(mpf_div(mpf_pi(wp), mpf_shift(x, 1), wp), wp), mpf_exp(mpf_neg(x), wp), wp
    )
    return (man * acc0, exp - wp), (man * acc1, exp - wp)


def _libmp(x, prec: int):
    """x as a libmp value, as a context of precision prec converts it:
    exactly from an mpf, int or float, rounded to prec from a string or
    a fraction."""
    if hasattr(x, "_mpf_"):
        return x._mpf_
    if isinstance(x, int):
        return from_int(x)
    if isinstance(x, float):
        return from_float(x)
    return from_str(str(x), prec, round_nearest)


def _rounded(dps: int, v):
    """round_to for a libmp value."""
    return round_to(dps, _value_context(dps).make_mpf(v))


def _k0_k1(x, dps: int):
    """(x, K_0(x), K_1(x), prec): K_0 and K_1 unrounded, as libmp values at
    the working precision prec, which carries the guard digits."""
    xf = float(x)
    if not BESSEL_X_MIN < xf < BESSEL_X_MAX:
        raise OverflowError(
            f"argument {xf} outside the supported domain ({BESSEL_X_MIN}, {BESSEL_X_MAX})"
        )
    asymptotic = xf > 1.2 * (dps + 10)
    # the series' guard digits absorb its e^(2x) cancellation
    prec = dps_to_prec(dps + 15 if asymptotic else dps + int(0.87 * xf) + 15)
    xm = _libmp(x, prec)
    wp = prec + 20
    k01 = _k0_k1_asymptotic(xm, wp, dps) if asymptotic else _k0_k1_series(xm, wp)
    k0, k1 = (from_man_exp(m, e, prec, round_nearest) for m, e in k01)
    return xm, k0, k1, prec


def _bessel_k01(x, dps: int):
    """(K_0(x), K_1(x)) to dps digits from one evaluation, each equal to
    what bessel_k returns for it."""
    _, k0, k1, _ = _k0_k1(x, dps)
    return _rounded(dps, k0), _rounded(dps, k1)


def bessel_k(nu: int, x, dps: int):
    """Modified Bessel function K_nu(x) to dps digits, integer 0 <= nu <= 20,
    x inside (1e-6, 1e4)."""
    if not 0 <= nu <= BESSEL_NU_MAX:
        raise ValueError(f"order must be an integer in 0..{BESSEL_NU_MAX}")
    xm, *K, prec = _k0_k1(x, dps)
    for j in range(1, nu):
        step = mpf_mul(mpf_div(from_int(2 * j), xm, prec, round_nearest), K[j], prec, round_nearest)
        K.append(mpf_add(K[j - 1], step, prec, round_nearest))
    return _rounded(dps, K[nu])


def bickley_ki1(x, dps: int):
    """Bickley function Ki_1(x) = int_x^inf K_0(t) dt, for x >= 1.

    Putting cosh u = 1 + r^2/x in int_0^inf e^(-x cosh u) / cosh u du gives

        Ki_1(x) = e^-x x^(-1/2) int_R e^(-r^2) / ((1 + r^2/x) sqrt(2 + r^2/x)) dr,

    an integrand analytic in |Im r| < sqrt(x).  Its trapezoid sum with step
    h = 2 pi sqrt(x) / (x + B), cut where e^(-r^2) < e^-B, is off by about
    e^-B, and B is set from the working digits: the error is below the
    result's last digit by construction, at any x."""
    ctx = context(dps + 10)
    x = ctx.convert(x)
    if x < 1:
        raise ValueError("Ki_1 implemented for x >= 1 only")
    B = (ctx.dps + 6) * ctx.log(10)
    h = 2 * ctx.pi * ctx.sqrt(x) / (x + B)
    # g = e^(-(k h)^2) by g_k = g_(k-1) q_k, q_k = e^(-h^2 (2k - 1))
    q, q_step = ctx.exp(-h * h), ctx.exp(-2 * h * h)
    g = ctx.one
    total = 1 / ctx.sqrt(2)
    for k in range(1, int(ctx.sqrt(B) / h) + 2):
        g *= q
        q *= q_step
        y = (k * h) ** 2 / x
        total += 2 * g / ((1 + y) * ctx.sqrt(2 + y))
    return round_to(dps, ctx.exp(-x) * h * total / ctx.sqrt(x))
