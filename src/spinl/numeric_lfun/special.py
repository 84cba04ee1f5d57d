"""Special functions for the L-evaluators: incomplete gamma at integer (and
real) first argument, the modified Bessel function K_nu at integer order,
and the Bickley function Ki_1.

K_nu is built the classical way: power series for K_0, K_1 below a
precision-dependent threshold (with guard digits absorbing the e^(2x)
cancellation), the asymptotic expansion truncated at its smallest term
above it, and the upward recurrence K_{nu+1} = K_{nu-1} + (2 nu / x) K_nu,
which is stable for K.  The independent cross-check against the integral
representation int_0^inf e^(-x cosh t) cosh(nu t) dt lives in the tests.

Ki_1 is a trapezoid sum over the real line whose step follows from the
integrand's strip of analyticity, so its error is set by the precision
alone; the tests check it against int_x^inf K_0.
"""

from __future__ import annotations

from .bigfloat import context, round_to

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


def _k0_k1_series(ctx, x):
    """Power series for K_0, K_1; caller supplies the cancellation guard."""
    one = ctx.one
    q = x * x / 4
    lg = ctx.log(x / 2)
    g = +ctx.euler
    # K_0 = -(log(x/2) + gamma) I_0 + sum_k (q^k / k!^2) H_k
    term = one
    i0 = one
    s0 = ctx.zero
    h = ctx.zero
    k = 1
    while True:
        term = term * q / (k * k)
        h += one / k
        i0 += term
        s0 += term * h
        if term < ctx.eps * i0:
            break
        k += 1
    k0 = -(lg + g) * i0 + s0
    # K_1 = 1/x + log(x/2) I_1 - (x/4) sum_k (psi(k+1) + psi(k+2)) q^k / (k!(k+1)!)
    term = one
    hk = ctx.zero
    hk1 = one
    i1 = one
    s1 = ctx.zero
    k = 0
    while True:
        s1 += term * (hk + hk1 - 2 * g)
        if k > 2 and term < ctx.eps * (abs(s1) + 1):
            break
        k += 1
        term = term * q / (k * (k + 1))
        i1 += term
        hk += one / k
        hk1 += one / (k + 1)
    k1 = one / x + lg * (x / 2) * i1 - (x / 4) * s1
    return k0, k1


def _k0_k1_asymptotic(ctx, x, target_eps):
    """Large-x expansion sqrt(pi/2x) e^(-x) sum a_k(nu)/x^k, truncated at the
    smallest term; valid only when that term is below target_eps."""
    pref = ctx.sqrt(ctx.pi / (2 * x)) * ctx.exp(-x)
    out = []
    for nu in (0, 1):
        mu = 4 * nu * nu
        term = ctx.one
        acc = ctx.one
        k = 1
        while True:
            nxt = term * (mu - (2 * k - 1) ** 2) / (8 * k * x)
            if abs(nxt) >= abs(term):
                break
            term = nxt
            acc += term
            if abs(term) < target_eps:
                break
            k += 1
        if abs(term) > target_eps:
            raise ArithmeticError("asymptotic series bottomed out early")
        out.append(pref * acc)
    return out[0], out[1]


def _k0_k1(x, dps: int):
    """K_0(x) and K_1(x) unrounded, in a working context carrying the
    guard digits, together with x in that context."""
    xf = float(x)
    if not BESSEL_X_MIN < xf < BESSEL_X_MAX:
        raise OverflowError(
            f"argument {xf} outside the supported domain ({BESSEL_X_MIN}, {BESSEL_X_MAX})"
        )
    threshold = 1.2 * (dps + 10)
    if xf > threshold:
        ctx = context(dps + 15)
        xx = ctx.convert(x)
        k0, k1 = _k0_k1_asymptotic(ctx, xx, ctx.mpf(10) ** (-dps - 8))
    else:
        guard = int(0.87 * xf) + 15
        ctx = context(dps + guard)
        xx = ctx.convert(x)
        k0, k1 = _k0_k1_series(ctx, xx)
    return xx, k0, k1


def _bessel_k01(x, dps: int):
    """(K_0(x), K_1(x)) to dps digits from one evaluation, each equal to
    what bessel_k returns for it."""
    _, k0, k1 = _k0_k1(x, dps)
    return round_to(dps, k0), round_to(dps, k1)


def bessel_k(nu: int, x, dps: int):
    """Modified Bessel function K_nu(x) to dps digits, integer 0 <= nu <= 20,
    x inside (1e-6, 1e4)."""
    if not 0 <= nu <= BESSEL_NU_MAX:
        raise ValueError(f"order must be an integer in 0..{BESSEL_NU_MAX}")
    xx, k0, k1 = _k0_k1(x, dps)
    if nu == 0:
        r = k0
    elif nu == 1:
        r = k1
    else:
        km, k = k0, k1
        for j in range(1, nu):
            km, k = k, km + (2 * j / xx) * k
        r = k
    return round_to(dps, r)


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
