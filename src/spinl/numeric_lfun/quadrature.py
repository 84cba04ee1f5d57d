"""Tanh-sinh (double-exponential) quadrature on a finite interval.

Nodes x = tanh((pi/2) sinh(t)) cluster doubly-exponentially at the
endpoints, so integrands that are analytic inside the interval, even with
endpoint singularities, converge geometrically as the mesh is halved.
Each refinement level reuses all previous evaluations, and nodes are
generated through their distance to the endpoint (2 e^(-2u) / (1 + e^(-2u))
rather than tanh itself), which keeps evaluation points near a singular
endpoint accurate to full relative precision.  Its one exit is two levels
that agree; any other outcome raises QuadratureError.
"""

from __future__ import annotations

__all__ = ["tanh_sinh", "QuadratureError"]


class QuadratureError(ArithmeticError):
    """Raised when the level sequence fails to settle at the target."""


def tanh_sinh(ctx, f, a, b, max_level: int = 9):
    """Integrate f over [a, b] in the given mpmath context.

    Returns once two levels m >= 2 agree within 256 ctx.eps (1 + |value|),
    else raises QuadratureError at max_level; a max_level below 2 can
    never converge and raises ValueError before f is evaluated.
    """
    if max_level < 2:
        raise ValueError(f"max_level must be >= 2, got {max_level!r}")
    a = ctx.convert(a)
    b = ctx.convert(b)
    if a == b:
        return ctx.zero
    half = (b - a) / 2
    mid = (a + b) / 2
    pi2 = ctx.pi / 2
    # node generation stops once weights underflow the context epsilon
    t_lim = ctx.asinh(ctx.log(4 / ctx.eps) / pi2 * ctx.mpf("1.05"))
    total = ctx.zero
    for m in range(max_level + 1):
        h = ctx.mpf(1) / 2**m
        j_max = int(ctx.floor(t_lim / h)) + 1
        s = ctx.zero
        if m == 0:
            s += pi2 * f(mid)  # j = 0 node: t = 0, weight pi/2, x = 0
        step = 1 if m == 0 else 2
        for j in range(1, j_max + 1, step):
            t = j * h
            u = pi2 * ctx.sinh(t)
            em = ctx.exp(-2 * u)
            d = 2 * em / (1 + em)  # 1 - tanh(u), to full relative accuracy
            if d == 0:
                break
            ch = (1 + em) / (2 * ctx.sqrt(em))  # cosh(u)
            w = pi2 * ctx.cosh(t) / (ch * ch)
            s += w * (f(a + half * d) + f(b - half * d))
        total = s * h if m == 0 else total / 2 + s * h
        value = total * half
        if m >= 2:
            delta = abs(value - prev)
            if delta <= 256 * ctx.eps * (1 + abs(value)):
                return value
        prev = value
    raise QuadratureError(f"tanh-sinh did not converge: last delta {ctx.nstr(delta, 3)}")
