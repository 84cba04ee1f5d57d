"""Precision discipline for the numerical layer.

All extended-precision arithmetic runs on mpmath, but never through the
global `mpmath.mp` context.  Every entry point takes an explicit decimal
digit count D, and identical inputs and D give bit-identical results, in
any thread and in any order of calls.

An mpmath context is mutable (its special functions raise `ctx.prec` for
a moment and restore it), and an mpf rounds its arithmetic at its own
context's current precision.  Two kinds of context follow from that:

- `context(D)` is a working context from a per-thread pool keyed by D.
  A thread reuses it for every computation at D, so no other thread ever
  sees its precision change.  It is reset to D digits on every call.
- `round_to(D, x)` returns x rounded into a value context shared by all
  threads.  No computation runs in a value context, so its precision is
  fixed, and a returned value or a cached one behaves the same wherever
  it is used later.

Cached intermediate sums (the evaluators' moments) are libmp values,
rounded once to their precision, and belong to no context.  An l-value
or `verify_tables` run at D thus makes one working context, at D + GUARD,
and one value context, at D; `kernel_mellin_check` adds working contexts
above D + GUARD.
"""

from __future__ import annotations

import math
import numbers
import operator
import threading
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import mpf_pos, round_nearest

MIN_DPS = 15
# digits above D at which every public numeric entry point works: the one
# working precision of a run at D, rounded to D once at the end
GUARD = 10

_threads = threading.local()
_VALUE_CONTEXTS: dict = {}


def _check_dps(dps: int) -> None:
    """ValueError unless operator.index(dps) >= MIN_DPS: the floor of every
    context, and the first step of every public numeric entry point, so a
    refused call does no work and fills no cache."""
    try:
        ok = operator.index(dps) >= MIN_DPS
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"working precision must be an int >= {MIN_DPS} digits, got {dps!r}")


def _check_real(x, name: str) -> None:
    """ValueError unless x is a finite numbers.Real (int, float, Fraction,
    mpf), so not inf or nan: the check of every real argument of a public
    numeric entry point, made right after _check_dps."""
    if not (isinstance(x, numbers.Real) and -math.inf < x < math.inf):
        raise ValueError(f"{name} must be a real number, got {x!r}")


def _fresh(dps: int):
    # every pooled context is made here first, so this enforces the floor
    _check_dps(dps)
    ctx = mp.clone()
    ctx.dps = dps
    return ctx


def context(dps: int):
    """The calling thread's working mpmath context at the given decimal
    precision."""
    pool = getattr(_threads, "pool", None)
    if pool is None:
        pool = _threads.pool = {}
    ctx = pool.get(dps)
    if ctx is None:
        ctx = pool[dps] = _fresh(dps)
    else:
        ctx.dps = dps  # undo any change a caller made
    return ctx


def _value_context(dps: int):
    ctx = _VALUE_CONTEXTS.get(dps)
    if ctx is None:
        ctx = _VALUE_CONTEXTS.setdefault(dps, _fresh(dps))
    return ctx


def round_to(dps: int, value):
    """Re-round a value to D digits (the canonical return step)."""
    v = getattr(value, "_mpf_", None)
    if v is not None:  # what convert reads of an mpf, rounded as unary + rounds
        return _rounded(dps, v)
    return +_value_context(dps).convert(value)


def _rounded(dps: int, v):
    """round_to for a libmp value: an exact v is rounded once."""
    home = _value_context(dps)
    return home.make_mpf(mpf_pos(v, home.prec, round_nearest))


def render_exact(ctx, q: Fraction, pi_exponent: int):
    """q pi^e in ctx: the one rendering of an exact value, for the tables,
    the verification, the norms' zeta(l) and pi_value_numeric."""
    return ctx.mpf(q.numerator) / q.denominator * ctx.pi**pi_exponent


def pi_value_numeric(pv, dps: int):
    """Evaluate an exact value to dps digits: the sum of q pi^e over the
    (q, e) in pv.monomials."""
    _check_dps(dps)
    ctx = context(dps + GUARD)
    return round_to(dps, sum(render_exact(ctx, q, e) for q, e in pv.monomials))
