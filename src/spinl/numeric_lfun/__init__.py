"""Extended-precision numerical engine: special functions, tanh-sinh
quadrature (public, and the tests' oracle; no evaluator calls it),
approximate-functional-equation L-evaluators, Rankin's Petersson-norm
formula, and the table verification harness.

Every entry point takes an explicit decimal precision D and never touches
mpmath's global context.  Each works at D + GUARD digits and rounds once
to D.  Work runs in contexts pooled per thread and per precision, and
results come back in per-D value contexts (see `bigfloat`); the
degree-4 per-coefficient data, the sums over n of both smoothed sums and
the kernel check's errors are kept in bounded, thread-safe caches whose
values are the same in every thread: two bounded mappings of the
degree-4 nodes and the seeded chains of their classes mu (one per
fractional part of 2s), as unrounded integers at one exponent per node,
and lru caches of the K_0/K_1 pairs of the nodes below the Bessel series
cut, one descent per precision, of every sum over n, per coefficient set
and class, as libmp values, and of the kernel errors per precision, each
rounded once into a value context.  Every smoothed sum refuses,
before any work, an M below its floor: _deg2_m(k, D) at degree 2 and
_deg4_m(D), every node below the cut, at degree 4.  The tables and the
verification render their exact values in the run's one context and
round once to D.
"""

from .bigfloat import context, pi_value_numeric, render_exact, round_to
from .evaluators import (
    LFunctionSpec,
    PeterssonNorm,
    delta_lfunction,
    functional_eq_residual,
    g20_lfunction,
    kernel_mellin_check,
    l_degree2,
    l_rankin4,
    petersson_norm,
    rankin_lfunction,
)
from .quadrature import QuadratureError, tanh_sinh
from .special import bessel_k, bickley_ki1, gamma_upper, incomplete_gamma_int
from .verify import VerificationReport, VerificationRow, verify_tables

__all__ = [
    "context",
    "pi_value_numeric",
    "render_exact",
    "round_to",
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
    "QuadratureError",
    "tanh_sinh",
    "bessel_k",
    "bickley_ki1",
    "gamma_upper",
    "incomplete_gamma_int",
    "VerificationReport",
    "VerificationRow",
    "verify_tables",
]
