"""spinl: exact critical values of the degree-3 weight-12 spinor L-function
through its factorization into elliptic L-functions, with a self-contained
extended-precision numerical verifier.

The exact side produces, for s = 12..19, the coefficient of the Petersson
norm product in each critical value as a rational number times a power of
pi; the numerical side recomputes everything through approximate functional
equations and Rankin's norm formula and compares.
"""

from .exact_arith import (
    PiValue,
    Rational,
    bernoulli,
    falling_ratio,
    gamma_pole_ratio,
    zeta_exact,
    zeta_pole_over_gamma,
)
from .qexp import (
    QSeries,
    delta_qexp,
    eisenstein_qexp,
    g20_qexp,
    g2p_qexp,
    hecke_tp,
    lemma1_local_check,
    rankin_coeffs,
)
from .critical_values import (
    CriticalValueResult,
    PeterssonFactors,
    ProjectionCoeffs,
    c_constants,
    d_constants,
    main_identity,
    projection_coeffs,
    rankin_g20_value,
    two_delta_product,
)

__version__ = "0.1.0"

__all__ = [
    "PiValue",
    "Rational",
    "bernoulli",
    "falling_ratio",
    "gamma_pole_ratio",
    "zeta_exact",
    "zeta_pole_over_gamma",
    "QSeries",
    "delta_qexp",
    "eisenstein_qexp",
    "g20_qexp",
    "g2p_qexp",
    "hecke_tp",
    "lemma1_local_check",
    "rankin_coeffs",
    "CriticalValueResult",
    "PeterssonFactors",
    "ProjectionCoeffs",
    "c_constants",
    "d_constants",
    "main_identity",
    "projection_coeffs",
    "rankin_g20_value",
    "two_delta_product",
    "__version__",
]
