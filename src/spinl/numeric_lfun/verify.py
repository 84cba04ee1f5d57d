"""End-to-end verification: exact critical values rendered numerically
against direct evaluator runs, for all eight critical points.

Three comparisons per s:

  (i)   two_delta_product(s)  * pi^P * <D,D>    vs  L(s-9,D) L(s-10,D)
  (ii)  rankin_g20_value(s)   * pi^P * <g,g>    vs  L(s, D x g20)
  (iii) main_identity(s)      * pi^P * both     vs  the triple product

where each result's petersson_factors picks its norm (_norms), from
Rankin's formula in the run's one context, D + GUARD digits, in which
every row is rendered and then rounded once to D; L(j, Delta) shares that
context and the norm's coefficients, so one Delta moment set serves both.
The exact value of (iii) is the product of those of (i) and (ii):
main_identity's own result.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from ..critical_values import PeterssonFactors, main_identity, rankin_g20_value, two_delta_product
from ..qexp import delta_qexp, rankin_coeffs
from .bigfloat import GUARD, _check_dps, context, render_exact, round_to
from .evaluators import _check_m, _deg2_m, _norm, l_degree2, l_rankin4

__all__ = ["VerificationRow", "VerificationReport", "verify_tables"]


class VerificationRow(NamedTuple):
    s: int
    branch: str  # "delta_pair", "rankin", "spin"
    exact_value: object  # exact coefficient rendered numerically, with norms
    direct_value: object  # product of independent evaluator runs
    abs_diff: object
    rel_diff: object


class VerificationReport(NamedTuple):
    precision_digits: int
    coefficients_used: int
    rows: List[VerificationRow]

    @property
    def max_rel_diff(self):
        return max(r.rel_diff for r in self.rows)

    def failures(self, tolerance) -> List[VerificationRow]:
        return [r for r in self.rows if r.rel_diff > tolerance]

    def as_dict(self) -> Dict:
        return {
            "precision_digits": self.precision_digits,
            "coefficients_used": self.coefficients_used,
            "fresh_norms": True,  # the norms are computed in every run
            "rows": [
                {
                    "s": r.s,
                    "branch": r.branch,
                    "exact_value": str(r.exact_value),
                    "direct_value": str(r.direct_value),
                    "abs_diff": str(r.abs_diff),
                    "rel_diff": str(r.rel_diff),
                }
                for r in self.rows
            ],
        }


def _norms(ctx, dps: int) -> dict:
    """The norm each PeterssonFactors names, in ctx = context(dps + GUARD)
    from _norm at dps digits."""
    dn, gn = (ctx.make_mpf(_norm(k, 4, dps)) for k in (12, 20))
    F = PeterssonFactors
    return {F.DELTA_DELTA: dn, F.G20_G20: gn, F.BOTH: dn * gn}


def verify_tables(dps: int = 30, M: int = 150) -> VerificationReport:
    """Compare all 24 exact renderings against direct numeric products, the
    degree-4 ones over M coefficients; an M that l_rankin4 refuses raises
    ValueError before any work."""
    _check_dps(dps)
    _check_m(M, 4, 31, dps)
    report = VerificationReport(dps, M, [])
    ctx = context(dps + GUARD)
    norms = _norms(ctx, dps)
    m_deg2 = _deg2_m(12, dps)  # the Delta norm's coefficients
    delta = delta_qexp(m_deg2)
    A = rankin_coeffs(M)
    ldelta = {j: ctx.convert(l_degree2(delta, 12, j, dps, m_deg2)) for j in range(2, 11)}
    for s in range(12, 20):
        pair_direct = ldelta[s - 9] * ldelta[s - 10]
        rank_direct = ctx.convert(l_rankin4(A, s, dps, M))
        rows = (
            ("delta_pair", two_delta_product(s), pair_direct),
            ("rankin", rankin_g20_value(s), rank_direct),
            ("spin", main_identity(s), pair_direct * rank_direct),
        )
        for branch, exact, direct in rows:
            rendered = render_exact(ctx, exact.rational, exact.pi_exponent)
            rendered *= norms[exact.petersson_factors]
            diff = abs(rendered - direct)
            report.rows.append(
                VerificationRow(
                    s,
                    branch,
                    round_to(dps, rendered),
                    round_to(dps, direct),
                    round_to(dps, diff),
                    round_to(dps, diff / abs(direct)),
                )
            )
    return report
