"""The four benchmark workloads.

Each workload is built from the seed, then `cold()` runs its calls in a
fresh interpreter and `warm()` repeats the cacheable part in the same
process.  Only those two are timed.  `checks()` then returns one
(name, passed, error) triple per correctness check; `error` is a relative
error (or an absolute residual) where the check has one, else None.  The
smallest -log10(error) over a run is its `digits_min`.

Why each workload exists and which layer it loads is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from typing import List, Optional, Tuple

# spinl functions are looked up as module attributes at call time, so the
# traced run sees the wrapped ones
import spinl
import spinl.cli
import spinl.numeric_lfun as nl

Check = Tuple[str, bool, Optional[float]]


class VerifyCli:
    """`spinl ... verify` through the CLI entry point, called in-process."""

    def __init__(self, seed: int, tmpdir: str, prec: int, coeffs: int, tol: str, warm_repeats: int):
        self.warm_repeats = warm_repeats
        self.prec, self.coeffs, self.tol = prec, coeffs, tol
        self.out = os.path.join(tmpdir, "verify.json")
        self.params = {"D": prec, "M": coeffs, "tol": tol}
        self.results: List[Tuple[int, str]] = []

    def _call(self) -> None:
        rc = spinl.cli.main(
            ["--prec", str(self.prec), "--coeffs", str(self.coeffs), "--fresh-norms",
             "--tol", self.tol, "--format", "json", "--out", self.out, "verify"]
        )
        with open(self.out) as fh:
            self.results.append((rc, fh.read()))

    cold = warm = _call

    def output(self) -> str:
        return self.results[0][1]

    def checks(self) -> List[Check]:
        rc, text = self.results[0]
        out: List[Check] = [("exit_code", rc == 0, None)]
        rows = json.loads(text)["rows"]
        out.append(("row_count", len(rows) == 24, None))
        tol = float(self.tol)
        for r in rows:
            rel = float(r["rel_diff"])
            out.append((f"s{r['s']}.{r['branch']}", rel <= tol, rel))
        for i, (rc_w, text_w) in enumerate(self.results[1:]):
            out.append((f"warm{i}.identical", rc_w == rc and text_w == text, None))
        return out


def _coprime_pairs(rng: random.Random, n_max: int, count: int) -> List[Tuple[int, int]]:
    pairs = []
    while len(pairs) < count:
        m = rng.randint(2, 70)
        n = rng.randint(2, n_max // m)
        if math.gcd(m, n) == 1:
            pairs.append((m, n))
    return pairs


class ExactN5000:
    """q-expansions at N = 5000, Hecke T_2, local-factor checks, and the 24
    exact critical values with the 16 projection coefficients."""

    N = 5000
    warm_repeats = 10
    # sha256 of _exact_tables() for the 24 critical values and 16 projection
    # coefficients the package produced when this benchmark was written
    TABLES_SHA256 = "2340fc3f385e57e9e9c8ba2e72ec3f43b6a7b46fd9bd6ae3051af9de2c80c09a"

    def __init__(self, seed: int, tmpdir: str):
        self.pairs = _coprime_pairs(random.Random(seed), self.N, 8)
        self.params = {"N": self.N, "pairs": self.pairs}
        self.results: List[dict] = []

    def _call(self) -> None:
        delta, g20, A = spinl.delta_qexp(self.N), spinl.g20_qexp(self.N), spinl.rankin_coeffs(self.N)
        self.results.append(
            {
                "series": (delta, g20, A),
                "hecke": (spinl.hecke_tp(delta, 2, 12), spinl.hecke_tp(g20, 2, 20)),
                "lemma1": [spinl.lemma1_local_check(p, 10) for p in (2, 3, 5, 7)],
                "critical": [
                    (s, branch, fn(s))
                    for s in range(12, 20)
                    for branch, fn in (
                        ("main_identity", spinl.main_identity),
                        ("two_delta_product", spinl.two_delta_product),
                        ("rankin_g20_value", spinl.rankin_g20_value),
                    )
                ],
                "projection": [spinl.projection_coeffs(s) for s in range(3, 11)],
            }
        )

    cold = warm = _call

    @staticmethod
    def _exact_tables(res: dict) -> str:
        lines = [
            f"{s} {branch} {v.rational.numerator}/{v.rational.denominator} pi^{v.pi_exponent}"
            for s, branch, v in res["critical"]
        ]
        for pc in res["projection"]:
            for part, pv in (("A1", pc.a1), ("A2", pc.a2)):
                q, e = pv.as_monomial()
                lines.append(f"{pc.s} {part} {q.numerator}/{q.denominator} pi^{e}")
        return "\n".join(lines) + "\n"

    def output(self) -> str:
        return self._exact_tables(self.results[0])

    def checks(self) -> List[Check]:
        res = self.results[0]
        delta, g20, A = res["series"]
        out: List[Check] = []
        for label, f, tf, eig in (
            ("delta", delta, res["hecke"][0], -24),
            ("g20", g20, res["hecke"][1], 456),
        ):
            ok = tf.precision == self.N // 2 and all(
                tf[n] == eig * f[n] for n in range(tf.precision + 1)
            )
            out.append((f"T2.{label}", ok, None))
        for p, ok in zip((2, 3, 5, 7), res["lemma1"]):
            out.append((f"lemma1.p{p}", ok is True, None))
        digest = hashlib.sha256(self._exact_tables(res).encode()).hexdigest()
        out.append(("tables.sha256", digest == self.TABLES_SHA256, None))
        for m, n in self.pairs:
            ok = (
                delta[m * n] == delta[m] * delta[n]
                and g20[m * n] == g20[m] * g20[n]
                and A[m * n] == A[m] * A[n]
            )
            out.append((f"multiplicative.{m}x{n}", ok, None))
        out.extend(_zeta_checks())
        for i, warm in enumerate(self.results[1:]):
            ok = self._exact_tables(warm) == self.output() and warm["lemma1"] == res["lemma1"]
            out.append((f"warm{i}.identical", ok, None))
        return out


def _zeta_checks() -> List[Check]:
    """The exact zeta values the tables are built from, rendered at 50
    digits by mpmath alone and compared with mpmath's zeta."""
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = 50
    out: List[Check] = []
    for n in range(2, 21, 2):
        val = sum(ctx.mpf(c.numerator) / c.denominator * ctx.pi**e for c, e in spinl.zeta_exact(n).monomials)
        rel = float(abs(val / ctx.zeta(n) - 1))
        out.append((f"zeta{n}", rel < 1e-45, rel))
    return out


class CertifyD30:
    """The certificates behind the degree-4 evaluator at 30 digits: the
    kernel's Mellin identity by quadrature, two functional-equation
    residuals of the Rankin L-function at half-integer t, and one
    degree-2 residual at a non-integer t."""

    D = 30
    M = 150
    M_DEG2 = 30
    KERNEL_S0 = 13
    # every half-integer t in the strip reached by the closed-form chains;
    # a generic real t falls back to tanh-sinh per coefficient and costs
    # minutes, so the seed never picks one
    HALF_INTEGER_T = tuple(k + 0.5 for k in range(12, 19))
    DEG2_T = 6.25  # non-integer, so gamma_upper takes its gammainc branch
    LIMIT = 1e-20
    warm_repeats = 2

    def __init__(self, seed: int, tmpdir: str):
        self.t_pair = tuple(random.Random(seed).sample(self.HALF_INTEGER_T, 2))
        self.params = {"D": self.D, "M": self.M, "M_deg2": self.M_DEG2,
                       "t": list(self.t_pair), "t_deg2": self.DEG2_T}
        self.kernel_err = None
        self.results: List[List] = []

    def _residuals(self) -> None:
        spec = nl.rankin_lfunction(self.M)
        res = [nl.functional_eq_residual(spec, None, t, self.D, self.M) for t in self.t_pair]
        res.append(
            nl.functional_eq_residual(nl.delta_lfunction(self.M_DEG2), None, self.DEG2_T, self.D, self.M_DEG2)
        )
        self.results.append(res)

    def cold(self) -> None:
        self.kernel_err = nl.kernel_mellin_check(self.KERNEL_S0, self.D)
        self._residuals()

    warm = _residuals

    def output(self) -> str:
        return repr([str(self.kernel_err)] + [str(r) for r in self.results[0]])

    def checks(self) -> List[Check]:
        err = float(self.kernel_err)
        out: List[Check] = [("kernel.s13", err < self.LIMIT, err)]
        labels = [f"residual.deg4.t{t}" for t in self.t_pair] + [f"residual.deg2.t{self.DEG2_T}"]
        for label, r in zip(labels, self.results[0]):
            r = float(r)
            out.append((label, r < self.LIMIT, r))
        for i, warm in enumerate(self.results[1:]):
            out.append((f"warm{i}.identical", warm == self.results[0], None))
        return out


WORKLOADS = {
    "verify-d30": lambda seed, tmp: VerifyCli(seed, tmp, 30, 150, "1e-28", warm_repeats=1),
    "verify-d60": lambda seed, tmp: VerifyCli(seed, tmp, 60, 300, "1e-58", warm_repeats=1),
    "exact-n5000": ExactN5000,
    "certify-d30": CertifyD30,
}
