"""Acceptance suite: one test per criterion, each printing a pass/fail line,
with tolerances and runtime caps pinned.

Criterion 5 checks the Petersson norms at D=30 to 20 digits against the
exact tables: each row of Table 2 (resp. Table 3), divided into the direct
L-value product it stands for, is <Delta,Delta> (resp. <g20,g20>), so all
eight rows of each table must reproduce the computed norm to 5e-20.  The
published 28-digit norms were assembled at double precision -- their three
weight-20 renditions disagree pairwise at ~7.8e-17 relative -- so they are
matched only to that spread, computed from the printed values themselves;
see README notes.
"""

import time
from contextlib import contextmanager
from math import gcd

from spinl import (
    delta_qexp,
    g20_qexp,
    hecke_tp,
    lemma1_local_check,
    main_identity,
    projection_coeffs,
    rankin_coeffs,
    rankin_g20_value,
    two_delta_product,
)
from spinl.exact_arith import PiValue
from spinl.numeric_lfun import (
    context,
    delta_lfunction,
    functional_eq_residual,
    g20_lfunction,
    kernel_mellin_check,
    l_degree2,
    l_rankin4,
    petersson_norm,
    rankin_lfunction,
    verify_tables,
)

from reference_values import (
    DIRECT_DELTA_PAIR,
    DIRECT_RANKIN,
    DIRECT_SPIN,
    RANKIN_COLUMN,
    REF_DELTA_NORM,
    REF_G20_NORMS,
    TABLE1,
    TABLE2,
    TABLE2_NUMERIC,
    TABLE3,
    TABLE3_NUMERIC,
    TABLE4,
    TABLE4_NUMERIC,
)


@contextmanager
def criterion(num: int, label: str):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {label} ({time.monotonic() - t0:.2f}s)")
        raise
    print(f"[PASS] criterion {num}: {label} ({time.monotonic() - t0:.2f}s)")


def test_criterion_1_projection_table():
    with criterion(1, "projection coefficients reproduce all 16 exact values"):
        t0 = time.monotonic()
        for s, (expo, a1, a2) in TABLE1.items():
            pc = projection_coeffs(s)
            assert pc.a1 == PiValue.monomial(a1, expo)
            assert pc.a2 == PiValue.monomial(a2, expo)
        assert time.monotonic() - t0 < 1.0


def test_criterion_2_exact_value_tables():
    with criterion(2, "all 24 exact (rational, pi-exponent) pairs"):
        t0 = time.monotonic()
        for s in range(12, 20):
            r2 = two_delta_product(s)
            r3 = rankin_g20_value(s)
            r4 = main_identity(s)
            assert (r2.rational, r2.pi_exponent) == TABLE2[s]
            assert (r3.rational, r3.pi_exponent) == TABLE3[s]
            assert (r4.rational, r4.pi_exponent) == TABLE4[s]
        # s=17 decimal numerator is 2^34 (the factored print 2^24 is a typo)
        assert main_identity(17).rational.numerator == 2**34
        assert time.monotonic() - t0 < 1.0


def test_criterion_3_factorization_consistency():
    with criterion(3, "spin value = product of its two factors, exactly"):
        t0 = time.monotonic()
        for s in range(12, 20):
            left = two_delta_product(s)
            right = rankin_g20_value(s)
            total = main_identity(s)
            assert total.rational == left.rational * right.rational
            assert total.pi_exponent == left.pi_exponent + right.pi_exponent
        assert time.monotonic() - t0 < 1.0


def test_criterion_4_convolution_coefficients(rankin150):
    with criterion(4, "degree-4 coefficients: 15 pinned values, multiplicative"):
        t0 = time.monotonic()
        for n, v in RANKIN_COLUMN.items():
            assert rankin150[n] == v
        A = rankin_coeffs(200)
        for m in range(2, 201):
            for n in range(2, 200 // m + 1):
                if gcd(m, n) == 1:
                    assert A[m * n] == A[m] * A[n]
        assert time.monotonic() - t0 < 1.0


def _exact_value(ctx, row):
    rational, pi_exponent = row
    return ctx.mpf(rational.numerator) / rational.denominator * ctx.pi**pi_exponent


def _rel(got, ref):
    return abs(got - ref) / abs(ref)


def test_criterion_5_petersson_norms(rankin150):
    with criterion(
        5, "norms at D=30 agree with exact Tables 2/3 to 5e-20, printed norms to their spread"
    ):
        t0 = time.monotonic()
        ctx = context(34)
        got12 = ctx.convert(petersson_norm(12, 4, 30).value)
        got20 = {r: ctx.convert(petersson_norm(20, r, 30).value) for r in (4, 6, 8)}
        assert time.monotonic() - t0 < 10.0
        # the three weight-20 routes of Rankin's formula agree pairwise
        for a in (4, 6, 8):
            for b in (4, 6, 8):
                if a < b:
                    assert _rel(got20[a], got20[b]) < ctx.mpf("1e-20"), (
                        f"<g20,g20> by r={a} vs r={b}"
                    )
        # each exact table row, divided into the direct L-value product it
        # stands for, is the norm: Table 2 gives <Delta,Delta>, Table 3 <g20,g20>
        tol = ctx.mpf("5e-20")
        delta = delta_qexp(60)
        ldelta = {j: ctx.convert(l_degree2(delta, 12, j, 30, 60)) for j in range(2, 11)}
        for s in range(12, 20):
            implied12 = ldelta[s - 9] * ldelta[s - 10] / _exact_value(ctx, TABLE2[s])
            assert _rel(got12, implied12) <= tol, (
                f"s={s}: <Delta,Delta> vs L(s-9,D)L(s-10,D) / Table 2"
            )
            implied20 = ctx.convert(l_rankin4(rankin150, s, 30, 150)) / _exact_value(
                ctx, TABLE3[s]
            )
            for r in (4, 6, 8):
                assert _rel(got20[r], implied20) <= tol, (
                    f"s={s}: <g20,g20> by r={r} vs L(s, D x g20) / Table 3"
                )
        # the printed 28-digit norms hold only to their own double-precision
        # spread: the largest pairwise gap among the printed weight-20 values
        printed = {r: ctx.mpf(v) for r, v in REF_G20_NORMS.items()}
        spread = max(_rel(a, b) for a in printed.values() for b in printed.values())
        assert _rel(got12, ctx.mpf(REF_DELTA_NORM)) <= spread, (
            "<Delta,Delta> vs printed norm, beyond the printed values' own spread"
        )
        for r, refv in printed.items():
            assert _rel(got20[r], refv) <= spread, (
                f"<g20,g20> by r={r} vs printed norm, beyond the printed values' own spread"
            )


def test_criterion_6_degree4_evaluator(rankin150):
    with criterion(6, "degree-4 evaluator: 8 numerics at 1e-9, kernel at 1e-20"):
        t0 = time.monotonic()
        ctx = context(34)
        for s in range(12, 20):
            got = ctx.convert(l_rankin4(rankin150, s, 30, 150))
            ref = ctx.mpf(TABLE3_NUMERIC[s])
            assert abs(got - ref) / ref < ctx.mpf("1e-9"), f"s={s}"
        for s0 in (13, 15, 17):
            err = ctx.convert(kernel_mellin_check(s0, 30))
            assert err < ctx.mpf("1e-20"), f"kernel point {s0}"
        assert time.monotonic() - t0 < 60.0


def test_criterion_7_end_to_end_verification(rankin150):
    with criterion(7, "exact*norms vs direct products, 1e-9 / 1e-12"):
        t0 = time.monotonic()
        ctx = context(34)
        tol_ref = ctx.mpf("1e-9")
        report = verify_tables(30, 150)
        refs = {"delta_pair": DIRECT_DELTA_PAIR, "rankin": DIRECT_RANKIN, "spin": DIRECT_SPIN}
        for row in report.rows:
            ref = ctx.mpf(refs[row.branch][row.s])
            for side in (row.exact_value, row.direct_value):
                assert abs(ctx.convert(side) - ref) / ref < tol_ref, (
                    f"s={row.s} {row.branch} vs reference column"
                )
        # the printed numeric columns of the exact tables themselves (which
        # were rendered there with truncated norms) must also sit within 1e-9
        table_refs = {
            "delta_pair": TABLE2_NUMERIC,
            "rankin": TABLE3_NUMERIC,
            "spin": TABLE4_NUMERIC,
        }
        for row in report.rows:
            ref = ctx.mpf(table_refs[row.branch][row.s])
            assert abs(ctx.convert(row.exact_value) - ref) / ref < tol_ref, (
                f"s={row.s} {row.branch} vs printed table column"
            )
        assert ctx.convert(report.max_rel_diff) < ctx.mpf("1e-12")
        assert time.monotonic() - t0 < 120.0


def test_criterion_8_functional_equation_residuals(rankin150):
    with criterion(8, "functional-equation residuals below 1e-20 at D=30"):
        ctx = context(30)
        bound = ctx.mpf("1e-20")
        spec_d = delta_lfunction(30)
        for t in ("2.3", "4.8", "6.0", "7.3", "9.1"):
            assert ctx.convert(functional_eq_residual(spec_d, None, ctx.mpf(t), 30, 20)) < bound
        spec_g = g20_lfunction(35)
        for t in ("6.5", "9.2", "10.0", "13.7", "16.4"):
            assert ctx.convert(functional_eq_residual(spec_g, None, ctx.mpf(t), 30, 25)) < bound
        spec_r = rankin_lfunction(150)
        for t in ("12.5", "13.5", "14.5", "15.5", "16.5"):
            assert ctx.convert(functional_eq_residual(spec_r, None, ctx.mpf(t), 30, 150)) < bound


def test_criterion_9_property_suites():
    with criterion(9, "Hecke eigenvalues, local factors, multiplicativity, dual routes"):
        t0 = time.monotonic()
        # T_2 eigenvalues to output precision 80
        d160 = delta_qexp(160)
        g160 = g20_qexp(160)
        t2d = hecke_tp(d160, 2, 12)
        t2g = hecke_tp(g160, 2, 20)
        assert t2d.precision >= 80 and t2g.precision >= 80
        for n in range(t2d.precision + 1):
            assert t2d[n] == -24 * d160[n]
        for n in range(t2g.precision + 1):
            assert t2g[n] == 456 * g160[n]
        # local-factor identity to order 8
        for p in (2, 3, 5):
            assert lemma1_local_check(p, 8) is True
        # multiplicativity within precision 200
        d200 = delta_qexp(200)
        g200 = g20_qexp(200)
        for m in range(2, 201):
            for n in range(2, 200 // m + 1):
                if gcd(m, n) == 1:
                    assert d200[m * n] == d200[m] * d200[n]
                    assert g200[m * n] == g200[m] * g200[n]
        # two independent discriminant-form expansion routes to precision 200
        from math import comb

        N = 200
        prod = [0] * N
        prod[0] = 1
        for n in range(1, N):
            new = [0] * N
            for j in range(0, min(24, (N - 1) // n) + 1):
                c = (-1) ** j * comb(24, j)
                e = n * j
                for i in range(N - e):
                    if prod[i]:
                        new[i + e] += c * prod[i]
            prod = new
        for n in range(1, 201):
            assert d200[n] == (prod[n - 1] if n - 1 < N else 0)
        assert time.monotonic() - t0 < 5.0
