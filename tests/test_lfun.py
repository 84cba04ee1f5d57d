"""L-evaluators: degree-2 and degree-4 values against direct-summation
oracles and reference numerics, Rankin norms, and the functional-equation
residual certificates."""

import functools
import hashlib
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import (
    dps_to_prec, fone, from_float, from_int, from_man_exp, fzero, mpf_ceil, mpf_shift, mpf_sub,
    round_nearest, to_float, to_int,
)

from spinl import QSeries, delta_qexp, g20_qexp, rankin_coeffs
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
    round_to,
    QuadratureError,
)
from spinl.numeric_lfun import evaluators, special

from reference_values import (
    FROZEN_DELTA_NORM,
    FROZEN_G20_NORM,
    REF_DELTA_NORM,
    REF_G20_NORMS,
    TABLE3_NUMERIC as RANKIN_NUMERIC,
)


def _gamma_table(ctx, n, dps, f=1):
    """The degree-2 table's entries, mantissas at one exponent, as mpf in ctx."""
    exp, mantissas = evaluators._deg2_table(n, dps, f)
    return [ctx.make_mpf(from_man_exp(m, exp)) for m in mantissas]


def _exact(v) -> Fraction:
    """A libmp value, exactly."""
    sign, man, exp, _ = v
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _ulp(v, dps) -> Fraction:
    """One unit in the last place of a libmp value rounded to dps digits."""
    _, _, exp, bc = v
    return Fraction(2) ** (exp + bc - dps_to_prec(dps))


def _fresh_kernel_cache(patch):
    """Give kernel_mellin_check an empty cache of its own under patch, so
    that a run is cold and leaves the shared cache as it was."""
    fresh = functools.lru_cache(maxsize=4)(evaluators._kernel_errors.__wrapped__)
    patch.setattr(evaluators, "_kernel_errors", fresh)


def _deg4_term(ctx, s, n):
    """F(s, (2 pi)^2 n) at ctx's precision, read through _deg4_sum with the
    unit coefficient vector at n."""
    return evaluators._deg4_sum(ctx, (0,) * (n - 1) + (1,), s)


def _deg4_quad(ctx, s, n):
    """F(s, a) = 4 a^(-11/2) int_1^V v^(2s-12) K_11(2 sqrt(a) v) dv at
    a = (2 pi)^2 n by tanh-sinh, the oracle of the closed form.  The cut V
    is where v^(2s-12) e^(-2 sqrt(a) (v-1)), the integrand relative to its
    value at v = 1, falls below 10^-(dps+8).  The integrand is scaled by
    e^(2 sqrt(a)), as tanh-sinh's stopping test is absolute."""
    from spinl.numeric_lfun import bessel_k, tanh_sinh

    a = (2 * ctx.pi) ** 2 * n
    root = 2 * ctx.sqrt(a)
    s = ctx.convert(s)
    scale = ctx.exp(root)

    def f(v):
        return v ** (2 * s - 12) * ctx.convert(bessel_k(11, root * v, ctx.dps)) * scale

    # V = 1 + (B + (2s-12) log V) / root by fixed-point iteration: it
    # climbs monotonically for s > 6
    B, c, r = (ctx.dps + 8) * math.log(10), 2 * float(s) - 12, float(root)
    V, prev = 1 + B / r, 0.0
    while abs(V - prev) > 1e-9 * V:
        V, prev = 1 + (B + c * math.log(V)) / r, V
    val = tanh_sinh(ctx, f, ctx.one, V, max_level=8)
    return 4 * a ** ctx.mpf("-5.5") * val / scale


@functools.lru_cache(maxsize=None)
def _deg4_quad_at(s: str, n: int, dps: int):
    return _deg4_quad(context(dps), s, n)


class TestLDegree2:
    def test_delta_s11_against_direct_sum(self):
        # sum tau(n) n^-11 converges absolutely (|tau(n)| <= d(n) n^5.5)
        ctx = context(40)
        N = 10_000
        tau = delta_qexp(N).integer_coeffs()
        direct = ctx.fsum(tau[n] * ctx.mpf(n) ** -11 for n in range(1, N + 1))
        afe = ctx.convert(l_degree2(delta_qexp(25), 12, 11, 30, 20))
        # tail of the direct sum dominates the comparison
        assert abs(afe - direct) < ctx.mpf("1e-15")

    def test_delta_s8_against_mellin_quadrature(self):
        # independent oracle with no incomplete-gamma machinery:
        # (2 pi)^s / Gamma(s) * int_0^inf Delta(iy) y^(s-1) dy
        from spinl.numeric_lfun import tanh_sinh

        ctx = context(40)
        tau = delta_qexp(400).integer_coeffs()

        def f_iy(y):
            q = ctx.exp(-2 * ctx.pi * y)
            acc = ctx.zero
            qn = ctx.one
            for n in range(1, len(tau)):
                qn *= q
                term = tau[n] * qn
                acc += term
                if n > 8 and abs(term) < ctx.eps * (abs(acc) + ctx.mpf("1e-30")):
                    break
            return acc

        s = 8
        y_hi = (ctx.dps + 8) * ctx.log(10) / (2 * ctx.pi) + 1
        val = tanh_sinh(ctx, lambda y: f_iy(y) * y ** (s - 1), ctx.mpf("0.045"), ctx.one)
        val += tanh_sinh(ctx, lambda y: f_iy(y) * y ** (s - 1), ctx.one, y_hi)
        oracle = val * (2 * ctx.pi) ** s / ctx.gamma(s)
        afe = ctx.convert(l_degree2(delta_qexp(25), 12, 8, 34, 22))
        assert abs(afe - oracle) / oracle < ctx.mpf("1e-30")

    def test_g20_s19_against_direct_sum(self):
        ctx = context(40)
        N = 4000
        b = g20_qexp(N).integer_coeffs()
        direct = ctx.fsum(b[n] * ctx.mpf(n) ** -19 for n in range(1, N + 1))
        afe = ctx.convert(l_degree2(g20_qexp(30), 20, 19, 30, 25))
        assert abs(afe - direct) / direct < ctx.mpf("1e-12")

    def test_coefficient_count_guard(self):
        with pytest.raises(ValueError):
            l_degree2(delta_qexp(25), 12, 11, 30, 5)  # M far too small for D

    def test_form_length_guard(self):
        with pytest.raises(ValueError):
            l_degree2(delta_qexp(10), 12, 11, 30, 20)

    def test_weight_guard(self):
        with pytest.raises(ValueError):
            l_degree2(delta_qexp(25), 14, 11, 30, 20)

    def test_stability_in_m(self):
        ctx = context(36)
        a = ctx.convert(l_degree2(delta_qexp(40), 12, 6, 30, 20))
        b = ctx.convert(l_degree2(delta_qexp(40), 12, 6, 30, 30))
        assert abs(a - b) < ctx.mpf("1e-28")

    @pytest.mark.parametrize("n", [1, 7, 60])
    def test_gamma_table_matches_gamma_upper(self, n):
        # the shared table's recurrence against the finite-sum Gamma(j, x)
        from spinl.numeric_lfun import gamma_upper

        ctx = context(50)
        x = 2 * ctx.pi * n
        table = _gamma_table(ctx, n, 40)
        assert len(table) == 20
        for j, g in enumerate(table, start=1):
            ref = x ** -j * ctx.convert(gamma_upper(j, x, 45))
            assert abs(g - ref) / ref < ctx.mpf("1e-38"), j


class TestLDegree2Precision:
    """l_degree2 at D digits against itself at D + 15, over the strip."""

    @settings(max_examples=100, deadline=None)
    @given(
        k=st.sampled_from([12, 20]),
        data=st.data(),
        dps=st.integers(15, 60),
    )
    def test_agrees_with_fifteen_more_digits(self, k, data, dps):
        s = data.draw(st.one_of(
            st.integers(1, k - 1),
            st.floats(0, k, exclude_min=True, exclude_max=True),
        ))
        form = delta_qexp(40) if k == 12 else g20_qexp(40)
        lo, hi = l_degree2(form, k, s, dps, 40), l_degree2(form, k, s, dps + 15, 40)
        ctx = context(dps + 15)
        assert abs(ctx.convert(lo) - hi) <= abs(hi) * ctx.mpf(10) ** (1 - dps)

    @pytest.mark.parametrize("k", [12, 20])
    @pytest.mark.parametrize("edge", [0, "k", -0.5, "k + 0.5"])
    def test_outside_the_strip_raises(self, k, edge):
        s = {"k": k, "k + 0.5": k + 0.5}.get(edge, edge)
        form = delta_qexp(40) if k == 12 else g20_qexp(40)
        with pytest.raises(ValueError):
            l_degree2(form, k, s, 30, 40)


class TestDeg4Precision:
    """Degree-4 Lambda at D digits against itself at D + 15, at any real t
    in (11, 20)."""

    @settings(max_examples=10, deadline=None)
    @given(
        t=st.floats(11, 20, exclude_min=True, exclude_max=True),
        dps=st.integers(15, 45),
    )
    def test_agrees_with_fifteen_more_digits(self, t, dps):
        from spinl import rankin_coeffs
        from spinl.numeric_lfun.evaluators import _lambda

        A = rankin_coeffs(20)
        A = tuple(A[n] for n in range(1, 21))
        lo, hi = (_lambda(context(d), 4, 31, 1, A, t) for d in (dps, dps + 15))
        assert abs(hi.context.convert(lo) - hi) <= abs(hi) * hi.context.mpf(10) ** (1 - dps)


class TestDeg2M:
    """One rule picks the degree-2 M wherever the package picks it: the
    fewest coefficients _deg2_tail_ok accepts at the digits asked for."""

    @pytest.mark.parametrize("k", [12, 20])
    @pytest.mark.parametrize("D", [15, 30, 60, 150])
    def test_l_degree2_accepts_it_and_refuses_one_less(self, delta200, g20_200, k, D):
        M = evaluators._deg2_m(k, D)
        form = delta200 if k == 12 else g20_200
        l_degree2(form, k, k - 1, D, M)
        with pytest.raises(ValueError):
            l_degree2(form, k, k - 1, D, M - 1)

    @pytest.mark.parametrize("k", [12, 20])
    def test_tail_rule_reads_the_table_decay(self, k):
        # _deg2_tail_ok once spelled out -2 pi (M + 1) / ln 10 itself
        # instead of _deg2_scale(M + 1): the same M at every D
        def old_m(D):
            M = 1
            while not (
                3 + ((k - 1) / 2 + 1) * math.log10(M + 2) - 2 * math.pi * (M + 1) / math.log(10)
                < -(D + 2)
            ):
                M += 1
            return M

        for D in range(15, 401):
            assert evaluators._deg2_m(k, D) == old_m(D)

    def test_verify_searches_each_floor_once(self, monkeypatch):
        # _deg2_m is memoized: a verify run searches each (k, dps) it uses
        # once, and a second run searches none
        from spinl.numeric_lfun import verify_tables

        searched = []
        tail_ok = evaluators._deg2_tail_ok

        def spy(k, M, dps):
            searched.append((k, dps))
            return tail_ok(k, M, dps)

        monkeypatch.setattr(evaluators, "_deg2_tail_ok", spy)
        evaluators._deg2_m.cache_clear()
        evaluators._norm.cache_clear()  # a memoized norm reads no floor
        verify_tables(30, 150)
        info = evaluators._deg2_m.cache_info()
        used = set(searched)
        assert used == {(12, 30), (20, 30)}
        assert info.misses == info.currsize == len(used)
        assert info.hits > 0
        for k, dps in used:  # one search of M = 1, 2, ..., _deg2_m(k, dps)
            assert searched.count((k, dps)) == evaluators._deg2_m(k, dps)
        searched.clear()
        verify_tables(30, 150)
        assert searched == [] and evaluators._deg2_m.cache_info().misses == len(used)

    @pytest.mark.parametrize("D", [30, 80])
    def test_delta_rows_do_not_follow_the_degree4_m(self, D):
        # once tied to M, verify_tables(80, 20) took 20 coefficients and
        # raised; 20 is now below the degree-4 floor at D = 80
        from spinl.numeric_lfun import verify_tables

        rows = [
            [r for r in verify_tables(D, M).as_dict()["rows"] if r["branch"] == "delta_pair"]
            for M in (evaluators._deg4_m(D), 150)
        ]
        assert len(rows[0]) == 8 and rows[0] == rows[1]

    def test_verify_at_150_digits(self):
        # verify once tied the degree-2 M to max(20, min(M, 60)): too few
        # coefficients for 150 digits, so this run raised
        from spinl.numeric_lfun import verify_tables

        ctx = context(150)
        assert ctx.convert(verify_tables(150, 1000).max_rel_diff) < ctx.mpf("1e-140")


class TestLRankin4:
    @pytest.mark.parametrize("s", [12, 15, 19])
    def test_reference_numerics(self, rankin150, s):
        ctx = context(35)
        got = ctx.convert(l_rankin4(rankin150, s, 30, 150))
        ref = ctx.mpf(RANKIN_NUMERIC[s])
        assert abs(got - ref) / ref < ctx.mpf("1e-9")

    def test_s19_against_zeta_weighted_direct_sum(self, rankin150):
        # L(19) = zeta(8) * sum tau(n) b(n) n^-19 with a Deligne tail bound:
        # |tau b|(n) <= d(n)^2 n^15.5, so the tail past N is below
        # d_max^2 / (2.5 N^2.5) relative to a value of order 1
        from spinl import zeta_exact
        from pivalue_oracle import pi_value_numeric

        ctx = context(40)
        N = 4000
        tau = delta_qexp(N).integer_coeffs()
        b = g20_qexp(N).integer_coeffs()
        partial = ctx.fsum(
            tau[n] * b[n] * ctx.mpf(n) ** -19 for n in range(1, N + 1)
        )
        z8 = ctx.convert(pi_value_numeric(zeta_exact(8), 38))
        oracle = z8 * partial
        d_max = 48  # max divisor count below 4000
        tail = d_max**2 * ctx.mpf(N) ** ctx.mpf("-2.5") / ctx.mpf("2.5") * z8
        got = ctx.convert(l_rankin4(rankin150, 19, 30, 150))
        assert abs(got - oracle) <= tail + ctx.mpf("1e-25")

    def test_stability_in_m(self, rankin150):
        from spinl import rankin_coeffs

        ctx = context(35)
        a = ctx.convert(l_rankin4(rankin150, 14, 30, 150))
        b = ctx.convert(l_rankin4(rankin_coeffs(160), 14, 30, 160))
        assert abs(a - b) / a < ctx.mpf("1e-25")

    def test_precision_sweep(self):
        # (D, M) = (30, 150) and (45, 300) share no cached node
        from spinl import rankin_coeffs

        A = rankin_coeffs(300)
        ctx = context(50)
        for s in range(12, 20):
            a = ctx.convert(l_rankin4(A, s, 30, 150))
            b = ctx.convert(l_rankin4(A, s, 45, 300))
            assert abs(a - b) / abs(b) < ctx.mpf("1e-29"), s

    def test_rejects_bad_s(self, rankin150):
        for s in (11, 20, None, "12", 12.5):
            with pytest.raises(ValueError, match="s must be an integer in 12..19"):
                l_rankin4(rankin150, s, 30, 150)

    def test_accepts_a_real_s_equal_to_an_integer(self, rankin150):
        assert l_rankin4(rankin150, 12.0, 30, 150) == l_rankin4(rankin150, 12, 30, 150)

    def test_rejects_meaningless_m(self, rankin150):
        with pytest.raises(ValueError):
            l_rankin4(rankin150, 15, 30, 5)


class TestKernel:
    def test_mellin_identity_spot(self):
        err = kernel_mellin_check(15, 22)
        ctx = context(22)
        assert ctx.convert(err) < ctx.mpf("1e-18")

    def test_certifies_to_the_requested_digits(self):
        # the piece below v = 2e-6 is ~6e-26 relative at s0 = 13; left out,
        # no D >= 26 could be certified
        err = kernel_mellin_check(13, 28)
        ctx = context(28)
        assert ctx.convert(err) < ctx.mpf("1e-26")

    def test_rejects_low_s(self):
        with pytest.raises(ValueError):
            kernel_mellin_check(12, 20)

    @pytest.mark.parametrize("s0", [20, 13.5, "13"])
    def test_rejects_points_off_the_node_set(self, s0):
        with pytest.raises(ValueError):
            kernel_mellin_check(s0, 20)

    @pytest.mark.parametrize("s0", range(13, 20))
    def test_all_seven_points(self, s0):
        # the cut follows s0: one sized for s0 = 13 leaves s0 = 19 ~1e-38
        ctx = context(30)
        assert ctx.convert(kernel_mellin_check(s0, 30)) < ctx.mpf("1e-45")

    def test_coarser_step_raises(self, monkeypatch):
        # twice the step is the node set one level too coarse
        monkeypatch.setattr(evaluators, "_KERNEL_RATE", 2 * evaluators._KERNEL_RATE)
        _fresh_kernel_cache(monkeypatch)
        with pytest.raises(QuadratureError):
            kernel_mellin_check(13, 30)

    @staticmethod
    def _kernel_run(dps):
        """A cold _kernel_errors(dps) with every _k0_k1 call, _k_step call
        and node recorded: (calls, steps, xs, pairs), the X = 2v and their
        K_0/K_1 pairs as _kernel_pairs returns them."""
        calls, steps, seen = [], [], []
        core, step, pairs = evaluators._k0_k1, evaluators._k_step, evaluators._kernel_pairs
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluators, "_k0_k1", lambda *a: calls.append(a) or core(*a))
            patch.setattr(evaluators, "_k_step", lambda *a: steps.append(a) or step(*a))
            patch.setattr(
                evaluators, "_kernel_pairs", lambda xs, d: seen.append((xs, d, pairs(xs, d))) or seen[-1][2]
            )
            _fresh_kernel_cache(patch)
            evaluators._kernel_errors(dps)
        ((xs, d, got),) = seen
        assert d == dps + 12
        return calls, steps, xs, got

    def test_node_budget(self):
        # nodes at v0 + e^(t - e^-t): 188 at D = 30, 297 at D = 60 (spread
        # evenly in log v down to v0 they would take ~400 at D = 30).
        # _k0_k1 runs at the nodes below X = 2v = 1 (its series), past its
        # series cut (the asymptotic pair) and once more for the descent's
        # seed, at D + 17 digits; every X between is one _k_step
        for dps, nodes, below, past in ((30, 188, 101, 23), (60, 297, 159, 31)):
            calls, steps, xs, _ = self._kernel_run(dps)
            cut = special._series_cut(dps + 12)
            floats = [to_float(x) for x in xs]
            assert len(xs) == nodes
            assert (sum(x < 1 for x in floats), sum(x > cut for x in floats)) == (below, past)
            assert len(calls) == below + past + 1
            assert len(steps) == nodes - below - past
            (seed,) = [a for a in calls if a[1] != dps + 12]
            assert seed[1] == dps + 17 and to_float(seed[0]) == min(x for x in floats if x > cut)
            assert all(not 1 <= to_float(a[0]) <= cut for a in calls if a is not seed)

    # the integers of every K_0/K_1 pair the check takes, at D + 12
    PAIRS_SHA256 = {
        30: "03c81989cf42d9582a943c2048ddd9ffee3d700ccc2cce09e21c7bdce78724c6",
        60: "af73cb69a92d5bb6bae3f589f97554c1c53515cd0e5c403ade1cf8b1214b6045",
    }

    @pytest.mark.parametrize("dps", sorted(PAIRS_SHA256))
    def test_pair_integers(self, dps):
        _, _, _, pairs = self._kernel_run(dps)
        assert hashlib.sha256(repr(pairs).encode()).hexdigest() == self.PAIRS_SHA256[dps]

    @pytest.mark.parametrize("dps", [20, 30, 60])
    def test_descended_pairs(self, dps):
        # each pair the descent gives, 1 <= X <= cut, against _k0_k1's series
        # 20 digits up and against mpmath's besselk: ~10^-(D' + 16) off at
        # D' = D + 12; a seed at D' instead of D' + 5 leaves ~10^-(D' + 10).
        # besselk at D' + 20 agrees with itself at D' + 40 to 10^-(D' + 20)
        # at every descended X for these D, and costs a third less. At
        # D = 60 besselk takes nearly all the time, so it checks the first
        # and the last X and every 4th between them; the series checks all
        _, _, xs, pairs = self._kernel_run(dps)
        d = dps + 12
        cut = special._series_cut(d)
        mp = mpmath.mp.clone()
        mp.prec = dps_to_prec(d + 20)
        tol = mp.mpf(10) ** -(d + 14)
        descended = [(x, p) for x, p in zip(xs, pairs) if 1 <= to_float(x) <= cut]
        assert len(descended) > 50
        last = len(descended) - 1
        for i, (x, (k0, k1, exp)) in enumerate(descended):
            _, s0, s1, s_exp = special._k0_k1(x, d + 20)
            got = [mp.mpf(from_man_exp(k, exp)) for k in (k0, k1)]
            for g, k in zip(got, (s0, s1)):
                assert abs(g / mp.mpf(from_man_exp(k, s_exp)) - 1) < tol, to_float(x)
            if dps < 60 or i % 4 == 0 or i == last:
                for g, nu in zip(got, (0, 1)):
                    assert abs(g / mp.besselk(nu, mp.mpf(x)) - 1) < tol, to_float(x)

    @pytest.mark.parametrize("dps", [22, 28, 30, 60])
    def test_half_step_gate_has_margin(self, monkeypatch, dps):
        # the a-priori step passes the gate with ten times to spare
        monkeypatch.setattr(evaluators, "_KERNEL_GATE", evaluators._KERNEL_GATE + 1)
        _fresh_kernel_cache(monkeypatch)
        kernel_mellin_check(19, dps)


class TestPeterssonNorm:
    def test_delta_norm_fields(self):
        pn = petersson_norm(12, 4, 30)
        assert pn.k == 12 and pn.l_used == 8
        assert pn.value > 0

    def test_delta_norm_matches_reference_to_its_accuracy(self):
        # the printed reference carries ~16-17 trustworthy digits
        ctx = context(34)
        got = ctx.convert(petersson_norm(12, 4, 30).value)
        ref = ctx.mpf(REF_DELTA_NORM)
        assert abs(got - ref) / ref < ctx.mpf("1e-15")

    @pytest.mark.parametrize("r", [4, 6, 8])
    def test_g20_norms_match_reference_to_their_accuracy(self, r):
        ctx = context(34)
        got = ctx.convert(petersson_norm(20, r, 30).value)
        ref = ctx.mpf(REF_G20_NORMS[r])
        assert abs(got - ref) / ref < ctx.mpf("1e-15")

    def test_three_g20_choices_agree_pairwise(self):
        ctx = context(34)
        vals = [ctx.convert(petersson_norm(20, r, 30).value) for r in (4, 6, 8)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(vals[i] - vals[j]) / vals[i] < ctx.mpf("1e-20")

    def test_precision_stability(self):
        ctx = context(40)
        a = ctx.convert(petersson_norm(12, 4, 30).value)
        b = ctx.convert(petersson_norm(12, 4, 36).value)
        assert abs(a - b) / a < ctx.mpf("1e-28")

    def test_stored_norms_regenerate(self):
        ctx = context(40)
        dn, gn = round_to(38, FROZEN_DELTA_NORM), round_to(38, FROZEN_G20_NORM)
        assert abs(ctx.convert(petersson_norm(12, 4, 34).value) - dn) / dn < ctx.mpf("1e-30")
        assert abs(ctx.convert(petersson_norm(20, 4, 34).value) - gn) / gn < ctx.mpf("1e-30")

    def test_rejects_bad_pair(self):
        for k, r in ((12, 6), (20, 5), (16, 4)):
            with pytest.raises(ValueError):
                petersson_norm(k, r, 30)

    def test_norm_map_follows_petersson_factors(self):
        # the tables and verify both read a result's norm from this map
        from spinl import PeterssonFactors
        from spinl.numeric_lfun.verify import _norms

        norms = _norms(context(40), 30)
        dn, gn = petersson_norm(12, 4, 30).value, petersson_norm(20, 4, 30).value
        assert round_to(30, norms[PeterssonFactors.DELTA_DELTA]) == dn
        assert round_to(30, norms[PeterssonFactors.G20_G20]) == gn
        both = norms[PeterssonFactors.DELTA_DELTA] * norms[PeterssonFactors.G20_G20]
        assert norms[PeterssonFactors.BOTH] == both


class TestFunctionalEquation:
    def test_delta_residuals(self):
        spec = delta_lfunction(30)
        ctx = context(30)
        for t in ("2.3", "4.8", "7.3"):
            r = functional_eq_residual(spec, None, ctx.mpf(t), 30, 20)
            assert ctx.convert(r) < ctx.mpf("1e-20")

    def test_g20_residuals(self):
        spec = g20_lfunction(35)
        ctx = context(30)
        for t in ("6.5", "10.0", "13.7"):
            r = functional_eq_residual(spec, None, ctx.mpf(t), 30, 25)
            assert ctx.convert(r) < ctx.mpf("1e-20")

    def test_rankin_residuals(self, rankin150):
        spec = rankin_lfunction(150)
        ctx = context(30)
        for t in ("12.5", "15.5"):
            r = functional_eq_residual(spec, None, ctx.mpf(t), 30, 150)
            assert ctx.convert(r) < ctx.mpf("1e-20")

    def test_integer_reflection_pair(self):
        # Lambda(5) = Lambda(7) for the weight-12 form
        spec = delta_lfunction(30)
        ctx = context(30)
        r = functional_eq_residual(spec, None, ctx.mpf(5), 30, 20)
        assert ctx.convert(r) < ctx.mpf("1e-25")

    def test_central_point(self):
        spec = delta_lfunction(30)
        ctx = context(30)
        r = functional_eq_residual(spec, None, ctx.mpf(6), 30, 20)
        assert ctx.convert(r) == 0

    def test_strip_validation(self):
        spec = delta_lfunction(30)
        with pytest.raises(ValueError):
            functional_eq_residual(spec, None, 12.5, 30, 20)
        # M = 0 once summed nothing and returned 0.0
        for spec, t in ((spec, 5), (rankin_lfunction(20), 13.5)):
            for M in (0, -1):
                with pytest.raises(ValueError):
                    functional_eq_residual(spec, None, t, 30, M)
        # an M beyond the accessor's coefficients once raised IndexError
        for spec, t in ((delta_lfunction(10), 5), (rankin_lfunction(10), 13.5)):
            with pytest.raises(ValueError, match="beyond"):
                functional_eq_residual(spec, None, t, 30, 20)
        # at degree 2 an M below _deg2_m is refused, as by l_degree2
        for spec, k in ((delta_lfunction(30), 12), (g20_lfunction(30), 20)):
            M = evaluators._deg2_m(k, 30)
            functional_eq_residual(spec, None, 5, 30, M)
            with pytest.raises(ValueError, match="too small"):
                functional_eq_residual(spec, None, 5, 30, M - 1)

    @pytest.mark.parametrize("t", [11, 20, 5.3, 25.7])
    def test_rankin_outside_11_20_raises(self, t):
        # the degree-4 closed form is all-positive only for 11 < t < 20
        with pytest.raises(ValueError):
            functional_eq_residual(rankin_lfunction(20), None, t, 20, 20)

    def test_rankin_just_inside_11_is_accepted(self):
        # the domain is checked exactly: m = 2t - 23 = -1 + 2^-39
        assert functional_eq_residual(rankin_lfunction(20), None, 11 + 2.0**-40, 20, 20) == 0

    def test_spec_shapes(self):
        d = delta_lfunction(15)
        g = g20_lfunction(15)
        r = rankin_lfunction(15)
        assert d.gamma_shifts == (0, 1) and d.weight == 12 and d.sign == 1
        assert g.gamma_shifts == (0, 1) and g.weight == 20 and g.sign == 1
        assert r.gamma_shifts == (0, 1, -11, -10) and r.weight == 31 and r.sign == 1
        assert d.conductor == g.conductor == r.conductor == 1
        assert d.coefficients(2) == -24 and g.coefficients(2) == 456
        assert r.coefficients(2) == -10944


_GATE_D = 30
_GATE_ENTRIES = ("l_degree2", "l_rankin4", "residual_deg2", "residual_deg4")


def _gate_call(entry, M, N, bad=None):
    """entry at D = 30 over M coefficients from a source that holds N of
    them, a(2) replaced by bad when it is given."""
    if entry == "l_degree2":
        cs = list(delta_qexp(N).coeffs)
        cs[2] = cs[2] if bad is None else bad
        return l_degree2(QSeries(cs, N), 12, 6, _GATE_D, M)
    if entry == "l_rankin4":
        vals = list(rankin_coeffs(N).coeffs)
        vals[2] = vals[2] if bad is None else bad
        return l_rankin4(QSeries(vals, N), 15, _GATE_D, M)
    spec = delta_lfunction(N) if entry == "residual_deg2" else rankin_lfunction(N)
    a = spec.coefficients
    crooked = None if bad is None else (lambda n: bad if n == 2 else a(n))
    t = 5 if entry == "residual_deg2" else 13.5
    return functional_eq_residual(spec, crooked, t, _GATE_D, M)


def _gate_m(entry):
    """The fewest coefficients the one rule accepts for entry at D = 30."""
    return evaluators._deg4_m(_GATE_D) if entry.endswith("4") else evaluators._deg2_m(12, _GATE_D)


class TestCoefficientGate:
    """Every smoothed sum reads a(1..M) and decides that M is enough in
    evaluators._coefficients, so every entry point refuses the same inputs."""

    @pytest.mark.parametrize("entry", _GATE_ENTRIES)
    def test_accepts_the_rule_m(self, entry):
        M = _gate_m(entry)
        _gate_call(entry, M, M)

    @pytest.mark.parametrize("entry", _GATE_ENTRIES)
    @pytest.mark.parametrize(
        "case", ["M = 0", "M one below the rule", "M beyond the coefficients",
                 "float coefficient", "Fraction coefficient"],
    )
    def test_refusals(self, entry, case):
        M = _gate_m(entry)
        args = {
            "M = 0": (0, M),
            "M one below the rule": (M - 1, M),
            "M beyond the coefficients": (M, M - 1),
            "float coefficient": (M, M, 0.5),
            "Fraction coefficient": (M, M, Fraction(1, 2)),
        }[case]
        with pytest.raises(ValueError):
            _gate_call(entry, *args)

    def test_integral_float_from_an_accessor(self):
        # an accessor's -24.0 for tau(2) once reached the integer sums and
        # raised TypeError there
        spec = delta_lfunction(30)
        with pytest.raises(ValueError, match="int"):
            functional_eq_residual(spec, lambda n: float(spec.coefficients(n)), 5, 30, 20)

    def test_the_entry_points_have_no_reader_of_their_own(self, monkeypatch):
        # each entry point reads its coefficients through the one gate
        seen = []
        real = evaluators._coefficients

        def spy(a, M, degree, w, dps):
            seen.append((M, degree, w))
            return real(a, M, degree, w, dps)

        monkeypatch.setattr(evaluators, "_coefficients", spy)
        for entry in _GATE_ENTRIES:
            M = _gate_m(entry)
            _gate_call(entry, M, M)
        petersson_norm(12, 4, 20)
        m12, m31 = evaluators._deg2_m(12, _GATE_D), evaluators._deg4_m(_GATE_D)
        assert seen == [(m12, 2, 12), (m31, 4, 31), (m12, 2, 12), (m31, 4, 31),
                        (evaluators._deg2_m(12, 20), 2, 12)]


class TestResidualCustomCoefficients:
    def test_override_accessor_changes_lambda(self):
        # a residual evaluated with corrupted coefficients is still tiny
        # (the identity is formal), but the underlying Lambda must move
        from spinl.numeric_lfun.evaluators import _lambda

        spec = delta_lfunction(30)
        ctx = context(30)
        tau = [spec.coefficients(n) for n in range(0, 25)]

        def crooked(n):
            return tau[n] + (1 if n == 2 else 0)

        t = ctx.mpf("7.3")
        r = functional_eq_residual(spec, crooked, t, 24, 20)
        assert ctx.convert(r) < ctx.mpf("1e-18")
        good = _lambda(ctx, 2, 12, 1, tuple(tau[1:21]), t)
        bad = _lambda(ctx, 2, 12, 1, tuple(crooked(n) for n in range(1, 21)), t)
        assert abs(good - bad) > ctx.mpf("1e-7")


class TestMellinTailRoutes:
    @pytest.mark.parametrize(
        "s_str,n",
        [("14.0", 1), ("15.5", 1), ("12.5", 4), ("18.5", 2),
         ("12.0", 1), ("19.0", 3), ("12.0", 149), ("19.0", 150), ("19.5", 1), ("19.9", 2)],
    )
    def test_closed_form_matches_quadrature(self, s_str, n):
        # integer s terminates the parts-reduction in K_0/K_1, half-integer
        # s in the Bickley function; both must agree with direct tanh-sinh,
        # from the first critical point to the last, and to the end of
        # the chains (m = 2s - 23 = 16 and 16.8)
        ctx = context(40)
        s = ctx.mpf(s_str)
        closed = _deg4_term(ctx, s, n)
        quad = _deg4_quad(ctx, s, n)
        assert abs(closed - quad) / abs(quad) < ctx.mpf("1e-35")

    @pytest.mark.parametrize("D", [30, 60])
    @pytest.mark.parametrize("n", [1, 2, 61, 150])
    @pytest.mark.parametrize("s_str", ["12.01", "12.1875", "12.8125", "13.3", "15.25", "17.7"])
    def test_real_s_matches_quadrature(self, s_str, n, D):
        # a generic real s: the class mu = 2s - 23 - 2i of m is seeded by
        # the generalised Bickley sum; at D + 10, the working precision of
        # D, against the oracle at 80 digits.  s = 12.8125 seeds the class
        # mu = 5/8, where the seed's expansion has a zero term, and 12.1875,
        # its image under s -> 25 - s, the class -5/8
        ctx = context(D + 10)
        closed = _deg4_term(ctx, ctx.mpf(s_str), n)
        quad = _deg4_quad_at(s_str, n, 80)
        assert abs(quad.context.convert(closed) - quad) < abs(quad) * ctx.mpf(10) ** -(D + 5)

    def test_quadrature_cut_follows_the_power_of_v(self):
        # the oracle's cut: at s = 25.5 the factor v^(2s-12) = v^39 delays
        # the integrand's decay; a cut set by e^(-2 sqrt(a) v) alone lost
        # ~9 digits here.  Against the closed form at m = 28 in mpmath
        # alone: besselk at one point, Ki_1 by mpmath's quad, R_m by parts
        import mpmath

        ctx = context(40)
        quad = _deg4_quad(ctx, ctx.mpf("25.5"), 1)
        mp = mpmath.mp.clone()
        mp.dps = 50
        a = (2 * mp.pi) ** 2
        X = 2 * mp.sqrt(a)
        K = [mp.besselk(0, X), mp.besselk(1, X)]
        for j in range(1, 10):
            K.append(K[j - 1] + 2 * j / X * K[j])
        ki1 = mp.quad(lambda t: mp.exp(-X * (mp.cosh(t) - 1)) / mp.cosh(t), [0, 1, 2, 4])
        R = [mp.exp(-X) * ki1, X * K[1]]
        for m in range(2, 29):
            R.append(X**m * K[1] + (m - 1) * X ** (m - 1) * K[0] + (m - 1) ** 2 * R[m - 2])
        p = [mp.one]
        for j in range(1, 12):
            p.append(p[-1] * (mp.mpf("25.5") - j))
        w = [K[10 - j] / a ** (j + 1) / (X / 2) ** (10 - j) for j in range(11)]
        ref = 2 * (mp.fsum(pj * wj for pj, wj in zip(p, w)) + p[11] * 2 / a**11 * R[28] / X**29)
        assert abs(mp.convert(quad) - ref) / ref < mp.mpf("1e-38")


class TestDeg4SumRoutes:
    def test_near_half_integer_s_seeds_its_own_class(self):
        # 2s = 25 + 2e-14 is not an integer: its class mu ~ 2e-14 is seeded
        # on its own; the half-integer chain (mu = 0) would be off by
        # ~2e-18 here
        ctx = context(40)
        s = ctx.mpf("12.5") + ctx.mpf("1e-14")
        got = _deg4_term(ctx, s, 1)
        quad = _deg4_quad(ctx, s, 1)
        assert abs(got - quad) / abs(quad) < ctx.mpf("1e-35")
        mu = mpf_sub(mpf_shift(s._mpf_, 1), from_int(25))  # 2s - 25, exactly
        hits = evaluators._deg4_moments.cache_info().hits
        evaluators._deg4_moments((1,), mu, ctx.dps)  # the moments of mu, cached
        assert evaluators._deg4_moments.cache_info().hits == hits + 1

    def test_s_11_5_sums_the_even_chain(self, monkeypatch):
        # m = 2s - 23 = 0 is tau_0, the seed of the class mu = 0: no per-n
        # quadrature runs
        from spinl.numeric_lfun import quadrature

        ctx = context(40)
        s = ctx.mpf("11.5")
        coeffs = (1, -10944)
        quad = sum(c * _deg4_quad(ctx, s, n) for n, c in enumerate(coeffs, 1))

        def refuse(*args, **kwargs):
            raise AssertionError("per-n quadrature at s = 11.5")

        monkeypatch.setattr(quadrature, "tanh_sinh", refuse)
        got = evaluators._deg4_sum(ctx, coeffs, s)
        assert abs(got - quad) / abs(quad) < ctx.mpf("1e-35")

    @settings(max_examples=12, deadline=None)
    @given(t=st.floats(11, 20, exclude_min=True, exclude_max=True))
    def test_no_quadrature_at_any_real_t(self, t):
        # every real t in (11, 20) is one dot per side with seeded moments:
        # the evaluators hold no reference to tanh-sinh, and a refusing
        # one in its module is never reached
        import spinl.numeric_lfun as nl
        from spinl.numeric_lfun import quadrature

        def refuse(*args, **kwargs):
            raise AssertionError(f"quadrature at t = {t}")

        assert not hasattr(evaluators, "tanh_sinh")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadrature, "tanh_sinh", refuse)
            mp.setattr(nl, "tanh_sinh", refuse)
            assert functional_eq_residual(rankin_lfunction(20), None, t, 20, 20) == 0


def _split_grid():
    """libmp s in (11, 20): every 1/64, ~2,000 random floats and their
    neighbours one ulp away, each with 31 - s, exactly."""
    rng = random.Random(20)
    xs = [11 + k / 64 for k in range(1, 576)]
    for _ in range(2000):
        x = rng.uniform(11, 20)
        xs += [x, math.nextafter(x, 11), math.nextafter(x, 20)]
    xs += [float(j) + e for j in range(12, 20) for e in (-2.0**-40, 2.0**-40)]
    grid = [from_float(x) for x in xs if 11 < x < 20]
    return grid + [mpf_sub(from_int(31), s) for s in grid]


class TestSplit:
    """One class split, s = f + j with 0 < f <= 1, serves both smoothed
    sums.  _deg4_sum once reached its class another way: i = ceil(s - 12),
    mu = 1 - 2 (i - (s - 12)) and the T index 11 + i."""

    @staticmethod
    def _old(s):
        u = mpf_sub(s, from_int(12))
        i = to_int(mpf_ceil(u))
        return mpf_sub(fone, mpf_shift(mpf_sub(from_int(i), u), 1)), 11 + i

    def test_split_gives_the_ceiling_route(self):
        for s in _split_grid():
            f, j = evaluators._split(s)
            assert (mpf_sub(mpf_shift(f, 1), fone), j) == self._old(s)
            assert mpf_sub(s, from_int(j)) == f and 0 < to_float(f) <= 1

    def test_deg4_sum_reads_the_ceiling_route(self, monkeypatch):
        # the class _deg4_sum asks the moments for, and the entry it reads:
        # the fake moments are 1 at the old route's entry and 0 elsewhere
        ctx = context(30)
        asked = []

        def moments(coeffs, mu, dps):
            asked.append(mu)
            return tuple(fone if n == want else fzero for n in range(20))

        monkeypatch.setattr(evaluators, "_deg4_moments", moments)
        for s in _split_grid()[::7]:
            mu, want = self._old(s)
            got = evaluators._deg4_sum(ctx, (1,), ctx.make_mpf(s))
            assert asked.pop() == mu
            assert got == 2 * ctx.make_mpf(evaluators._falling(s, ctx.prec)[11])

    @pytest.mark.parametrize("D", [15, 30, 60])
    def test_falling_rounds_as_the_context_does(self, D):
        # _falling once multiplied context mpfs; its libmp values must be
        # that product, bit for bit, at every s the grid holds
        ctx = context(D)

        def oracle(s):
            p = [ctx.one]
            for j in range(1, 12):
                p.append(p[-1] * (s - j))
            return tuple(x._mpf_ for x in p)

        for s in map(ctx.make_mpf, _split_grid()):
            assert evaluators._falling(s._mpf_, ctx.prec) == oracle(s)



class TestLValueMemo:
    """The L-values and the norms are memoized as libmp values; each must be
    the number its per-call expression gives in a fresh context."""

    MEMOS = ("_l_value", "_norm")

    @staticmethod
    def _norm_oracle(k, r, D):
        # Rankin's formula with every factor written out per call
        from spinl.exact_arith import _zeta_rational, bernoulli
        from spinl.numeric_lfun.bigfloat import GUARD, render_exact

        ctx = context(D + GUARD)
        M, l = evaluators._deg2_m(k, D), k - r
        alpha = {j: -Fraction(2 * j) / bernoulli(j) for j in (r, l, k)}
        ratio = alpha[r] / (alpha[l] + alpha[r] - alpha[k])
        coeffs = (delta_qexp(M) if k == 12 else g20_qexp(M)).coeffs[1:M + 1]

        def L(s):
            s = ctx.convert(s)
            lam = evaluators._lambda(ctx, 2, k, (-1) ** (k // 2), coeffs, s)
            return lam * (2 * ctx.pi) ** s / ctx.gamma(s)

        value = (4 * ctx.pi) ** (1 - k) * ctx.factorial(k - 2) / render_exact(ctx, _zeta_rational(l), l)
        return (value * render_exact(ctx, ratio, 0) * L(k - 1) * L(l))._mpf_

    @pytest.mark.parametrize("D", [15, 30, 60])
    def test_each_memo_equals_its_expression(self, D):
        memos = [getattr(evaluators, name) for name in self.MEMOS]
        for fn in memos:
            fn.cache_clear()
        M2 = {k: evaluators._deg2_m(k, D) for k in (12, 20)}
        forms = {k: (delta_qexp(M) if k == 12 else g20_qexp(M)).coeffs[1:M + 1] for k, M in M2.items()}
        M4 = evaluators._deg4_m(D)
        A = rankin_coeffs(M4).coeffs[1:M4 + 1]
        misses = []
        for _ in range(2):  # the misses, then only hits
            misses.append([fn.cache_info().misses for fn in memos])
            ctx = context(D)
            for s in [*map(ctx.mpf, range(12, 20)), ctx.mpf(31) / 2 + ctx.mpf(1) / 7]:
                p = [ctx.one]
                for j in range(1, 12):
                    p.append(p[-1] * (s - j))
                assert evaluators._falling(s._mpf_, ctx.prec) == tuple(x._mpf_ for x in p)
            # degree 2: L(s) = Lambda(s) (2 pi)^s / Gamma(s)
            points = [(12, s) for s in range(2, 12)] + [(20, ctx.mpf(31) / 2 + ctx.mpf(1) / 7)]
            for k, s in points:
                s, sign = ctx.convert(s), (-1) ** (k // 2)
                lam = evaluators._lambda(ctx, 2, k, sign, forms[k], s)
                want = (lam * (2 * ctx.pi) ** s / ctx.gamma(s))._mpf_
                assert evaluators._l_value((0,), k, sign, forms[k], s._mpf_, D) == want
            # degree 4: L(s) = Lambda(s) (2 pi)^(2s) / (Gamma(s) Gamma(s-11))
            for s in range(12, 20):
                lam = evaluators._lambda(ctx, 4, 31, 1, A, s)
                want = (lam * (2 * ctx.pi) ** (2 * s) / (ctx.gamma(s) * ctx.gamma(s - 11)))._mpf_
                assert evaluators._l_value((0, -11), 31, 1, A, from_int(s), D) == want
            for k, r in sorted(evaluators._VALID_NORM_ARGS):
                assert evaluators._norm(k, r, D) == self._norm_oracle(k, r, D)
        assert all(misses[1]) and [fn.cache_info().misses for fn in memos] == misses[1]


class TestCoefficientSlices:
    """_coefficients reads a series the package holds as one slice of its
    tuple, and refuses what the accessor would refuse."""

    @staticmethod
    def _spied(monkeypatch):
        calls = []

        def spy(self, n, real=QSeries.__getitem__):
            calls.append(n)
            return real(self, n)

        monkeypatch.setattr(QSeries, "__getitem__", spy)
        return calls

    def test_held_series_read_as_slices(self, monkeypatch):
        form, A = delta_qexp(60), rankin_coeffs(60)
        want = [tuple(form[n] for n in range(1, 31)), tuple(A[n] for n in range(1, 51))]
        calls = self._spied(monkeypatch)
        got = [evaluators._coefficients(form.__getitem__, 30, 2, 12, 30),
               evaluators._coefficients(A.__getitem__, 50, 4, 31, 30)]
        assert got == want and calls == []

    def test_refusals_past_the_held_coefficients(self):
        # past the precision, of a truncated series and of a built one
        cases = [
            (QSeries(delta_qexp(60).coeffs, 40).__getitem__, 41, 2, 12),
            (rankin_coeffs(40).__getitem__, 41, 4, 31),
        ]
        for a, M, degree, w in cases:
            with pytest.raises(ValueError, match="beyond the coefficients: coefficient 41 beyond precision 40"):
                evaluators._coefficients(a, M, degree, w, 30)

    def test_a_custom_accessor_is_mapped_on_every_call(self):
        A = rankin_coeffs(40)
        want = A.coeffs[1:41]
        seen = []

        def a(n):
            seen.append(n)
            return A[n]

        for _ in range(2):
            assert evaluators._coefficients(a, 40, 4, 31, 30) == want
        assert seen == [*range(1, 41)] * 2

    # each spec's accessor is its series' own QSeries.__getitem__ (Delta's
    # and g20's were a list's, mapped one a(n) at a time), so its residuals
    # read a(1..M) as one slice, with the values and the refusals of an
    # accessor that is mapped
    SPECS = {
        "delta": (delta_lfunction, delta_qexp, 5, 12),
        "g20": (g20_lfunction, g20_qexp, 7, 20),
        "rankin": (rankin_lfunction, rankin_coeffs, 13.5, None),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_each_spec_is_read_as_a_slice(self, monkeypatch, name):
        lfunction, build, t, k = self.SPECS[name]
        A = build(60)
        M = evaluators._deg4_m(30) if k is None else evaluators._deg2_m(k, 30)
        mapped = functional_eq_residual(lfunction(60), lambda n: A[n], t, 30, M)
        errors = []
        for a in (lfunction(60).coefficients, lambda n: A[n]):
            with pytest.raises(ValueError) as err:
                functional_eq_residual(lfunction(60), a, t, 30, 61)
            errors.append(str(err.value))
        calls = self._spied(monkeypatch)  # before the spec, whose accessor it becomes
        spec = lfunction(60)
        assert repr(functional_eq_residual(spec, None, t, 30, M)) == repr(mapped)
        assert calls == [] and errors[0] == errors[1]


class _Counting:
    """An accessor that counts its reads and gives a(n) = 1."""

    def __init__(self):
        self.reads = 0

    def __getitem__(self, n):
        self.reads += 1
        return 1


def _residual(shifts, w, a, t):
    spec = evaluators.LFunctionSpec(shifts, 1, w, +1, a.__getitem__)
    return functional_eq_residual(spec, None, t, 30, 50)


class TestRefusedBeforeAnyRead:
    """A degree, weight or s outside the evaluators' domain is refused
    before the accessor gives any a(n), with the message _lambda gives."""

    CASES = {
        "degree 3": (lambda a: _residual((0, 1, 2), 12, a, 5), "only the degree-2 and degree-4"),
        "t = 25 at k = 12": (lambda a: _residual((0, 1), 12, a, 25), r"need 0 < s < k <= 20, got s = 25\.0"),
        "weight 30 at degree 4": (lambda a: _residual((0, 1, -11, -10), 30, a, 13.5),
                                  r"need 11 < s < 20 at weight 31, got s = 13\.5, w = 30"),
        "weight 22 at degree 2": (lambda a: _residual((0, 1), 22, a, 5), r"need 0 < s < k <= 20, .* k = 22"),
        "l_degree2 s = 12 at k = 12": (lambda a: l_degree2(a, 12, 12, 30, 50), "need 0 < s < k <= 20"),
        "l_degree2 s = -1": (lambda a: l_degree2(a, 20, -1, 30, 50), "need 0 < s < k <= 20"),
        "l_rankin4 s = 20": (lambda a: l_rankin4(a, 20, 30, 50), "integer in 12..19"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_no_coefficient_read(self, case):
        call, message = self.CASES[case]
        a = _Counting()
        with pytest.raises(ValueError, match=message):
            call(a)
        assert a.reads == 0


class TestMoments:
    """Each smoothed sum is taken once per coefficient set, as moments;
    a critical value must equal the per-n sum it regroups."""

    def test_moments_are_exact_sums_rounded_once(self):
        # synthetic columns whose partial sums cancel far below the largest
        # term: each moment must be the exact dot product rounded once
        import random
        from fractions import Fraction

        from mpmath.libmp import (
            dps_to_prec, from_int, from_man_exp, fzero, mpf_div, mpf_sum, round_nearest,
        )

        rng = random.Random(12)
        big = rng.getrandbits(100)
        coeffs = (1, 1, -1, 3, 0, -2)
        columns = [
            # 2^-400, then 2^300 - 2^300
            [(1, -400), (1, 300), (1, 300), (0, 0), (5, 7), (0, 0)],
            # everything cancels: 3 2^-299 - 2 (3 2^-300) = 0
            [(0, 0), (-7, 100), (-7, 100), (1, -299), (9, 9), (3, -300)],
            # random survivors near 2^-540 under a cancelling pair at 2^500
            [(rng.getrandbits(100), -650), (big, 400), (big, 400),
             (-rng.getrandbits(100), -700), (rng.getrandbits(100), 0),
             (rng.getrandbits(100), -640)],
        ]
        dps = 30
        prec = dps_to_prec(dps)

        def vector(n, d):
            # n's entries at one exponent, by exact mantissa shifts
            entries = [col[n - 1] for col in columns]
            low = min(e for _, e in entries)
            return low, tuple(m << e - low for m, e in entries)

        got = evaluators._moments(coeffs, dps, vector, lambda n: 0.0)
        for j, col in enumerate(columns):
            exact = sum(c * Fraction(m) * Fraction(2) ** e for c, (m, e) in zip(coeffs, col))
            want = mpf_div(
                from_int(exact.numerator), from_int(exact.denominator), prec, round_nearest
            )
            assert got[j] == want, j
        assert got[0] == from_man_exp(1, -400)
        assert got[1] == fzero
        # mpf_sum drops 2^-400 on meeting 2^300, more than 2 prec bits up
        dropped = [from_man_exp(c * m, e) for c, (m, e) in zip(coeffs, columns[0])]
        assert mpf_sum(dropped, prec, round_nearest) == fzero

    @pytest.mark.parametrize("D, M", [(30, 150), (60, 300)])
    def test_moments_equal_the_per_entry_column_sums(self, monkeypatch, D, M):
        # the benchmark's coefficient sets, degree 4 over A(1..M) and degree
        # 2 over the coefficients a norm at D takes: each moment, one shift
        # per n and one dot product per column, equals bit for bit the
        # column sum over the same vectors, built at the levels the call
        # chose, with every entry shifted to its own column's lowest exponent
        from spinl.numeric_lfun.bigfloat import GUARD

        moments, built = evaluators._moments, []

        def recording(coeffs, dps, vector, scale):
            def kept(n, d):
                v = vector(n, d)
                built.append((coeffs[n - 1], v))
                return v

            return moments(coeffs, dps, kept, scale)

        monkeypatch.setattr(evaluators, "_moments", recording)
        A = rankin_coeffs(M)
        A = tuple(A[n] for n in range(1, M + 1))
        sets = [(evaluators._deg4_moments, A, mu) for mu in (1, 0, -0.4)]
        for k, form in ((12, delta_qexp), (20, g20_qexp)):
            m = evaluators._deg2_m(k, D)
            a = tuple(form(m).integer_coeffs()[1 : m + 1])
            sets += [(evaluators._deg2_moments, a, f) for f in (1, 0.25)]
        dps = D + GUARD
        for moments_of, coeffs, param in sets:
            moments_of.cache_clear()
            built.clear()
            got = moments_of(coeffs, param, dps)
            assert len(got) == 20 and len(built) == sum(map(bool, coeffs))
            assert list(got) == _column_sums(built, dps), (moments_of.__name__, param)

    @settings(max_examples=60, deadline=None)
    @given(
        coeffs=st.lists(st.integers(-10**40, 10**40) | st.just(0), min_size=1, max_size=40),
        parity=st.sampled_from([0, 1]),
        dps=st.sampled_from([20, 30, 45]),
    )
    def test_deg4_moments_agree_with_twenty_more_digits(self, coeffs, parity, dps):
        # the integer node data summed exactly: the moments at dps are
        # within an ulp at dps of those at dps + 20, for any signed
        # coefficients
        coeffs = tuple(coeffs)
        lo, hi = (evaluators._deg4_moments(coeffs, parity, d) for d in (dps, dps + 20))
        assert len(lo) == len(hi) == 20
        for j, (a, b) in enumerate(zip(lo, hi)):
            if not any(coeffs):
                assert a == b == fzero
                continue
            assert abs(_exact(a) - _exact(b)) <= _ulp(a, dps), j

    @pytest.mark.parametrize("D", [20, 30, 60])
    @pytest.mark.parametrize("M", [12, 40, 150])
    def test_deg4_against_per_n_sums(self, D, M):
        from spinl import rankin_coeffs
        from spinl.numeric_lfun.evaluators import _lambda

        A = rankin_coeffs(M)
        ctx, ref_ctx = context(D + 12), context(D + 20)
        for s2 in range(24, 39):  # s = 12, 12.5, ..., 19
            s = ctx.mpf(s2) / 2
            got = ctx.convert(_lambda(ctx, 4, 31, 1, tuple(A[n] for n in range(1, M + 1)), s))
            ref = ref_ctx.fsum(
                A[n] * (_deg4_term(ref_ctx, s, n) + _deg4_term(ref_ctx, 31 - s, n))
                for n in range(1, M + 1)
            )
            assert abs(got - ref) / abs(ref) < ctx.mpf(10) ** -(D + 5), s

    @pytest.mark.parametrize("D", [20, 30, 60])
    @pytest.mark.parametrize("k", [12, 20])
    def test_deg2_against_gamma_upper_sums(self, D, k):
        from spinl.numeric_lfun import gamma_upper
        from spinl.numeric_lfun.evaluators import _lambda

        M = 40
        a = (delta_qexp(M) if k == 12 else g20_qexp(M)).integer_coeffs()
        ctx, ref_ctx = context(D + 10), context(D + 20)
        for s in range(1, k):
            got = ctx.convert(_lambda(ctx, 2, k, 1, tuple(a[1 : M + 1]), s))
            ref = ref_ctx.fsum(
                a[n] * (x ** -s * ref_ctx.convert(gamma_upper(s, x, D + 20))
                        + x ** (s - k) * ref_ctx.convert(gamma_upper(k - s, x, D + 20)))
                for n in range(1, M + 1)
                for x in [2 * ref_ctx.pi * n]
            )
            assert abs(got - ref) / abs(ref) < ctx.mpf(10) ** -(D + 5), s

    @pytest.mark.parametrize("D", [20, 30, 60])
    @pytest.mark.parametrize("k", [12, 20])
    def test_deg2_at_non_integer_s_against_gamma_upper_sums(self, D, k):
        # the fractional-order tables: s and k - s each split as f + j
        from spinl.numeric_lfun import gamma_upper
        from spinl.numeric_lfun.evaluators import _lambda

        M = 40
        a = (delta_qexp(M) if k == 12 else g20_qexp(M)).integer_coeffs()
        ctx, ref_ctx = context(D + 10), context(D + 20)
        for s in ("0.3", "2.3", "6.25", "7.3", "9.1", "11.9", "13.7", "19.5"):
            s = ctx.mpf(s)
            if s >= k:
                continue
            got = ctx.convert(_lambda(ctx, 2, k, 1, tuple(a[1 : M + 1]), s))
            ref = ref_ctx.fsum(
                a[n] * (x ** -s * ref_ctx.convert(gamma_upper(s, x, D + 20))
                        + x ** (s - k) * ref_ctx.convert(gamma_upper(k - s, x, D + 20)))
                for n in range(1, M + 1)
                for x in [2 * ref_ctx.pi * n]
            )
            assert abs(got - ref) / abs(ref) < ctx.mpf(10) ** -(D + 5), s

    def test_no_stale_hit_at_non_integer_s(self):
        # the fractional moments are keyed on the coefficients too: a
        # crooked a(2) moves Lambda(7.3) by exactly 7 (G_7.3 + G_4.7)(4 pi)
        from spinl.numeric_lfun.evaluators import _lambda

        D, M = 30, 40
        tau = delta_qexp(M).integer_coeffs()
        ctx = context(D + 10)
        s = ctx.mpf("7.3")
        f = s - 7
        good = _lambda(ctx, 2, 12, 1, tuple(tau[1 : M + 1]), s)
        bad = _lambda(ctx, 2, 12, 1, tuple(tau[n] + 7 * (n == 2) for n in range(1, M + 1)), s)
        term = 7 * (_gamma_table(ctx, 2, D + 10, f)[7] + _gamma_table(ctx, 2, D + 10, 1 - f)[4])
        assert abs((bad - good) - term) < abs(good) * ctx.mpf(10) ** -(D + 6)

    def test_no_stale_hit_for_other_coefficients(self, rankin150):
        # the moments are keyed on the coefficient values: a crooked a(2)
        # at the same (M, dps) must move Lambda by exactly its own term
        from spinl.numeric_lfun.evaluators import _lambda

        D, M, s = 30, 150, 14
        l_rankin4(rankin150, s, D, M)
        ctx = context(D + 10)  # l_rankin4's working precision
        A = tuple(rankin150[n] for n in range(1, M + 1))
        good = _lambda(ctx, 4, 31, 1, A, s)
        bad = _lambda(ctx, 4, 31, 1, tuple(c + 7 * (n == 2) for n, c in enumerate(A, 1)), s)
        term = 7 * (_deg4_term(ctx, s, 2) + _deg4_term(ctx, 31 - s, 2))
        assert abs((bad - good) - term) < abs(good) * ctx.mpf(10) ** -(D + 8)

        tau = delta_qexp(40).integer_coeffs()
        l_degree2(delta_qexp(40), 12, 6, D, 40)
        ctx = context(D + 10)
        good = _lambda(ctx, 2, 12, 1, tuple(tau[1:41]), 6)
        bad = _lambda(ctx, 2, 12, 1, tuple(tau[n] + 7 * (n == 2) for n in range(1, 41)), 6)
        term = 14 * _gamma_table(ctx, 2, D + 10)[5]
        assert abs((bad - good) - term) < abs(good) * ctx.mpf(10) ** -(D + 6)


def _column_sums(terms, dps):
    """The exact sums over n of c_n v_j(n), one per column j, for terms =
    [(c_n, (exp, mantissas))], with every entry shifted to its own
    column's lowest exponent, each rounded once to dps digits."""
    rows = [[(c * v, exp) for v in mantissas] for c, (exp, mantissas) in terms]
    out = []
    for col in zip(*rows):
        low = min(e for _, e in col)
        total = sum(v << e - low for v, e in col)
        out.append(from_man_exp(total, low, dps_to_prec(dps), round_nearest))
    return out


def _full_moments(coeffs, parity, dps):
    """The degree-4 moments with every node at dps: the exact sums over n
    of the node data against coeffs, each rounded once to dps digits."""
    return _column_sums(
        [(c, evaluators._deg4_vector(n, dps, from_int(parity))) for n, c in enumerate(coeffs, 1)],
        dps,
    )


class TestLevels:
    """Each term of a smoothed sum is built only as precisely as its share
    of the sum needs (evaluators._moments): the sums must still carry the
    digits they did with every term at full precision."""

    # the level with no margin was set at D <= 72; D = 200 holds it too
    @pytest.mark.parametrize("D, M", [(45, 200), (60, 300), (200, 60)])
    def test_deg4_within_a_unit_of_thirty_two_more_digits(self, D, M):
        from spinl import rankin_coeffs
        from spinl.numeric_lfun.evaluators import _lambda

        A = rankin_coeffs(M)
        A = tuple(A[n] for n in range(1, M + 1))
        ctx, ref = context(D + 12), context(D + 44)
        for s in range(12, 20):
            got = _lambda(ctx, 4, 31, 1, A, s)
            want = _lambda(ref, 4, 31, 1, A, s)
            assert abs(ref.convert(got) - want) < abs(want) * ref.mpf(10) ** -(D + 12), s

    def test_deg4_fractional_class_within_a_unit_of_thirty_two_more_digits(self):
        # s = 13.3 (a float, the same binary value in both contexts) and
        # 31 - s sum the seeded chains of mu = 2s - 27 and 27 - 2s
        from spinl import rankin_coeffs
        from spinl.numeric_lfun.evaluators import _lambda

        D, M = 45, 200
        A = rankin_coeffs(M)
        A = tuple(A[n] for n in range(1, M + 1))
        ctx, ref = context(D + 12), context(D + 44)
        got = _lambda(ctx, 4, 31, 1, A, 13.3)
        want = _lambda(ref, 4, 31, 1, A, 13.3)
        assert abs(ref.convert(got) - want) < abs(want) * ref.mpf(10) ** -(D + 12)

    @pytest.mark.parametrize("D", [30, 60])
    @pytest.mark.parametrize("k", [12, 20])
    def test_deg2_within_a_unit_of_thirty_more_digits(self, D, k):
        from spinl.numeric_lfun.evaluators import _lambda

        a = tuple((delta_qexp(60) if k == 12 else g20_qexp(60)).integer_coeffs()[1:61])
        sign = +1 if (k // 2) % 2 == 0 else -1
        ctx, ref = context(D + 10), context(D + 40)
        for s in ("1", "5", "9", "3.25", "7.3"):
            got = _lambda(ctx, 2, k, sign, a, ctx.mpf(s))
            want = _lambda(ref, 2, k, sign, a, ref.mpf(s))
            assert abs(ref.convert(got) - want) < abs(want) * ref.mpf(10) ** -(D + 10), s

    def test_one_coefficient_rounded_as_at_full_precision(self):
        # a lone coefficient is its own largest term, so its node is built
        # at dps and each moment is its exact value rounded once: within
        # 0.51 ulp of the moment at dps + 20 (0.499 measured; a level three
        # digits lower reaches 0.82 at n = 300)
        for dps in (20, 30, 45, 72):
            for n in (1, 2, 8, 61, 62, 150, 300):
                coeffs = (0,) * (n - 1) + (5,)
                for parity in (0, 1):
                    lo = evaluators._deg4_moments(coeffs, parity, dps)
                    hi = evaluators._deg4_moments(coeffs, parity, dps + 20)
                    for j, (a, b) in enumerate(zip(lo, hi)):
                        err = abs(_exact(a) - _exact(b))
                        assert err <= _ulp(a, dps) * Fraction("0.51"), (dps, n, parity, j)

    @pytest.mark.parametrize("D, M", [(30, 150), (60, 300)])
    @pytest.mark.parametrize("crook", ["A(150) 1e40", "A(150) 1e70", "A(2) 0"])
    def test_levels_follow_the_coefficients(self, D, M, crook):
        # the levels come from the coefficients passed in, not from
        # Rankin's: a large A(150) pulls the levels around n = 150 up and
        # those near n = 1 down, and a zero A(2) builds no node
        from spinl import rankin_coeffs

        A = [rankin_coeffs(M)[n] for n in range(1, M + 1)]
        if crook == "A(2) 0":
            A[1] = 0
        else:
            A[149] *= 10 ** int(crook[-2:])
        A = tuple(A)
        dps = D + 12
        for parity in (0, 1):
            evaluators._NODE_CACHE.clear()
            evaluators._KI1_CACHE.clear()
            evaluators._deg4_moments.cache_clear()
            got = evaluators._deg4_moments(A, parity, dps)
            if crook == "A(2) 0":
                assert not any(key[0] == 2 for key in evaluators._NODE_CACHE._data)
            for j, (a, b) in enumerate(zip(got, _full_moments(A, parity, dps))):
                a, b = _exact(a), _exact(b)
                assert abs(a - b) <= abs(b) * Fraction(1, 10**dps), (parity, j)


class TestTruncatedNormProvenance:
    def test_reference_variation_reproduced(self):
        # rendering the exact s=12 spin value with the norms truncated to
        # the digits displayed alongside the reference tables reproduces the
        # ~2e-10 variation those tables report against direct computation
        from spinl import main_identity
        from reference_values import DIRECT_SPIN

        ctx = context(34)
        res = main_identity(12)
        truncated_dd = ctx.mpf("0.000001035362056")
        truncated_gg = ctx.mpf("0.00000826554153165970")
        rendered = (
            ctx.mpf(res.rational.numerator)
            / res.rational.denominator
            * ctx.pi**res.pi_exponent
            * truncated_dd
            * truncated_gg
        )
        diff = abs(rendered - ctx.mpf(DIRECT_SPIN[12]))
        assert ctx.mpf("1.5e-10") < diff < ctx.mpf("2.5e-10")
