"""Special-function layer: incomplete gamma, Bessel K with its quadrature
oracle, the Bickley function and its fractional moments, and the tanh-sinh
rule itself."""

import hashlib
import math

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from spinl.numeric_lfun import (
    QuadratureError,
    bessel_k,
    bickley_ki1,
    context,
    gamma_upper,
    incomplete_gamma_int,
    tanh_sinh,
)
from mpmath.libmp import dps_to_prec, from_float, from_man_exp, fzero, to_float

from spinl.numeric_lfun.special import (
    _LN2,
    BESSEL_X_MAX,
    BESSEL_X_MIN,
    _ki1,
    _ki1_asymptotic,
    _k0_k1,
    _ki1_trapezoid,
    _asymptotic_prefactor,
    _legendre_seed,
    _libmp,
    _series_cut,
)

KI1_MUS = [-0.999, -0.4, 0.0, 0.6, 0.625, 0.999]


def _ki1_cut(dps, mu):
    """The x at which _ki1 turns to its expansion: x + mu ln x = (dps + 10) ln 10."""
    L = (dps + 10) * math.log(10)
    x = L
    for _ in range(40):
        x = L - mu * math.log(x)
    return x


class TestTanhSinh:
    def test_polynomial(self):
        ctx = context(30)
        got = tanh_sinh(ctx, lambda x: x * x, ctx.zero, ctx.one)
        assert abs(got - ctx.mpf(1) / 3) < ctx.mpf("1e-28")

    def test_endpoint_singularity(self):
        ctx = context(30)
        got = tanh_sinh(ctx, lambda x: 1 / ctx.sqrt(x), ctx.zero, ctx.one)
        assert abs(got - 2) < ctx.mpf("1e-27")

    def test_exponential(self):
        ctx = context(35)
        got = tanh_sinh(ctx, lambda x: ctx.exp(-x), ctx.zero, ctx.mpf(90))
        assert abs(got - 1) < ctx.mpf("1e-33")

    def test_empty_interval(self):
        ctx = context(20)
        assert tanh_sinh(ctx, lambda x: x, ctx.one, ctx.one) == 0

    def test_non_convergence_raises(self):
        # a jump inside the interval defeats the double-exponential rate:
        # there is no silent best estimate to return
        ctx = context(30)
        third = ctx.mpf(1) / 3
        with pytest.raises(QuadratureError):
            tanh_sinh(ctx, lambda x: ctx.one if x < third else ctx.zero, 0, 1, max_level=5)

    @pytest.mark.parametrize("max_level", [0, 1])
    def test_max_level_below_two_refused_before_any_evaluation(self, max_level):
        # no two levels m >= 2 can agree: max_level = 0 once returned
        # 0.30604 for the integral of x^2 over [0, 1], 2.7e-2 off
        ctx = context(30)
        seen = []
        with pytest.raises(ValueError, match="max_level must be >= 2"):
            tanh_sinh(ctx, lambda x: seen.append(x) or x * x, 0, 1, max_level=max_level)
        assert seen == []

    @pytest.mark.parametrize("max_level", [5.0, "5", None], ids=repr)
    def test_max_level_not_an_int_refused_before_any_evaluation(self, max_level):
        # 5.0 passed the level check and raised TypeError from range()
        ctx = context(30)
        seen = []
        with pytest.raises(ValueError, match=f"max_level must be an int, got {max_level!r}$"):
            tanh_sinh(ctx, lambda x: seen.append(x) or x * x, 0, 1, max_level=max_level)
        assert seen == []

    def test_unconverged_last_level_raises(self):
        # x^1.5 at max_level = 4 ends with its last delta 11 times the gate,
        # and was once returned as converged
        ctx = context(30)
        with pytest.raises(QuadratureError):
            tanh_sinh(ctx, lambda x: x**1.5, 0, 1, max_level=4)


class TestIncompleteGammaInt:
    def test_s1_is_exp(self):
        ctx = context(32)
        for x in ("0.3", "1", "7.25"):
            xx = ctx.mpf(x)
            got = ctx.convert(incomplete_gamma_int(1, xx, 30))
            assert abs(got - ctx.exp(-xx)) < ctx.mpf("1e-29")

    def test_3_1_closed_form_and_quadrature(self):
        # 2! e^-1 (1 + 1 + 1/2) = 5/e, pinned by quadrature of the defining
        # integral over [1, inf)
        ctx = context(36)
        got = ctx.convert(incomplete_gamma_int(3, ctx.one, 32))
        closed = ctx.mpf(5) * ctx.exp(-1)
        assert abs(got - closed) < ctx.mpf("1e-30")
        quad = tanh_sinh(ctx, lambda t: t * t * ctx.exp(-t), ctx.one, ctx.mpf(110))
        assert abs(got - quad) < ctx.mpf("1e-30")

    def test_small_x_limit_is_factorial(self):
        ctx = context(30)
        for s in (2, 5, 9):
            got = ctx.convert(incomplete_gamma_int(s, ctx.mpf("1e-25"), 28))
            assert abs(got - ctx.factorial(s - 1)) < ctx.mpf("1e-20")

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            incomplete_gamma_int(0, 1.0, 20)
        with pytest.raises(ValueError):
            incomplete_gamma_int(3, -1.0, 20)

    @pytest.mark.parametrize("dps", [15, 30, 60])
    @pytest.mark.parametrize("x", [1e-3, 0.5, 2 * math.pi, 31.4, 100, 628.3, 3000])
    def test_gamma_upper_at_integer_s_against_mpmath(self, x, dps):
        # gammainc's finite sum at D + GUARD, against D + 40 digits
        ref = mpmath.mp.clone()
        ref.dps = dps + 40
        for s in range(1, 21):
            want = ref.gammainc(s, ref.mpf(x))
            got = ref.convert(gamma_upper(s, x, dps))
            assert abs(got - want) <= ref.mpf(10) ** -dps / 2 * want

    def test_gamma_upper_fractional_matches_recurrence(self):
        # Gamma(s+1, x) = s Gamma(s, x) + x^s e^-x
        ctx = context(35)
        s = ctx.mpf("7.3")
        x = ctx.mpf("12.56")
        lhs = ctx.convert(gamma_upper(s + 1, x, 32))
        rhs = s * ctx.convert(gamma_upper(s, x, 32)) + x**s * ctx.exp(-x)
        assert abs(lhs - rhs) / rhs < ctx.mpf("1e-30")


def k_integral_oracle(nu: int, x, dps: int):
    """int_0^inf e^(-x cosh t) cosh(nu t) dt, quadrature only."""
    ctx = context(dps + 10)
    x = ctx.convert(x)

    def f(t):
        return ctx.exp(-x * ctx.cosh(t)) * ctx.cosh(nu * t)

    u_max = ctx.acosh(1 + (ctx.dps + 8 + nu) * ctx.log(10) / x) + 1
    return tanh_sinh(ctx, f, ctx.zero, u_max)


class TestBesselK:
    def test_k0_at_one_against_quadrature(self):
        got = bessel_k(0, 1, 30)
        ctx = context(40)
        oracle = k_integral_oracle(0, ctx.one, 34)
        assert abs(ctx.convert(got) - oracle) < ctx.mpf("1e-29")
        # pinned leading digits, frozen from the oracle
        assert ctx.nstr(ctx.convert(got), 20) == "0.42102443824070833334"

    @pytest.mark.parametrize("nu,x", [(0, "0.5"), (1, "2.5"), (5, "17.0"), (11, "30.0"), (2, "60.0")])
    def test_grid_against_quadrature(self, nu, x):
        ctx = context(40)
        got = ctx.convert(bessel_k(nu, ctx.mpf(x), 30))
        oracle = k_integral_oracle(nu, ctx.mpf(x), 34)
        assert abs(got - oracle) / oracle < ctx.mpf("1e-28")

    def test_recurrence_residual(self):
        # K_6 = K_4 + (10/x) K_5 at x = 3
        ctx = context(34)
        x = ctx.mpf(3)
        k4 = ctx.convert(bessel_k(4, x, 30))
        k5 = ctx.convert(bessel_k(5, x, 30))
        k6 = ctx.convert(bessel_k(6, x, 30))
        resid = k6 - (k4 + (10 / x) * k5)
        assert abs(resid) / k6 < ctx.mpf("1e-27")

    def test_asymptotic_leading_behaviour(self):
        # K_0(50) ~ sqrt(pi/100) e^-50 (1 + O(1/50))
        ctx = context(30)
        got = ctx.convert(bessel_k(0, ctx.mpf(50), 25))
        lead = ctx.sqrt(ctx.pi / 100) * ctx.exp(-50)
        assert abs(got / lead - 1) < ctx.mpf("0.01")

    def test_regime_boundary_consistency(self):
        # series and asymptotic regimes must agree where they meet; nudge the
        # boundary by varying requested precision
        ctx = context(40)
        x = ctx.mpf("49.3")
        lo = ctx.convert(bessel_k(3, x, 20))   # asymptotic at this dps
        hi = ctx.convert(bessel_k(3, x, 35))   # series at this dps
        assert abs(lo - hi) / hi < ctx.mpf("1e-19")

    def test_domain_errors(self):
        with pytest.raises(OverflowError):
            bessel_k(0, 1e-7, 20)
        with pytest.raises(OverflowError):
            bessel_k(0, 2e4, 20)
        with pytest.raises(ValueError):
            bessel_k(21, 1.0, 20)
        with pytest.raises(ValueError):
            bessel_k(-1, 1.0, 20)

    def test_positive_and_decreasing_in_x(self):
        ctx = context(25)
        vals = [ctx.convert(bessel_k(7, ctx.mpf(x), 20)) for x in (5, 10, 20, 40)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


def _rel(ctx, a, b):
    return abs(ctx.convert(a) - ctx.convert(b)) / abs(ctx.convert(b))


class TestBesselPrecision:
    """The fixed-point K_0/K_1 core, through every order and both branches."""

    @settings(max_examples=200, deadline=None)
    @given(
        nu=st.integers(0, 20),
        log10_x=st.floats(-6, 4, exclude_min=True, exclude_max=True),
        dps=st.integers(15, 80),
    )
    def test_agrees_with_fifteen_more_digits(self, nu, log10_x, dps):
        x = 10**log10_x
        assume(BESSEL_X_MIN < x < BESSEL_X_MAX)
        ctx = context(dps + 20)
        lo, hi = bessel_k(nu, x, dps), bessel_k(nu, x, dps + 15)
        assert _rel(ctx, lo, hi) < ctx.mpf(10) ** (1 - dps)

    @pytest.mark.parametrize("dps", [20, 40, 72])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_either_side_of_the_branch_threshold(self, dps, side):
        # the asymptotic branch starts above x = 1.2 (dps + 10); 15 more
        # digits move the threshold up, so the reference is the series
        x = 1.2 * (dps + 10) * (1 + side * 1e-12)
        ctx = context(dps + 20)
        for nu in (0, 1, 7):
            lo, hi = bessel_k(nu, x, dps), bessel_k(nu, x, dps + 15)
            assert _rel(ctx, lo, hi) < ctx.mpf(10) ** (1 - dps)

    def test_node_arguments_against_mpmath(self):
        # X = 4 pi sqrt(n), the degree-4 node arguments at 72 digits, as
        # verify builds them.  Below n = 97 mpmath's besselk sums its own
        # series at 0.2-0.5 s a value, so that range is sampled: the first
        # node and both sides of this package's branch switch (n = 61/62)
        mp = mpmath.mp.clone()
        mp.dps = 92
        ns = [1, 31, 61, 62] + list(range(97, 301))
        ctx = context(72)
        for n in ns:
            x = 4 * ctx.pi * ctx.sqrt(n)
            for nu, got in enumerate((bessel_k(0, x, 72), bessel_k(1, x, 72))):
                ref = mp.besselk(nu, mp.convert(x))
                assert abs(mp.convert(got) - ref) / ref < mp.mpf("1e-70"), (n, nu)


def _sha256(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


class TestBitPins:
    """The K_0/K_1 core bit for bit, since every pair past the series cut,
    the degree-4 nodes' included, comes from it: its integers on both
    branches, bessel_k, and the seven kernel-check errors, all exactly 0.0
    at every D pinned (what certify-d30 reads as its cap of 99 digits; one
    moved bit in the core can leave them near 1e-50 instead).  The
    integers are pinned as they are, not as correct: the prefactor's own
    accuracy is checked against mpmath below
    (test_asymptotic_prefactor_within_two_units)."""

    # floats, strings and libmp values on both sides of every series cut
    XS = (
        1e-5, 0.5, 1.0, 2.5, 7.0, "13.3", 29.0, 31.0, "47.5", 50.0, 83.0, 85.0, 98.0,
        100.0, "150.25", 333.3, 1000.0, 4000.0, 9999.0,
        from_man_exp(12345678901234567891, -62), from_man_exp(0x1234567890ABCDEF1234567, -80),
    )
    K0_K1_SHA256 = {
        15: "bd9f80e7ad1ba9a7cc099d3a5ca0fb8d8ed53d5c91f4c3e952ead368d15bd693",
        30: "e12f007f4a027df1708f95d88ef19921b582671538a135d6005af57a188f2915",
        42: "8535db3105de108f28ac0ef1571a1bf6dd78a27fcf63e1eddae221d3e1878e7d",
        60: "141c77cba923baa0e91ea10804ebbf7877ae82201160d39edec63db0da076a48",
        72: "af7244c2a63503c2cfbad0f70c575f276401911a86089991044625529c81793c",
    }
    BESSEL_SHA256 = "0189199df00d46708642cf1465a6a54218e52bec00ac10a11c4b7815daecc17a"
    KERNEL_SHA256 = "39765741d4468d57be75508e4c305fecb3fbcd5771bc7cba893c4cab4ef1efb1"

    @pytest.mark.parametrize("dps", sorted(K0_K1_SHA256))
    def test_k0_k1_integers(self, dps):
        assert _sha256([_k0_k1(x, dps) for x in self.XS]) == self.K0_K1_SHA256[dps]

    def test_bessel_k(self):
        orders, precisions = (0, 1, 2, 5, 11, 20), (15, 30, 60)
        got = [bessel_k(nu, x, d)._mpf_ for nu in orders for x in self.XS for d in precisions]
        assert _sha256(got) == self.BESSEL_SHA256

    @pytest.mark.parametrize("dps", (15, 20, 22, 28, 30, 45, 60))
    def test_kernel_errors(self, dps):
        from spinl.numeric_lfun.evaluators import _kernel_errors

        errors = _kernel_errors(dps)
        assert all(e == 0 for e in errors)
        assert _sha256([e._mpf_ for e in errors]) == self.KERNEL_SHA256

    @pytest.mark.parametrize("dps", (15, 30, 60))
    def test_asymptotic_prefactor_within_two_units(self, dps):
        # sqrt(pi/2x) e^-x = man 2^exp at the asymptotic branch's wp, against
        # mpmath 40 bits up: within 2 units of its last place 2^exp, the
        # ulp of e^-x at wp bits (the isqrt and the final shift each floor)
        wp = dps_to_prec(dps + 15) + 20
        mp = mpmath.mp.clone()
        mp.prec = wp + 40
        xs = [_libmp(x, wp - 20) for x in self.XS]
        past = [x for x in xs if to_float(x) > _series_cut(dps)]
        assert len(past) >= 9
        for x in past:
            man, exp = _asymptotic_prefactor(x, wp)
            X = mp.mpf(x)
            want = mp.sqrt(mp.pi / (2 * X)) * mp.exp(-X)
            assert abs(mp.mpf(from_man_exp(man, exp)) - want) <= 2 * mp.ldexp(1, exp), to_float(x)


class TestBickley:
    def test_matches_direct_k0_integral(self):
        ctx = context(40)
        x = 4 * ctx.pi
        got = ctx.convert(bickley_ki1(x, 32))
        direct = tanh_sinh(
            ctx, lambda t: ctx.convert(bessel_k(0, t, 36)), x, x + 95
        )
        assert abs(got - direct) / direct < ctx.mpf("1e-30")

    @pytest.mark.parametrize("x", ["125.66", "217.6"])
    def test_relative_accuracy_at_large_x(self, x):
        # at x = 4 pi sqrt(100) and 4 pi sqrt(300) Ki_1 is ~1e-55 and
        # ~1e-95: far below any absolute tolerance, so only a relative
        # check bites
        ctx = context(50)
        x = ctx.mpf(x)
        ex = ctx.exp(x)
        cuts = (x, x + ctx.mpf("0.25"), x + 1, x + 4, x + 16, x + 100)
        direct = sum(
            tanh_sinh(ctx, lambda t: ex * ctx.convert(bessel_k(0, t, 48)), lo, hi)
            for lo, hi in zip(cuts, cuts[1:])
        ) / ex
        got = ctx.convert(bickley_ki1(x, 40))
        assert abs(got - direct) / direct < ctx.mpf("1e-38")

    @pytest.mark.parametrize("x", ["1", "1.5"])
    def test_precision_sweep_at_domain_edge(self, x):
        # the step and the cut both follow the precision, so 40 and 60
        # digits sum different grids
        ctx = context(60)
        a = ctx.convert(bickley_ki1(ctx.mpf(x), 40))
        b = ctx.convert(bickley_ki1(ctx.mpf(x), 60))
        assert abs(a - b) / b < ctx.mpf("1e-39")

    def test_rejects_small_x(self):
        with pytest.raises(ValueError):
            bickley_ki1(0.5, 20)

    @pytest.mark.parametrize("mu", [-0.999, -0.4, 2.0**-46, 0.6, 0.999])
    def test_fractional_moment_matches_direct_k0_integral(self, mu):
        # x^-mu int_x^inf t^mu K_0(t) dt, the seed of the degree-4 class
        # mu: one Legendre seed per node for mu < 0, one more upward step
        # for mu > 0
        ctx = context(40)
        x = 4 * ctx.pi
        got = ctx.make_mpf(_ki1(x, 32, from_float(mu)))
        direct = tanh_sinh(
            ctx, lambda t: (t / x) ** mu * ctx.convert(bessel_k(0, t, 36)), x, x + 95
        )
        assert abs(got - direct) / direct < ctx.mpf("1e-30")

    @pytest.mark.parametrize("mu", [-0.4, 0.6])
    def test_fractional_moment_at_large_x(self, mu):
        # x = 4 pi sqrt(300): relative accuracy of a value near 1e-95
        ctx = context(50)
        x = ctx.mpf("217.6")
        ex = ctx.exp(x)
        cuts = (x, x + ctx.mpf("0.25"), x + 1, x + 4, x + 16, x + 100)
        direct = sum(
            tanh_sinh(ctx, lambda t: ex * (t / x) ** mu * ctx.convert(bessel_k(0, t, 48)), lo, hi)
            for lo, hi in zip(cuts, cuts[1:])
        ) / ex
        got = ctx.make_mpf(_ki1(x, 40, from_float(mu)))
        assert abs(got - direct) / direct < ctx.mpf("1e-38")


class TestLegendreSeed:
    """H_a = x^(1-a) e^x Gamma(a, x) for 0 < a < 2, at 2^-wp."""

    @pytest.mark.parametrize("dps", [15, 30, 60])
    def test_exactly_one_at_one(self, dps):
        wp = dps_to_prec(dps) + 20
        for x in (13, 60):
            assert _legendre_seed(x << wp, 1 << wp, wp, wp * _LN2) == 1 << wp

    @pytest.mark.parametrize("dps", [15, 30, 60])
    @pytest.mark.parametrize("a", [1.25, 1.5, 1.75])
    def test_above_one(self, a, dps):
        # one upward step from a - 1, and within a few ulps of mpmath
        wp = dps_to_prec(dps) + 20
        one, B = 1 << wp, wp * _LN2
        F = int(a * 4) * one // 4
        mp = mpmath.mp.clone()
        mp.prec = wp + 64
        for x in (13, 60):
            X = x << wp
            got = _legendre_seed(X, F, wp, B)
            assert got == (F - one) * _legendre_seed(X, F - one, wp, B) // X + one
            want = mp.mpf(x) ** (1 - mp.mpf(a)) * mp.exp(x) * mp.gammainc(a, x)
            assert abs(got - int(mp.nint(want * 2**wp))) <= 4


class TestKi1Branches:
    """_ki1's large-x expansion against its trapezoid sum, both on one grid
    of integers, where the expansion takes over."""

    @pytest.mark.parametrize("dps", [15, 30, 60, 120])
    @pytest.mark.parametrize("mu", KI1_MUS)
    def test_branches_agree_above_the_cut(self, mu, dps):
        wp = dps_to_prec(dps + 10) + 20
        m = from_float(mu) if mu else fzero
        ctx = context(dps + 20)
        cut = _ki1_cut(dps, mu)
        for x in (cut * (1 + 1e-12), cut + 1, 1.5 * cut):
            xm = _libmp(x, wp - 20)
            got, trap = _ki1_asymptotic(xm, wp, dps, m), _ki1_trapezoid(xm, wp, dps, m)
            assert _rel(ctx, ctx.make_mpf(got), ctx.make_mpf(trap)) < ctx.mpf(10) ** -(dps + 5)

    @pytest.mark.parametrize("mu", KI1_MUS)
    def test_expansion_reaches_its_target_just_above_the_cut(self, mu):
        # its smallest term there is ~10^-(D+9.5), below the stop at
        # 10^-(D+8), so the loop never bottoms out
        m = from_float(mu) if mu else fzero
        for dps in range(15, 301):
            wp = dps_to_prec(dps + 10) + 20
            xm = _libmp(_ki1_cut(dps, mu) * (1 + 1e-12), wp - 20)
            assert _ki1(xm, dps, m) == _ki1_asymptotic(xm, wp, dps, m)

    @pytest.mark.parametrize("dps", [15, 30, 60])
    def test_expansion_runs_past_a_vanishing_term(self, dps):
        # u_1 = (mu - 5/8) / x is exactly 0 at mu = 5/8 (every s = 3/16 or
        # 13/16 mod 1 seeds that class), and u_2 vanishes at the root of
        # (3/2 - mu)(mu - 5/8) = 9/128; a zero term ends nothing
        wp = dps_to_prec(dps + 10) + 20
        mp = mpmath.mp.clone()
        mp.prec = wp
        root = (mp.mpf("2.125") - mp.sqrt(mp.mpf("0.484375"))) / 2
        ctx = context(dps + 20)
        for m in (from_float(0.625), root._mpf_):
            xm = _libmp(_ki1_cut(dps, 0.7) + 1, wp - 20)
            got, trap = _ki1_asymptotic(xm, wp, dps, m), _ki1_trapezoid(xm, wp, dps, m)
            assert _rel(ctx, ctx.make_mpf(got), ctx.make_mpf(trap)) < ctx.mpf(10) ** -(dps + 5)

    def test_expansion_refuses_below_its_range(self):
        with pytest.raises(ArithmeticError):
            _ki1_asymptotic(_libmp(5, 200), 200, 40, fzero)


class TestPrecisionProperties:
    """A value at D digits agrees with the same value at D + 15 to D - 1
    digits, across each function's domain; outside it, a call raises."""

    @settings(max_examples=60, deadline=None)
    @given(log10_x=st.floats(0, 4), dps=st.integers(15, 60))
    def test_bickley_ki1_agrees_with_fifteen_more_digits(self, log10_x, dps):
        x = 10**log10_x
        ctx = context(dps + 20)
        lo, hi = bickley_ki1(x, dps), bickley_ki1(x, dps + 15)
        assert _rel(ctx, lo, hi) < ctx.mpf(10) ** (1 - dps)

    @settings(max_examples=60, deadline=None)
    @given(
        log10_x=st.floats(0, 4),
        mu=st.floats(-0.999, 0.999).filter(lambda m: m != 0),
        dps=st.integers(15, 60),
    )
    def test_fractional_moment_agrees_with_fifteen_more_digits(self, log10_x, mu, dps):
        # x up to 1e4 reaches both branches, and the D + 15 sum may take the
        # trapezoid where the D one takes the expansion
        x, m = 10**log10_x, from_float(mu)
        ctx = context(dps + 20)
        lo, hi = (ctx.make_mpf(_ki1(x, d, m)) for d in (dps, dps + 15))
        assert _rel(ctx, lo, hi) < ctx.mpf(10) ** (1 - dps)

    @settings(max_examples=60, deadline=None)
    @given(
        s=st.one_of(st.integers(1, 40), st.floats(-20, 40).filter(lambda s: s != int(s))),
        log10_x=st.floats(-3, 3),
        dps=st.integers(15, 60),
    )
    def test_gamma_upper_agrees_with_fifteen_more_digits(self, s, log10_x, dps):
        x = 10**log10_x
        ctx = context(dps + 20)
        lo, hi = gamma_upper(s, x, dps), gamma_upper(s, x, dps + 15)
        assert _rel(ctx, lo, hi) < ctx.mpf(10) ** (1 - dps)

    @given(x=st.floats(-1e4, 1, exclude_max=True, allow_nan=False))
    def test_bickley_ki1_rejects_x_below_one(self, x):
        with pytest.raises(ValueError):
            bickley_ki1(x, 20)

    @given(
        s=st.floats(-40, 40, allow_nan=False),
        x=st.floats(-1e3, 0, allow_nan=False),
    )
    def test_gamma_upper_rejects_nonpositive_x(self, s, x):
        with pytest.raises(ValueError):
            gamma_upper(s, x, 20)

    @given(s=st.integers(-40, 0), x=st.floats(1e-3, 1e3))
    def test_gamma_upper_rejects_nonpositive_integer_s(self, s, x):
        with pytest.raises(ValueError):
            gamma_upper(s, x, 20)
