"""Exact-arithmetic layer: Bernoulli numbers, zeta closed forms, Gamma-ratio
limits, PiValue, and the sums of pi powers the oracle builds
(pivalue_oracle.PiSum)."""

import random
from fractions import Fraction

import pytest
from mpmath import mp

from spinl import (
    PiValue,
    bernoulli,
    falling_ratio,
    gamma_pole_ratio,
    zeta_exact,
    zeta_pole_over_gamma,
)
from spinl.exact_arith import factor_integer

from pivalue_oracle import PiSum


def bernoulli_akiyama_tanigawa(n: int) -> Fraction:
    """Independent route: the Akiyama-Tanigawa triangle (gives the B_1 = +1/2
    convention, which only differs from ours at n = 1)."""
    a = [Fraction(1, m + 1) for m in range(n + 1)]
    for j in range(1, n + 1):
        for m in range(n - j + 1):
            a[m] = (m + 1) * (a[m] - a[m + 1])
    return a[0]


class TestBernoulli:
    def test_b0(self):
        assert bernoulli(0) == 1

    def test_b1_convention(self):
        assert bernoulli(1) == Fraction(-1, 2)

    def test_b2(self):
        assert bernoulli(2) == Fraction(1, 6)

    def test_b12(self):
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_odd_vanish(self):
        assert all(bernoulli(n) == 0 for n in range(3, 31, 2))

    @pytest.mark.parametrize("n", [0, 2, 4, 8, 12, 20, 30])
    def test_against_akiyama_tanigawa(self, n):
        assert bernoulli(n) == bernoulli_akiyama_tanigawa(n)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


def _partial_sum(ctx, n, K):
    """sum_{k<=K} k^-n in ctx, on fixed-point integers 30 bits past ctx's
    precision: each floored term is off by less than 2^-(prec + 30), the
    sum by less than K of those."""
    wp = ctx.prec + 30
    one = 1 << wp
    return ctx.ldexp(sum(one // k**n for k in range(1, K + 1)), -wp)


class TestZetaExact:
    def test_basel(self):
        assert zeta_exact(2) == PiValue.monomial(Fraction(1, 6), 2)

    def test_trivial_zero(self):
        assert zeta_exact(-6).monomials == ()

    def test_minus_seven(self):
        # -B_8/8 with B_8 = -1/30 from the recurrence route
        b8 = bernoulli_akiyama_tanigawa(8)
        assert b8 == Fraction(-1, 30)
        assert zeta_exact(-7) == PiValue.monomial(-b8 / 8, 0)
        assert zeta_exact(-7) == PiValue.monomial(Fraction(1, 240), 0)

    def test_zero_point(self):
        assert zeta_exact(0) == PiValue.monomial(Fraction(-1, 2), 0)

    def test_rejects_odd_positive(self):
        for n in (1, 3, 5, 9):
            with pytest.raises(ValueError):
                zeta_exact(n)

    @pytest.mark.parametrize("n", range(4, 31, 2))
    def test_even_values_match_direct_sum(self, n):
        # partial sums to K terms: for n >= 8 the tail is far below 1e-25
        # relative, so that is the binding tolerance; for n = 4, 6 no feasible
        # K reaches 1e-25 and the integral tail bound is binding instead
        ctx = mp.clone()
        ctx.dps = 35
        K = {4: 300_000, 6: 130_000}.get(n, 20_000)
        coeff, expo = zeta_exact(n).as_monomial()
        assert expo == n
        exact = ctx.mpf(coeff.numerator) / coeff.denominator * ctx.pi**n
        direct = _partial_sum(ctx, n, K)
        tail = ctx.mpf(K + 1) ** (1 - n) / (n - 1)
        tol = max(ctx.mpf("1e-25") * exact, ctx.mpf("1.05") * tail)
        assert abs(exact - direct) <= tol

    def test_zeta2_against_partial_sum(self):
        ctx = mp.clone()
        ctx.dps = 35
        coeff, expo = zeta_exact(2).as_monomial()
        exact = ctx.mpf(coeff.numerator) / coeff.denominator * ctx.pi**2
        n_sum = 10**6
        direct = _partial_sum(ctx, 2, n_sum)
        assert abs(exact - direct) < ctx.mpf("1e-5") + ctx.mpf(1) / n_sum

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_reflection(self, n):
        # zeta(1-n) = 2 (2 pi)^-n cos(pi n / 2) Gamma(n) zeta(n), exactly
        from math import factorial

        lhs = zeta_exact(1 - n)
        cos_val = Fraction((-1) ** (n // 2))  # cos(pi n / 2) at even n
        coeff, expo = zeta_exact(n).as_monomial()
        rhs = PiValue.monomial(
            2 * Fraction(2) ** (-n) * cos_val * factorial(n - 1) * coeff, expo - n
        )
        assert lhs == rhs


class TestFallingRatio:
    def test_gamma11_over_gamma9(self):
        assert falling_ratio(11, 2) == 90

    def test_empty_product(self):
        assert falling_ratio(7, 0) == 1
        assert falling_ratio(-3, 0) == 1

    def test_zero_crossing(self):
        assert falling_ratio(3, 5) == 0

    def test_composition(self):
        for a in range(-20, 21):
            for i in range(0, 13):
                for j in range(0, 13 - i):
                    assert falling_ratio(a, i) * falling_ratio(a - i, j) == falling_ratio(a, i + j)


def _gamma_ratio_limit_oracle(x, y, c):
    """Numerical limit of Gamma(x + c e)/Gamma(y + e) via Richardson step."""
    ctx = mp.clone()
    ctx.dps = 40
    vals = []
    for e in (ctx.mpf("1e-6"), ctx.mpf("1e-7")):
        vals.append(ctx.gamma(x + c * e) / ctx.gamma(y + e))
    r1, r2 = vals
    return r2 + (r2 - r1) / 9  # linear-in-epsilon extrapolation


class TestGammaPoleRatio:
    def test_equal_args(self):
        assert gamma_pole_ratio(-7, -7, 2) == Fraction(1, 2)

    def test_example_values(self):
        assert gamma_pole_ratio(-7, -4, 2) == Fraction(-1, 420)
        assert gamma_pole_ratio(0, -1, 1) == -1

    @pytest.mark.parametrize("args", [(-7, -4, 2), (0, -1, 1), (-3, -6, 2), (-2, -2, 1)])
    def test_against_numerical_limit(self, args):
        x, y, c = args
        got = gamma_pole_ratio(x, y, c)
        oracle = _gamma_ratio_limit_oracle(x, y, c)
        approx = float(got)
        assert abs(approx - float(oracle)) <= 1e-10 * max(1.0, abs(approx))

    def test_reciprocal_sanity(self):
        for y in range(0, -9, -1):
            for c in (1, 2, 3):
                assert gamma_pole_ratio(y, y, c) * gamma_pole_ratio(y, y, 1) * c == 1

    def test_rejects_positive(self):
        with pytest.raises(ValueError):
            gamma_pole_ratio(1, -2, 2)
        with pytest.raises(ValueError):
            gamma_pole_ratio(-2, -2, 0)


class TestZetaPoleOverGamma:
    @pytest.mark.parametrize("y,c", [(-4, 2), (-3, 2), (0, 1), (-1, 1)])
    def test_against_numerical_limit(self, y, c):
        ctx = mp.clone()
        ctx.dps = 40
        vals = []
        for e in (ctx.mpf("1e-6"), ctx.mpf("1e-7")):
            vals.append(ctx.zeta(1 + c * e) / ctx.gamma(y + e))
        oracle = vals[1] + (vals[1] - vals[0]) / 9
        assert abs(float(zeta_pole_over_gamma(y, c)) - float(oracle)) < 1e-9 * max(
            1.0, abs(float(oracle))
        )


class TestPiValue:
    # the sum of pi powers is the oracle's PiSum; the library's PiValue is
    # one monomial
    def test_zero_representation(self):
        assert PiSum().monomials == ()
        assert PiSum([(Fraction(1), 2), (Fraction(-1), 2)]).monomials == ()

    def test_sorted_strictly_increasing(self):
        v = PiSum([(Fraction(1), 5), (Fraction(2), -3), (Fraction(1), 0)])
        exps = [e for _, e in v.monomials]
        assert exps == sorted(exps) and len(set(exps)) == len(exps)

    def test_as_monomial_rejects_mixed(self):
        v = PiSum([(Fraction(1), 0), (Fraction(1), 2)])
        with pytest.raises(ValueError):
            v.as_monomial()

    def test_algebra_randomized(self):
        # the algebra the PiValue oracle assembly runs on (PiSum)
        rng = random.Random(20260808)

        def rand_value():
            return PiSum(
                (Fraction(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(-40, 40))
                for _ in range(rng.randint(0, 4))
            )

        for _ in range(300):
            a, b, c = rand_value(), rand_value(), rand_value()
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == PiSum()
            q = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            assert q * (a + b) == q * a + q * b


class TestPiValueNumeric:
    def test_numeric_rendering(self):
        from spinl.numeric_lfun import context, pi_value_numeric

        ctx = context(30)
        # a sum of two pi powers, which pi_value_numeric renders term by term
        v = PiSum([(Fraction(1, 6), 2), (Fraction(-1, 2), 0)])
        got = ctx.convert(pi_value_numeric(v, 28))
        want = ctx.pi**2 / 6 - ctx.mpf(1) / 2
        assert abs(got - want) < ctx.mpf("1e-26")


class TestFactorInteger:
    def test_the_cli_name_is_this_function(self):
        import spinl.cli

        assert spinl.cli.factor_integer is factor_integer

    def test_rejects_nonpositive(self):
        for n in (0, -4):
            with pytest.raises(ValueError):
                factor_integer(n)
