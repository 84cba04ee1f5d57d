"""Exact critical-value engine: Whittaker polynomials, constant terms,
projection coefficients, and the three assembled value tables."""

import hashlib
from fractions import Fraction
from math import comb

import pytest

import pivalue_oracle as oracle
from spinl import critical_values
from spinl import (
    PeterssonFactors,
    PiValue,
    c_constants,
    d_constants,
    main_identity,
    projection_coeffs,
    rankin_g20_value,
    two_delta_product,
)

from spinl.critical_values import _d_rationals, _projection, _whittaker_moment_sum
from spinl.exact_arith import falling_ratio

from pivalue_oracle import whittaker_closed_form
from reference_values import TABLE1, TABLE2, TABLE3, TABLE4


class TestWhittaker:
    def test_r_zero_is_one(self):
        for alpha in (-5, 0, 3, 9):
            assert whittaker_closed_form(alpha, 0) == [Fraction(1)]

    def test_alpha9_r1(self):
        # y - Gamma(9)/Gamma(8) = y - 8
        assert whittaker_closed_form(9, 1) == [Fraction(-8), Fraction(1)]

    def test_alpha2_r2_degenerates(self):
        # the i = 2 term dies on the falling product
        assert whittaker_closed_form(2, 2) == [Fraction(0), Fraction(-2), Fraction(1)]

    def test_rejects_negative_r(self):
        with pytest.raises(ValueError):
            whittaker_closed_form(3, -1)


class TestCConstants:
    def test_s10_c0p_vanishes(self):
        c0p, _, _, _ = c_constants(10)
        assert c0p.monomials == ()

    def test_s10_c0pp(self):
        _, c0pp, _, _ = c_constants(10)
        want = (Fraction(2) - Fraction(2) ** -7) * oracle.zeta_exact(8)
        assert c0pp == want
        coeff, expo = c0pp.as_monomial()
        assert expo == 8
        assert coeff == Fraction(255, 128) * Fraction(1, 9450)

    def test_s6_c0pp_vanishes(self):
        _, c0pp, _, _ = c_constants(6)
        assert c0pp.monomials == ()

    def test_c1_c2(self):
        _, _, c1, c2 = c_constants(5)
        assert c1 == PiValue.monomial(2, -2)
        assert c2 == PiValue.monomial(Fraction(2) - Fraction(2) ** -2, -2)

    def test_range_checked(self):
        for s in (2, 11):
            with pytest.raises(ValueError):
                c_constants(s)


class TestProjectionCoeffs:
    @pytest.mark.parametrize("s", sorted(TABLE1))
    def test_reference_rows(self, s):
        expo, a1_ref, a2_ref = TABLE1[s]
        pc = projection_coeffs(s)
        assert pc.a1 == PiValue.monomial(a1_ref, expo)
        assert pc.a2 == PiValue.monomial(a2_ref, expo)

    def test_single_monomials(self):
        for s in range(3, 11):
            pc = projection_coeffs(s)
            assert len(pc.a1.monomials) == 1
            assert len(pc.a2.monomials) == 1
            assert pc.a1.as_monomial()[1] == 2 * s - 12

    def test_range_checked(self):
        with pytest.raises(ValueError):
            projection_coeffs(11)

    @pytest.mark.parametrize("two_power", [False, True])
    def test_whittaker_moments_match_their_expansion(self, two_power):
        # the defining expansion (-1)^i C(11-s, i) Gamma(11-i)/Gamma(s-1-i),
        # the Gamma ratio as falling_ratio's product; the route through
        # whittaker_closed_form is pivalue_oracle's
        for s in range(3, 11):
            want = sum(
                Fraction((-1) ** i * comb(11 - s, i)) * falling_ratio(11 - i, 12 - s)
                * (2**i if two_power else 1)
                for i in range(12 - s)
            )
            assert _whittaker_moment_sum(s, two_power) == want


class TestDConstants:
    def test_s19(self):
        d0p, d0pp = d_constants(19)
        assert d0p.monomials == ()
        assert d0pp == 2 * oracle.zeta_exact(8)
        coeff, expo = d0pp.as_monomial()
        assert (coeff, expo) == (Fraction(2, 9450), 8)

    def test_s13_d0pp_trivial_zero(self):
        _, d0pp = d_constants(13)
        assert d0pp.monomials == ()

    def test_s12_d0p(self):
        d0p, _ = d_constants(12)
        # 2 (2 pi)^-6 zeta(-7) * (1/2) * 7!/7! / Gamma(1) = (2 pi)^-6 / 240
        assert d0p == PiValue.monomial(Fraction(1, 240 * 64), -6)


class TestTables:
    @pytest.mark.parametrize("s", sorted(TABLE2))
    def test_two_delta_product(self, s):
        res = two_delta_product(s)
        assert (res.rational, res.pi_exponent) == TABLE2[s]
        assert res.pi_exponent == 2 * s - 19
        assert res.petersson_factors is PeterssonFactors.DELTA_DELTA

    @pytest.mark.parametrize("s", sorted(TABLE3))
    def test_rankin_g20_value(self, s):
        res = rankin_g20_value(s)
        assert (res.rational, res.pi_exponent) == TABLE3[s]
        assert res.pi_exponent == 2 * s - 11
        assert res.petersson_factors is PeterssonFactors.G20_G20

    @pytest.mark.parametrize("s", sorted(TABLE4))
    def test_main_identity(self, s):
        res = main_identity(s)
        assert (res.rational, res.pi_exponent) == TABLE4[s]
        assert res.pi_exponent == 4 * s - 30
        assert res.petersson_factors is PeterssonFactors.BOTH

    @pytest.mark.parametrize("s", range(12, 20))
    def test_factorization_consistency(self, s):
        left = two_delta_product(s)
        right = rankin_g20_value(s)
        total = main_identity(s)
        assert total.rational == left.rational * right.rational
        assert total.pi_exponent == left.pi_exponent + right.pi_exponent

    def test_nonzero(self):
        for s in range(12, 20):
            assert main_identity(s).rational != 0

    def test_range_checked(self):
        for fn in (two_delta_product, rankin_g20_value, main_identity):
            with pytest.raises(ValueError):
                fn(11)
            with pytest.raises(ValueError):
                fn(20)


class TestCachedResults:
    CALLS = (
        (projection_coeffs, 3, 10),
        (two_delta_product, 12, 19),
        (rankin_g20_value, 12, 19),
        (main_identity, 12, 19),
    )

    def test_repeated_call_returns_the_same_result(self):
        for fn, lo, hi in self.CALLS:
            for s in (lo, hi):
                assert fn(s) is fn(s)

    def test_out_of_range_raises_on_every_call(self):
        # an exception is never cached
        for fn, lo, hi in self.CALLS:
            for _ in range(3):
                for s in (lo - 1, hi + 1):
                    with pytest.raises(ValueError):
                        fn(s)


class TestEulerFactorConsistency:
    def test_denominator_is_shifted_euler_factor(self, delta200):
        # 1 + 3*2^(13-s) + 2^(31-2s) must equal the weight-12 Euler factor at
        # p = 2 evaluated at s-9, with tau(2) read off the expansion
        tau2 = delta200[2]
        for s in range(12, 20):
            lhs = 1 + 3 * Fraction(2) ** (13 - s) + Fraction(2) ** (31 - 2 * s)
            sp = s - 9
            rhs = 1 - tau2 * Fraction(2) ** (1 - sp) + 2**11 * Fraction(2) ** (2 - 2 * sp)
            assert lhs == rhs


class TestConstantsPinned:
    """Every monomial of the Eisenstein constant terms, as recorded before
    C0' and D0' were built from one limit helper: sha256 of one
    "coefficient*pi^exponent" line per monomial, over the tuple at s."""

    C_SHA256 = {
        3: "c63200aa5ee186050e8b1d8ca44ea0e05ce52b28a55252b5321002964494e85f",
        4: "832ed22d6aee6508d382c0e9527497e63b8370d9bd1c5b4a08b7b12c70b05790",
        5: "41cef1ec7769314339f237e6819f6d0189420da5c872ae2513a77e9ecd117e98",
        6: "4810678b6b5b4f5a90682b5415a5103d83962aa3ebaa2f86c44b891c73cd3e97",
        7: "3fd022b91b73144e9d6099c272704bbde5476519999bae6a1a26a85663436430",
        8: "2cc91474c3ab75778680060a765effbd2c83ea5df85eabf8ed9b3766b4066d49",
        9: "4aaf3c8e7a4f1399280b334b3247541d4b0cfcbe6003fb1e99327e84e01a271c",
        10: "173231c1c5495efd0489ae000c4b72522f9a9055d3c6194c5e3b7f290d1fb7f0",
    }
    D_SHA256 = {
        12: "3750b7f376ef0c816c0a86c15b48399d50b083d7568f87c905914d3793a23f5c",
        13: "1e6951c54aab05db29190e5cc3e1bf4074b1ae7afdb4f46bc5c1e0493cbe779e",
        14: "a4dd3370757c23c9ce3f67b504d8a7883a8527fa364c97d4e331154afbbed670",
        15: "5ead7597efb228b5cdf8ec2ff18c28abad338b100736dd144870256f28a5d222",
        16: "bd50edffec453cbc62255b9c3cf01aa6852e876cb6bbc3858f5925caea864df3",
        17: "cf4f68b5a44da708363b437a34b4e913afd46b86d5e61a92d3039a64aec94f00",
        18: "aeb53c0ba8399fcb558242a4f6862e5e4e4ff306a9bca5333aec166d18f2d430",
        19: "eb9500d6b65b1e1f5166529f61b6e4b86c81753add00e187f9760451bf983ecf",
    }

    @staticmethod
    def _sha256(values):
        lines = "".join(f"{c}*pi^{e}\n" for v in values for c, e in v.monomials)
        return hashlib.sha256(lines.encode()).hexdigest()

    @pytest.mark.parametrize("s", sorted(C_SHA256))
    def test_c_constants(self, s):
        assert self._sha256(c_constants(s)) == self.C_SHA256[s]

    @pytest.mark.parametrize("s", sorted(D_SHA256))
    def test_d_constants(self, s):
        assert self._sha256(d_constants(s)) == self.D_SHA256[s]


# each entry point and the first s of its range
ENTRY_POINTS = {
    c_constants: 3,
    projection_coeffs: 3,
    two_delta_product: 12,
    d_constants: 12,
    rankin_g20_value: 12,
    main_identity: 12,
}


class TestNonIntS:
    @pytest.mark.parametrize("fn", ENTRY_POINTS, ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("kind", ["float", "half", "str", "None"])
    def test_refused_with_value_error(self, fn, kind):
        # an s that is not an int raises ValueError on every call, even
        # where its value is in range (12.0 for the value tables)
        lo = ENTRY_POINTS[fn]
        s = {"float": float(lo), "half": lo + 0.5, "str": str(lo), "None": None}[kind]
        for _ in range(2):
            with pytest.raises(ValueError, match="must be an int"):
                fn(s)

    @pytest.mark.parametrize("fn", ENTRY_POINTS, ids=lambda fn: fn.__name__)
    def test_integral_types_are_ints(self, fn):
        # any s operator.index accepts (a numpy integer, say) is its int
        lo = ENTRY_POINTS[fn]

        class Integral:
            def __index__(self):
                return lo

        got = fn(Integral())
        assert got == fn(lo)
        assert type(getattr(got, "s", lo)) is int


class TestRationalPass:
    """The rational pass against the PiValue assembly it replaced
    (tests/pivalue_oracle.py): every rational, pi-exponent and norm factor
    exactly equal."""

    @pytest.mark.parametrize("s", range(3, 11))
    def test_projection_side_matches_the_pivalue_assembly(self, s):
        a1, a2 = oracle.projection_coeffs(s)
        assert _projection(s) == (a1.as_monomial()[0], a2.as_monomial()[0])
        assert projection_coeffs(s) == (s, a1, a2)
        assert c_constants(s) == oracle.c_constants(s)

    @pytest.mark.parametrize("s", range(12, 20))
    def test_value_tables_match_the_pivalue_assembly(self, s):
        d0p, d0pp = oracle.d_constants(s)
        assert _d_rationals(s) == (d0p.as_monomial()[0], d0pp.as_monomial()[0])
        assert d_constants(s) == (d0p, d0pp)
        for fn in (two_delta_product, rankin_g20_value, main_identity):
            got, want = fn(s), getattr(oracle, fn.__name__)(s)
            assert got == want
            assert type(got.rational) is Fraction and type(got.pi_exponent) is int

    def test_value_tables_build_no_pivalue(self, monkeypatch):
        # a cold main_identity(12..19) stays on rationals, and a cold
        # projection_coeffs(3..10) builds only the 16 PiValues it returns
        built = []
        monomial = PiValue.monomial

        def counting(coeff, exponent):
            built.append(monomial(coeff, exponent))
            return built[-1]

        def cold():
            for fn in vars(critical_values).values():
                getattr(fn, "cache_clear", lambda: None)()

        monkeypatch.setattr(PiValue, "monomial", counting)
        cold()
        for s in range(12, 20):
            main_identity(s)
        assert built == []
        cold()
        returned = [pv for s in range(3, 11) for pv in projection_coeffs(s)[1:]]
        assert len(built) == 16
        assert all(a is b for a, b in zip(built, returned))
        cold()
