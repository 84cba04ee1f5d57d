"""The per-n kernels of both smoothed sums against independent mpmath
evaluations of their defining formulas.

Degree 4, at a = (2 pi)^2 n and X = 2 sqrt(a): c = 2 / a^11,
g0 = c K_0(X) / X^2, w_j = a^-(j+1) (X/2)^-(10-j) K_(10-j)(X) and
tau_m = c X^-(m+1) R_m with R_m = int_X^inf x^m K_0(x) dx, m = 0..17.  The
reference takes K_0 and K_1 from mpmath's besselk, K_2..K_10 from the
textbook recurrence, R_0 = Ki_1(X), the seed of the class mu = 0, from
mpmath's quad of int_0^inf e^(-X cosh t) / cosh t dt, R_1 = X K_1(X), and
the higher R_m by parts: R_m = X^m K_1 + (m-1) X^(m-1) K_0 + (m-1)^2 R_(m-2).
Degree 2: G_a = x^-a Gamma(a, x) at x = 2 pi n from mpmath's gammainc, at
integer a and at a = f + j for fractional f.

All at 92 digits, D + 20 for the largest D, to 10^-(D-4) relative (the
fractional-order table to 10^-(D-1)).  The degree-4 node's fields, integers
F standing for F 2^exp, are further held to a few ulps of the same kernels
run at D + 30.
"""

import mpmath
import pytest
from mpmath.libmp import dps_to_prec, from_man_exp, fzero, mpf_sub

from spinl.numeric_lfun.evaluators import _G_TOP, _deg2_table, _deg4_node, _seeded_chain

REF_DPS = 92
# both sides of the K_0/K_1 series/asymptotic switch (n = 61/62 at 72 digits)
NS = (1, 2, 7, 61, 62, 150, 300)
DPS = (30, 42, 72)


@pytest.fixture(scope="module")
def ref():
    mp = mpmath.mp.clone()
    mp.dps = REF_DPS
    out = {}
    for n in NS:
        a = (2 * mp.pi) ** 2 * n
        X = 2 * mp.sqrt(a)
        K = [mp.besselk(0, X), mp.besselk(1, X)]
        for j in range(1, 10):
            K.append(K[j - 1] + 2 * j / X * K[j])
        if n >= 150:  # where mpmath's besselk takes its cheap expansion
            assert abs(K[10] / mp.besselk(10, X) - 1) < mp.mpf(10) ** (5 - REF_DPS)
        cut = mp.acosh(1 + (REF_DPS + 10) * mp.log(10) / X)
        ki1 = mp.exp(-X) * mp.quad(
            lambda t: mp.exp(-X * (mp.cosh(t) - 1)) / mp.cosh(t), mp.linspace(0, cut, 5)
        )
        R = [ki1, X * K[1]]
        for m in range(2, 18):
            R.append(X**m * K[1] + (m - 1) * X ** (m - 1) * K[0] + (m - 1) ** 2 * R[m - 2])
        c = 2 / a**11
        x2 = 2 * mp.pi * n
        out[n] = {
            "c": c,
            "g0": c * K[0] / X**2,
            "w": [K[10 - j] / a ** (j + 1) / (X / 2) ** (10 - j) for j in range(11)],
            "tau": [c * X ** -(m + 1) * R[m] for m in range(18)],
            "G": [x2**-j * mp.gammainc(j, x2) for j in range(1, _G_TOP + 2)],
        }
    return mp, out


def _close(mp, dps, got, want, what):
    got = mp.convert(got)
    assert abs(got - want) / abs(want) < mp.mpf(10) ** (4 - dps), what


def _entries(mp, table):
    """A degree-2 table's (mantissa, exponent) pairs as mpf in mp."""
    return [mp.make_mpf(from_man_exp(m, e)) for m, e in table]


def _fields(node, n, dps):
    """c, g0, w_0..w_10, the chains of mu = 1 and mu = 0 of a node, as libmp
    values."""
    ints = (node.c, node.g0, *node.w, *node.tau, *_seeded_chain(n, dps, node, fzero))
    return [from_man_exp(v, node.exp) for v in ints]


@pytest.mark.parametrize("dps", DPS)
@pytest.mark.parametrize("n", NS)
def test_deg4_node_against_defining_formulas(ref, n, dps):
    mp, want = ref[0], ref[1][n]
    node = _deg4_node(n, dps)
    assert len(node.w) == 11
    assert len(node.tau) == 9
    assert len(_seeded_chain(n, dps, node, fzero)) == 9
    c, g0, *rest = (mp.make_mpf(v) for v in _fields(node, n, dps))
    _close(mp, dps, c, want["c"], "c")
    _close(mp, dps, g0, want["g0"], "g0")
    for j, w in enumerate(rest[:11]):
        _close(mp, dps, w, want["w"][j], f"w_{j}")
    for i, tau in enumerate(rest[11:20]):
        _close(mp, dps, tau, want["tau"][2 * i + 1], f"tau_{2 * i + 1}")
    for i, tau in enumerate(rest[20:]):
        _close(mp, dps, tau, want["tau"][2 * i], f"tau_{2 * i}")


@pytest.mark.parametrize("dps", DPS)
@pytest.mark.parametrize("n", NS)
def test_deg2_table_against_gammainc(ref, n, dps):
    mp, want = ref[0], ref[1][n]
    table = _deg2_table(n, dps, 1)
    assert len(table) == _G_TOP + 1
    for j, g in enumerate(_entries(mp, table), 1):
        _close(mp, dps, g, want["G"][j - 1], f"G_{j}")


# fractional parts of the order a = f + j, both ends of (0, 1) included
FS = (1e-6, 0.25, 0.5, 0.75, 0.999999)
NS_DEG2 = (1, 2, 7, 30, 61, 300)


@pytest.fixture(scope="module")
def ref_frac():
    mp = mpmath.mp.clone()
    mp.dps = REF_DPS
    out = {}
    for n in NS_DEG2:
        x = 2 * mp.pi * n
        for f in FS:
            orders = [mp.mpf(f) + j for j in range(_G_TOP + 1)]
            out[n, f] = [x**-a * mp.gammainc(a, x) for a in orders]
    return mp, out


@pytest.mark.parametrize("dps", DPS)
@pytest.mark.parametrize("n", NS_DEG2)
@pytest.mark.parametrize("f", FS)
def test_deg2_table_at_fractional_order_against_gammainc(ref_frac, f, n, dps):
    # G_f, ..., G_(f+19): the continued-fraction seed and the recurrence
    # in a = f + j, near f = 0 and f = 1 too
    mp, want = ref_frac[0], ref_frac[1][n, f]
    table = _deg2_table(n, dps, f)
    assert len(table) == _G_TOP + 1
    for j, got in enumerate(_entries(mp, table)):
        assert abs(got - want[j]) / want[j] < mp.mpf(10) ** (1 - dps), f"G_{f}+{j}"


def _ulps(got, ref, dps: int) -> float:
    """|got - ref| in units of got's last place at dps digits, for libmp
    values."""
    _, man, exp, _ = mpf_sub(got, ref)
    return man * 2.0 ** (exp - (got[2] + got[3] - dps_to_prec(dps)))


@pytest.mark.parametrize("dps", (30, 72))
def test_deg4_node_fields_within_a_few_ulps(dps):
    # every cached field against the same kernels 30 digits up; rounding
    # X = 4 pi sqrt(n) to dps digits before the kernels would show here
    ns = (*range(1, 11), 13, 17, 24, 30, 41, 55, 61, 62, 80, 100, 128, 150, 200, 240, 280, 300)
    for n in ns:
        lo, hi = _deg4_node(n, dps), _deg4_node(n, dps + 30)
        fields = zip(_fields(lo, n, dps), _fields(hi, n, dps + 30))
        for i, (a, b) in enumerate(fields):
            assert _ulps(a, b, dps) <= 4, (n, i)
