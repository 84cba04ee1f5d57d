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

import sys
import threading

import mpmath
import pytest
from mpmath.libmp import dps_to_prec, from_man_exp, fzero, mpf_sub

from spinl import rankin_coeffs
from spinl.numeric_lfun import context, evaluators, special, verify_tables
from spinl.numeric_lfun.bigfloat import GUARD
from spinl.numeric_lfun.evaluators import (
    _G_TOP, _NODE_CACHE, _band_chain, _deg2_table, _deg4_band, _deg4_moments, _deg4_node,
    _grid_x, _seeded_chain,
)

REF_DPS = 92
# both sides of the K_0/K_1 descent/asymptotic switch (n = 61/62 at 72 digits)
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
    """A degree-2 table's entries, mantissas at one exponent, as mpf in mp."""
    exp, mantissas = table
    return [mp.make_mpf(from_man_exp(m, exp)) for m in mantissas]


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
    assert len(table[1]) == _G_TOP + 1
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
    assert len(table[1]) == _G_TOP + 1
    for j, got in enumerate(_entries(mp, table)):
        assert abs(got - want[j]) / want[j] < mp.mpf(10) ** (1 - dps), f"G_{f}+{j}"


# past the band at every D above (n = 62 at 72 digits): X_n and the K_0/K_1
# pair at the pair's own precision, dps + 15 digits plus 20 bits
NS_PAST_BAND = (100, 150, 300, 1000)


@pytest.fixture(scope="module")
def ref_past_band():
    # c, g0, w_0..w_10 and the chain of mu = 1, tau_1..tau_17, in that
    # order; R_1 = X K_1 and R_m by parts, no quadrature
    mp = mpmath.mp.clone()
    mp.dps = REF_DPS
    out = {}
    for n in NS_PAST_BAND:
        a = (2 * mp.pi) ** 2 * n
        X = 2 * mp.sqrt(a)
        K = [mp.besselk(0, X), mp.besselk(1, X)]
        for j in range(1, 10):
            K.append(K[j - 1] + 2 * j / X * K[j])
        R = {1: X * K[1]}
        for m in range(3, 18, 2):
            R[m] = X**m * K[1] + (m - 1) * X ** (m - 1) * K[0] + (m - 1) ** 2 * R[m - 2]
        c = 2 / a**11
        out[n] = [
            c,
            c * K[0] / X**2,
            *(K[10 - j] / a ** (j + 1) / (X / 2) ** (10 - j) for j in range(11)),
            *(c * X ** -(m + 1) * R[m] for m in range(1, 18, 2)),
        ]
    return mp, out


@pytest.mark.parametrize("dps", DPS)
@pytest.mark.parametrize("n", NS_PAST_BAND)
def test_deg4_node_past_the_band_to_seven_more_digits(ref_past_band, n, dps):
    # every field of the node to 10^-(dps+7): X_n is taken at the K pair's
    # precision, as X_n rounded to dps digits plus 20 bits would leave only
    # 4.5-6 digits beyond dps here
    mp, want = ref_past_band[0], ref_past_band[1][n]
    assert n >= _deg4_band(dps)
    node = _deg4_node(n, dps)
    ints = (node.c, node.g0, *node.w, *node.tau)
    assert len(ints) == len(want) == 22
    for i, (v, w) in enumerate(zip(ints, want)):
        got = mp.make_mpf(from_man_exp(v, node.exp))
        assert abs(got - w) / w < mp.mpf(10) ** -(dps + 7), i


def test_deg4_node_past_the_largest_argument_raises():
    # X_n = 4 pi sqrt(n) reaches BESSEL_X_MAX = 1e4 at n ~ 633,257: the
    # node takes its pair from _k0_k1, which refuses it
    n = 633_300
    with pytest.raises(OverflowError, match="outside the supported domain"):
        special._k0_k1(4 * mpmath.pi * mpmath.sqrt(n), 30)
    with pytest.raises(OverflowError, match="outside the supported domain"):
        _deg4_node(n, 30)


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


# ---------------------------------------------------------------------------
# the K_0/K_1 pairs of the nodes below the band, by descent down the grid


def _pair_errors(mp, D, ns, reference):
    """The largest relative error of the descent's pairs at D over ns
    against reference(n) = (K_0, K_1) at X_n = 4 pi sqrt(n), in mp."""
    worst = mp.zero
    for n in ns:
        k0, k1, exp = _band_chain(D)[-n]
        for man, want in zip((k0, k1), reference(n)):
            worst = max(worst, abs(mp.make_mpf(from_man_exp(man, exp)) / want - 1))
    return worst


# mpmath's besselk sums its own series below the band, at 0.1-3 s a value
# at D + 20: every band n at the two lower D, three nodes at the others
@pytest.mark.parametrize("D", (15, 30, 40, 72))
def test_descent_against_mpmath(D):
    mp = mpmath.mp.clone()
    mp.dps = D + 20
    band = _deg4_band(D)
    ns = range(1, band) if D <= 30 else (1, band // 2, band - 1)

    def reference(n):
        X = 4 * mp.pi * mp.sqrt(n)
        return mp.besselk(0, X), mp.besselk(1, X)

    assert _pair_errors(mp, D, ns, reference) < mp.mpf(10) ** -(D + 3)


@pytest.mark.parametrize("D", (15, 30, 40, 72, 150))
def test_descent_against_the_series(D):
    # every band n against _k0_k1's power series 20 digits up, at X_n taken
    # to D + 40 digits: at D + 20 the series branch covers the whole band
    mp = mpmath.mp.clone()
    mp.dps = D + 20
    ctx = context(D + 40)

    def reference(n):
        _, k0, k1, exp = special._k0_k1(4 * ctx.pi * ctx.sqrt(n), D + 20)
        return [mp.make_mpf(from_man_exp(man, exp)) for man in (k0, k1)]

    assert _pair_errors(mp, D, range(1, _deg4_band(D)), reference) < mp.mpf(10) ** -(D + 3)


def _clear_degree4():
    _band_chain.cache_clear()
    _NODE_CACHE.clear()
    _deg4_moments.cache_clear()


@pytest.mark.parametrize("D, M", [(30, 150), (60, 300)])
def test_moments_call_no_series(monkeypatch, D, M):
    # the band nodes come from one descent over exactly the grid X_band, ...,
    # X_1, seeded past the series cut: band - 1 steps, each n below the band
    # reached exactly once (1 - lambda^2 = 1/(n+1) to the step's last bits);
    # _k0_k1 runs once for the seed, then once per node at or past the band,
    # at that node's level and at X_n to its asymptotic precision
    series, step, pair = special._k0_k1_series, evaluators._k_step, evaluators._k0_k1
    descent, node = evaluators._descent, evaluators._deg4_node
    calls, steps, pairs, descents, nodes = [], [], [], [], []
    monkeypatch.setattr(special, "_k0_k1_series", lambda *a: calls.append(a) or series(*a))
    monkeypatch.setattr(evaluators, "_k_step", lambda *a: steps.append(a[2]) or step(*a))
    monkeypatch.setattr(evaluators, "_k0_k1", lambda *a: pairs.append(a) or pair(*a))
    monkeypatch.setattr(evaluators, "_descent", lambda *a: descents.append(a) or descent(*a))
    monkeypatch.setattr(evaluators, "_deg4_node", lambda *a: nodes.append(a) or node(*a))
    A = rankin_coeffs(M)
    _clear_degree4()
    _deg4_moments(tuple(A[n] for n in range(1, M + 1)), 1, D + GUARD)
    assert calls == []
    band = _deg4_band(D + GUARD)
    ((xs, wp, dps),) = descents
    assert dps == D + GUARD
    assert xs == [_grid_x(m, wp) for m in range(band, 0, -1)]
    assert len(steps) == band - 1
    assert sorted(round((1 << wp) / shrink) - 1 for shrink in steps) == list(range(1, band))
    assert [n for n, _ in nodes] == list(range(1, M + 1))
    past = [(n, d) for n, d in nodes if n >= band]
    assert min(d for _, d in past) < D + GUARD  # the levels fall past the band
    wq = lambda d: dps_to_prec(d + 15) + 20
    seed = (from_man_exp(xs[0], -wp), D + GUARD)
    assert pairs == [seed] + [(from_man_exp(_grid_x(n, wq(d)), -wq(d)), d) for n, d in past]
    assert len(pairs) == 1 + M - band + 1
    _clear_degree4()


def test_node_is_a_function_of_n_and_dps():
    # the same bits cold, from inside a moments call (which builds the band
    # at dps and the nodes past it at the levels it picks), and from four
    # threads at once on empty caches
    dps = 40
    band = _deg4_band(dps)
    ns = range(1, 3 * band)
    _clear_degree4()
    A = rankin_coeffs(len(ns))
    _deg4_moments(tuple(A[n] for n in ns), 1, dps)
    inside = dict(_NODE_CACHE._data)
    keys = sorted(inside)
    assert {n for n, d in keys if d == dps} >= set(range(1, band))
    assert any(n >= band for n, _ in keys) and min(d for _, d in keys) < dps
    _clear_degree4()
    cold = [_deg4_node(n, d) for n, d in keys]
    assert cold == [inside[key] for key in keys]
    _clear_degree4()
    results = [[] for _ in range(4)]
    workers = [
        threading.Thread(target=lambda out=out: out.extend(_deg4_node(*key) for key in keys))
        for out in results
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert results == [cold] * 4
    _clear_degree4()


def test_verify_at_300_digits():
    # the (300, 4000) run, whose 933 nodes below the band the descent builds
    ctx = context(300)
    assert ctx.convert(verify_tables(300, 4000).max_rel_diff) < ctx.mpf("1e-298")
