"""The numeric layer's shared state: pooled per-thread working contexts,
value contexts for returned and cached numbers, and the bounded caches.
Results must not depend on the thread, on what ran before, or on what a
caller did to a context it was handed."""

import math
import threading
from functools import lru_cache

import pytest
from mpmath.libmp import dps_to_prec, from_float, from_man_exp, fzero, mpf_pos, round_nearest

from spinl import delta_qexp, qexp, rankin_coeffs, zeta_exact
from spinl.numeric_lfun import (
    bessel_k,
    bickley_ki1,
    context,
    delta_lfunction,
    functional_eq_residual,
    gamma_upper,
    incomplete_gamma_int,
    kernel_mellin_check,
    l_degree2,
    l_rankin4,
    petersson_norm,
    pi_value_numeric,
    rankin_lfunction,
    round_to,
    verify_tables,
)
from spinl.numeric_lfun import bigfloat, evaluators
from spinl.numeric_lfun.special import _k0_k1


PER_N_CACHES = (evaluators._NODE_CACHE, evaluators._KI1_CACHE)
# the evaluators' lru-cached functions, taken here so that a test may patch
# their names
LRU_CACHED = (
    evaluators._band_chain, evaluators._deg2_moments, evaluators._deg4_moments,
    evaluators._kernel_errors, evaluators._falling, evaluators._deg2_factors,
    evaluators._deg4_factors, evaluators._norm,
)


def _clear_caches():
    for cache in PER_N_CACHES:
        cache.clear()
    for fn in LRU_CACHED:
        fn.cache_clear()


def _recording(monkeypatch):
    """Every value the lru-cached functions give from here on, by (name,
    *args): each name is patched to record what its cached function
    returns."""
    entries = {}
    for fn in LRU_CACHED:
        def recorded(*args, fn=fn):
            out = entries[(fn.__name__, *args)] = fn(*args)
            return out

        monkeypatch.setattr(evaluators, fn.__name__, recorded)
    return entries


def _numbers(entry):
    """Every number in a cache entry, however its tuples nest."""
    if isinstance(entry, tuple):
        return [v for item in entry for v in _numbers(item)]
    return [entry]


def _in_threads(*jobs):
    """Run the callables at once, one thread each; return their results."""
    results = [None] * len(jobs)
    errors = []
    start = threading.Barrier(len(jobs))

    def run(i, job):
        try:
            start.wait()
            results[i] = job()
        except Exception as exc:  # re-raised in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i, job)) for i, job in enumerate(jobs)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


class TestContextPool:
    def test_same_object_in_one_thread(self):
        assert context(31) is context(31)
        assert context(31) is not context(32)

    def test_other_thread_gets_its_own(self):
        mine = context(31)
        (theirs,) = _in_threads(lambda: context(31))
        assert theirs is not mine
        assert theirs.dps == mine.dps == 31

    def test_caller_changes_are_undone(self):
        ctx = context(33)
        ctx.dps = 80
        assert context(33).dps == 33
        assert context(33).prec == dps_to_prec(33)

    def test_floor_still_enforced(self):
        with pytest.raises(ValueError):
            context(14)
        with pytest.raises(ValueError):
            round_to(14, 1)


class TestRoundTo:
    """round_to of an mpf rounds its libmp value once, with no conversion:
    the number +convert gives in the value context."""

    @pytest.mark.parametrize("D", [15, 30, 61])
    def test_mpf_equals_convert_then_plus(self, D):
        home = bigfloat._value_context(D)
        for src in (D - 7 if D > 22 else D + 3, D, D + 29):
            ctx = context(src)
            values = [ctx.pi, +ctx.pi, ctx.mpf(1) / 3, -ctx.sqrt(2) * 10**40,
                      ctx.mpf(2) ** -300 / 7, ctx.mpf(0), ctx.mpf(5)]
            for x in values:
                got = round_to(D, x)
                want = +home.convert(x)
                assert got.context is home and got._mpf_ == want._mpf_

    def test_int_and_str_keep_the_convert_path(self):
        home = bigfloat._value_context(20)
        for x in (7, -3 * 10**40, "0.1", "2.5e-30"):
            assert round_to(20, x)._mpf_ == (+home.convert(x))._mpf_


def _state():
    """Every cache the numeric layer and the q-series keep, and the
    contexts made so far, as comparable snapshots."""
    return (
        [dict(cache._data) for cache in PER_N_CACHES] + [fn.cache_info() for fn in LRU_CACHED],
        [getattr(qexp, name).cache_info().currsize for name in ("delta_qexp", "g20_qexp", "rankin_coeffs")],
        sorted(bigfloat._VALUE_CONTEXTS),
        sorted(getattr(bigfloat._threads, "pool", {})),
    )


class TestFloorBeforeWork:
    # each public numeric entry refuses D < MIN_DPS before it computes or
    # caches anything: a refused l_rankin4 that ran first would leave its
    # moments and 150 nodes behind
    D = bigfloat.MIN_DPS - 1
    ENTRIES = {
        "l_degree2": lambda D: l_degree2(delta_qexp(60), 12, 6, D, 60),
        "l_rankin4": lambda D: l_rankin4(rankin_coeffs(150), 12, D, 150),
        "functional_eq_residual": lambda D: functional_eq_residual(rankin_lfunction(150), None, 13.5, D, 150),
        "kernel_mellin_check": lambda D: kernel_mellin_check(13, D),
        "petersson_norm": lambda D: petersson_norm(12, 4, D),
        "verify_tables": lambda D: verify_tables(D, 150),
        "bessel_k": lambda D: bessel_k(1, 2.5, D),
        "bickley_ki1": lambda D: bickley_ki1(3, D),
        "gamma_upper": lambda D: gamma_upper(2.5, 3, D),
        "incomplete_gamma_int": lambda D: incomplete_gamma_int(3, 2, D),
        "pi_value_numeric": lambda D: pi_value_numeric(zeta_exact(4), D),
    }

    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_refused_with_every_cache_unchanged(self, name):
        # the inputs the callers build (q-series, coefficient sets) first
        delta_qexp(60), rankin_coeffs(150), rankin_lfunction(150)
        before = _state()
        with pytest.raises(ValueError, match=f">= {bigfloat.MIN_DPS} digits"):
            self.ENTRIES[name](self.D)
        assert _state() == before

    # D of any type operator.index refuses, refused as early: None and '30'
    # once raised TypeError from a comparison or deep inside, and 30.5
    # computed at 30.5 digits
    NOT_INT_D = (None, "30", 30.0, 30.5)

    @pytest.mark.parametrize("D", NOT_INT_D, ids=repr)
    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_d_not_an_int_refused_with_every_cache_unchanged(self, name, D):
        delta_qexp(60), rankin_coeffs(150), rankin_lfunction(150)
        before = _state()
        with pytest.raises(ValueError, match=f"must be an int >= {bigfloat.MIN_DPS} digits"):
            self.ENTRIES[name](D)
        assert _state() == before

    # an argument that is not a real number, refused right after D: None
    # once raised TypeError from the context or from float(), a string
    # computed a value, and gamma_upper's '2.5' failed in int().  bessel_k
    # alone reads a decimal string x exactly (TestBitPins pins that).  inf
    # and nan are refused the same way: an s of either once raised
    # OverflowError or a NaN conversion error, an x of either returned nan
    # (or 0.0 at non-integer s), and Ki_1 failed inside
    NOT_REAL = {
        "l_degree2-None": lambda: l_degree2(delta_qexp(60), 12, None, 30, 60),
        "l_degree2-'6'": lambda: l_degree2(delta_qexp(60), 12, "6", 30, 60),
        "functional_eq_residual-None": lambda: functional_eq_residual(rankin_lfunction(150), None, None, 30, 150),
        "functional_eq_residual-'13.5'": lambda: functional_eq_residual(rankin_lfunction(150), None, "13.5", 30, 150),
        "functional_eq_residual-deg2-'6'": lambda: functional_eq_residual(delta_lfunction(60), None, "6", 30, 60),
        "bessel_k-None": lambda: bessel_k(1, None, 30),
        "bessel_k-nu-None": lambda: bessel_k(None, 2, 30),
        "bickley_ki1-'2'": lambda: bickley_ki1("2", 30),
        "gamma_upper-None": lambda: gamma_upper(None, 2, 30),
        "gamma_upper-'2.5'": lambda: gamma_upper("2.5", 2, 30),
        "gamma_upper-x-None": lambda: gamma_upper(2.5, None, 30),
        "incomplete_gamma_int-None": lambda: incomplete_gamma_int(2, None, 30),
        "incomplete_gamma_int-s-None": lambda: incomplete_gamma_int(None, 2, 30),
        "incomplete_gamma_int-s-'3'": lambda: incomplete_gamma_int("3", 2, 30),
        "incomplete_gamma_int-s-inf": lambda: incomplete_gamma_int(math.inf, 2, 30),
        "incomplete_gamma_int-s-nan": lambda: incomplete_gamma_int(math.nan, 2, 30),
        "gamma_upper-inf": lambda: gamma_upper(math.inf, 2, 30),
        "gamma_upper-nan": lambda: gamma_upper(math.nan, 2, 30),
        "incomplete_gamma_int-inf": lambda: incomplete_gamma_int(2, math.inf, 30),
        "incomplete_gamma_int-nan": lambda: incomplete_gamma_int(2, math.nan, 30),
        "gamma_upper-x-inf": lambda: gamma_upper(2, math.inf, 30),
        "gamma_upper-x-inf-2.5": lambda: gamma_upper(2.5, math.inf, 30),
        "bickley_ki1-nan": lambda: bickley_ki1(math.nan, 30),
        "bickley_ki1-inf": lambda: bickley_ki1(math.inf, 30),
        "bessel_k-inf": lambda: bessel_k(1, math.inf, 30),
        "l_degree2-nan": lambda: l_degree2(delta_qexp(60), 12, math.nan, 30, 60),
    }

    @pytest.mark.parametrize("name", sorted(NOT_REAL))
    def test_s_not_real_refused_with_every_cache_unchanged(self, name):
        delta_qexp(60), rankin_coeffs(150), rankin_lfunction(150), delta_lfunction(60)
        before = _state()
        with pytest.raises(ValueError, match="must be a real number"):
            self.NOT_REAL[name]()
        assert _state() == before

    # a k or r of a type operator.index refuses, refused before any context
    # is made: 12.0 once passed the (k, r) check, as 12.0 == 12, and raised
    # TypeError from bernoulli after context(D + GUARD)
    NOT_INTEGRAL_NORM = {"k-12.0": (12.0, 4), "r-4.0": (12, 4.0), "k-None": (None, 4)}

    @pytest.mark.parametrize("name", sorted(NOT_INTEGRAL_NORM))
    def test_norm_args_not_ints_refused_with_every_context_unchanged(self, name):
        k, r = self.NOT_INTEGRAL_NORM[name]

        def job():  # in a fresh thread, whose context pool starts empty
            with pytest.raises(ValueError, match=r"unsupported \(k, r\)"):
                petersson_norm(k, r, 30)
            return getattr(bigfloat._threads, "pool", {})

        before = _state()
        assert _in_threads(job) == [{}]
        assert _state() == before

    # an M below the degree-4 floor is refused as early: verify_tables
    # once computed both norms and the Delta L-values first; so is an M
    # of a type operator.index refuses (150.0 once raised TypeError inside)
    BELOW_FLOOR = {
        "verify_tables": (lambda: verify_tables(120, 150), 154),
        "l_rankin4": (lambda: l_rankin4(rankin_coeffs(150), 12, 60, 43), 44),
        "verify_tables-150.0": (lambda: verify_tables(30, 150.0), 14),
        "l_rankin4-150.0": (lambda: l_rankin4(rankin_coeffs(150), 12, 30, 150.0), 14),
    }

    @pytest.mark.parametrize("name", sorted(BELOW_FLOOR))
    def test_m_below_the_floor_refused_with_every_cache_unchanged(self, name):
        call, need = self.BELOW_FLOOR[name]
        rankin_coeffs(150)
        before = _state()
        with pytest.raises(ValueError, match=f"need M >= {need}$"):
            call()
        assert _state() == before


class TestValuesIgnoreContextMutation:
    def test_l_degree2_and_earlier_values_unchanged(self):
        form = delta_qexp(40)
        before = l_degree2(form, 12, 6, 20, 30)
        derived = before / 3 + before * before
        # l_degree2 at 20 digits works in context(30) and builds its Gamma
        # tables on libmp values at 30 digits and below; knock context(30),
        # context(38) and the returned value's neighbours off, and rebuild
        # the tables under them
        for d in (20, 30, 38):
            context(d).dps = 120
        assert before / 3 + before * before == derived
        assert repr(before / 3 + before * before) == repr(derived)
        for d in (20, 30, 38):
            context(d).prec = 40
        _clear_caches()
        after = l_degree2(form, 12, 6, 20, 30)
        assert repr(after) == repr(before)
        assert repr(before / 3 + before * before) == repr(derived)

    def test_cached_values_live_in_value_contexts(self, monkeypatch):
        # a cached number typed to a working context would round at that
        # context's precision of the moment, in whichever thread reads it;
        # the degree-4 per-n data are plain integers at a node exponent and
        # the moments libmp values, each rounded once at its key's dps
        _clear_caches()
        lru_entries = _recording(monkeypatch)
        l_rankin4(rankin_coeffs(14), 14, 20, 14)
        functional_eq_residual(rankin_lfunction(14), None, 13.5, 20, 12)
        l_degree2(delta_qexp(30), 12, 6, 20, 30)
        kernel_mellin_check(13, 20)
        petersson_norm(12, 4, 20)  # the one caller of the norm memo
        assert all(fn.cache_info().currsize for fn in LRU_CACHED)
        for entries in [cache._data for cache in PER_N_CACHES] + [lru_entries]:
            assert entries
            for key, entry in entries.items():
                home = round_to(key[-1], 1).context
                for v in _numbers(entry):
                    assert type(v) is int or v.context is home
        for key, entry in lru_entries.items():
            if key[0] not in ("_deg2_moments", "_deg4_moments"):
                continue
            for v in entry:
                assert type(v) is tuple and len(v) == 4
                assert mpf_pos(v, dps_to_prec(key[-1]), round_nearest) == v


class TestThreads:
    def test_verify_tables_concurrent_equals_serial(self):
        _clear_caches()
        serial = verify_tables(20, 40).as_dict()
        _clear_caches()
        got = _in_threads(
            lambda: verify_tables(20, 40).as_dict(),
            lambda: verify_tables(20, 40).as_dict(),
        )
        assert got[0] == serial
        assert got[1] == serial

    def test_mixed_precisions_concurrent(self):
        A = rankin_coeffs(40)
        _clear_caches()
        serial = [repr(l_rankin4(A, 15, d, 40)) for d in (20, 27)]
        _clear_caches()
        got = _in_threads(
            lambda: repr(l_rankin4(A, 15, 20, 40)),
            lambda: repr(l_rankin4(A, 15, 27, 40)),
        )
        assert got == serial

    def test_moments_concurrent_equal_serial(self):
        # the integer per-n data and the moments summed from them, built by
        # two threads at once after clear(), equal the serial build; -0.4
        # is a seeded fractional class
        A = rankin_coeffs(60)
        tau = delta_qexp(40).integer_coeffs()
        deg4, deg2 = tuple(A[n] for n in range(1, 61)), tuple(tau[1:])

        def build():
            out = [repr(evaluators._deg4_moments(deg4, mu, 32)) for mu in (0, 1, -0.4)]
            return out + [repr(evaluators._deg2_moments(deg2, 1, 32))]

        _clear_caches()
        serial = build()
        _clear_caches()
        assert _in_threads(build, build) == [serial, serial]

    def test_three_threads_at_a_short_switch_interval_give_identical_bytes(self):
        # three cold verify runs fill the s-side factor and norm memos at
        # once, switching as often as the interpreter allows
        import json
        import sys

        def dump():
            return json.dumps(verify_tables(20, 40).as_dict(), sort_keys=True).encode()

        _clear_caches()
        serial = dump()
        _clear_caches()
        outs = []
        threads = [threading.Thread(target=lambda: outs.append(dump())) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert outs == [serial] * 3

    def test_kernel_check_concurrent_equals_serial(self):
        def seven():
            return [repr(kernel_mellin_check(s0, 30)) for s0 in range(13, 20)]

        _clear_caches()
        serial = seven()
        assert seven() == serial  # from the cache
        _clear_caches()
        assert _in_threads(seven, seven) == [serial, serial]


class TestBoundedCaches:
    def test_lru_eviction(self):
        cache = evaluators._BoundedCache(2)
        cache["a"] = 1
        cache["b"] = 2
        assert cache.get("a") == 1  # "b" is now least recent
        cache["c"] = 3
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        cache.clear()
        assert not cache and len(cache) == 0

    def test_concurrent_puts_respect_cap(self):
        cache = evaluators._BoundedCache(16)

        def fill(base):
            for i in range(2000):
                cache[(base, i)] = i
                cache.get((base, i - 1))
                assert len(cache) <= 16

        _in_threads(lambda: fill(0), lambda: fill(1), lambda: fill(2))
        assert len(cache) == 16

    def test_caches_have_a_fixed_cap(self):
        for cache in PER_N_CACHES:
            assert cache.cap == evaluators._CACHE_CAP >= 300
        # the moments, the band's descent and the kernel errors share one
        # fixed size
        assert {fn.cache_parameters()["maxsize"] for fn in LRU_CACHED} == {64}

    def test_moment_cache_is_bounded(self):
        # one entry per coefficient set: distinct crooked sets evict the
        # oldest instead of growing
        tau = delta_qexp(30).integer_coeffs()
        ctx = context(30)
        moments = evaluators._deg2_moments
        cap = moments.cache_parameters()["maxsize"]
        _clear_caches()
        for i in range(cap + 5):
            evaluators._lambda(
                ctx, 2, 12, 1, tuple(tau[n] + i * (n == 3) for n in range(1, 21)), 6
            )
            assert moments.cache_info().currsize <= cap
        assert moments.cache_info().currsize == cap
        _clear_caches()

    @pytest.mark.parametrize("D, M, band", [(30, 150, (21, 1)), (60, 300, (57, 1))])
    def test_verify_memo_traffic(self, D, M, band):
        # a cold verify run takes the Rankin moments once (one class, the
        # integer s) and the degree-2 moments once per form, each read
        # again by every later value: 39 of 42 moment reads are hits; the
        # band's descent is made once and read by every node below the
        # band.  The falling factorials are made once per s and read again
        # at 31 - s; the degree-2 factors once per s, L(8, Delta) read by
        # the Delta norm and a Delta row; the degree-4 factors once per s
        # and each norm once
        memos = (
            evaluators._deg4_moments, evaluators._deg2_moments, evaluators._band_chain,
            evaluators._falling, evaluators._deg2_factors, evaluators._deg4_factors,
            evaluators._norm,
        )
        _clear_caches()
        verify_tables(D, M)
        assert [fn.cache_info()[:2] for fn in memos] == [
            (15, 1), (24, 2), band, (8, 8), (1, 12), (0, 8), (0, 2),
        ]
        _clear_caches()

    def test_a_warm_verify_reads_no_coefficient_and_misses_no_memo(self, monkeypatch):
        # the second run reads each coefficient set as a slice of the
        # series' tuple and finds every s-side factor and norm memoized
        _clear_caches()
        first = verify_tables(60, 300)
        reads = []
        for cls in (qexp.QSeries, qexp.RankinCoeffs):
            def spy(self, n, real=cls.__getitem__):
                reads.append(n)
                return real(self, n)

            monkeypatch.setattr(cls, "__getitem__", spy)
        new = (evaluators._falling, evaluators._deg2_factors, evaluators._deg4_factors, evaluators._norm)
        misses = [fn.cache_info().misses for fn in new]
        second = verify_tables(60, 300)
        assert reads == []
        assert [fn.cache_info().misses for fn in new] == misses
        assert [list(map(repr, row)) for row in second.rows] == [list(map(repr, row)) for row in first.rows]
        _clear_caches()

    def test_per_n_caches_read_by_the_benchmark_remain(self):
        # the benchmark worker reads these two by name and takes len()
        for name in ("_NODE_CACHE", "_KI1_CACHE"):
            assert len(getattr(evaluators, name)) >= 0

    def test_eviction_keeps_values(self, monkeypatch):
        A = rankin_coeffs(14)
        spec = rankin_lfunction(14)
        form = delta_qexp(30)
        _clear_caches()
        full_l = repr(l_rankin4(A, 14, 20, 14))
        full_r = repr(functional_eq_residual(spec, None, 13.5, 20, 12))
        full_2 = repr(l_degree2(form, 12, 6, 20, 30))
        assert all(len(cache) > 5 for cache in PER_N_CACHES)
        moments = (evaluators._deg2_moments, evaluators._deg4_moments)
        assert sum(fn.cache_info().currsize for fn in moments) > 1
        _clear_caches()
        for cache in PER_N_CACHES:
            monkeypatch.setattr(cache, "cap", 5)
        # the moments of both degrees in caches of one entry each
        small = [lru_cache(maxsize=1)(fn.__wrapped__) for fn in moments]
        for fn in small:
            monkeypatch.setattr(evaluators, fn.__name__, fn)
        for _ in range(2):
            assert repr(l_rankin4(A, 14, 20, 14)) == full_l
            assert repr(functional_eq_residual(spec, None, 13.5, 20, 12)) == full_r
            assert repr(l_degree2(form, 12, 6, 20, 30)) == full_2
            assert all(len(cache) <= cache.cap for cache in PER_N_CACHES)
            for fn in (*small, *LRU_CACHED):
                info = fn.cache_info()
                assert info.currsize <= info.maxsize
        _clear_caches()


class TestLevelsMakeNoContexts:
    """Per-n data at any level run on libmp values and integers, so a cold
    run asks for no context precision that full-precision per-n data did
    not; the sets below were recorded from that build."""

    VERIFY_60_300 = ({65, 70, 72, 73, 78, 81, 83, 91}, {60, 65, 70, 72, 73, 83})
    CERTIFY_30 = ({40, 48, 50}, {30})

    @staticmethod
    def _requested(monkeypatch, job):
        """(working, value) context precisions job asks for, run cold in a
        fresh thread with an empty value-context table."""
        from spinl.numeric_lfun import bigfloat

        def run():
            job()
            return set(getattr(bigfloat._threads, "pool", ()))

        monkeypatch.setattr(bigfloat, "_VALUE_CONTEXTS", {})
        _clear_caches()
        try:
            (work,) = _in_threads(run)
            return work, set(bigfloat._VALUE_CONTEXTS)
        finally:
            _clear_caches()  # their values live in the table being dropped

    def test_verify(self, monkeypatch):
        work, value = self._requested(monkeypatch, lambda: verify_tables(60, 300))
        assert work <= self.VERIFY_60_300[0]
        assert value <= self.VERIFY_60_300[1]

    def test_certify(self, monkeypatch):
        def job():
            kernel_mellin_check(13, 30)
            for t in (12.5, 15.5):
                functional_eq_residual(rankin_lfunction(150), None, t, 30, 150)
            functional_eq_residual(delta_lfunction(30), None, 6.25, 30, 30)

        work, value = self._requested(monkeypatch, job)
        assert work <= self.CERTIFY_30[0]
        assert value <= self.CERTIFY_30[1]

    def test_real_t_residual(self, monkeypatch):
        # a generic real t seeds one chain per node and side on integers:
        # the run works at D + GUARD and keeps its values at D, its moments
        # as libmp values
        from spinl.numeric_lfun.bigfloat import GUARD

        def job():
            functional_eq_residual(rankin_lfunction(150), None, 13.3, 30, 150)

        assert self._requested(monkeypatch, job) == ({30 + GUARD}, {30})

    @pytest.mark.parametrize("D, M", [(30, 150), (60, 300)])
    def test_verify_works_at_one_precision(self, monkeypatch, D, M):
        # the norms, L(j, Delta) and the rows work in context(D + GUARD) on
        # one set of Delta moments and round once to D
        from spinl.numeric_lfun.bigfloat import GUARD

        built, moments = [], evaluators._moments

        def recording(coeffs, dps, vector, scale):  # one call per moment cache miss
            built.append((scale, coeffs))
            return moments(coeffs, dps, vector, scale)

        monkeypatch.setattr(evaluators, "_moments", recording)
        work, value = self._requested(monkeypatch, lambda: verify_tables(D, M))
        assert work == {D + GUARD}
        assert value == {D}
        delta = [c for scale, c in built if scale is evaluators._deg2_scale and c[:2] == (1, -24)]
        assert len(delta) == 1

    @pytest.mark.parametrize("argv", [("verify",), ("--format", "json", "table", "4")])
    def test_cli_adds_no_precision(self, monkeypatch, tmp_path, argv):
        # a CLI run renders in the context its numeric layer works in
        from spinl.cli import main
        from spinl.numeric_lfun.bigfloat import GUARD

        def job():
            assert main(["--prec", "30", "--out", str(tmp_path / "out"), *argv]) == 0

        assert self._requested(monkeypatch, job) == ({30 + GUARD}, {30})

    def test_per_n_data_at_any_level(self, monkeypatch):
        def job():
            for d in range(15, 41, 5):
                for n in (1, 7, 150):
                    node = evaluators._deg4_node(n, d)
                    for mu in (fzero, from_float(0.3), from_float(-0.6)):
                        evaluators._seeded_chain(n, d, node, mu)
                    for f in (1, 0.25):
                        evaluators._deg2_table(n, d, f)

        assert self._requested(monkeypatch, job) == (set(), set())


def test_euler_gamma_computed_once(monkeypatch):
    # the K_0/K_1 series takes Euler's gamma at one rung above its largest
    # working precision at D: mpmath's memo computes the constant once for
    # the kernel check's series nodes, not each time a node asks for 5%
    # more bits (the degree-4 nodes below the cut come from the descent)
    from spinl.numeric_lfun import special

    memoized = special.euler_fixed
    body = memoized.__closure__[0].cell_contents  # what mpmath's memo calls
    monkeypatch.setattr(body, "memo_prec", -1)
    monkeypatch.setattr(body, "memo_val", None)
    sizes = []

    def recorded(prec):
        value = memoized(prec)
        sizes.append(body.memo_prec)
        return value

    monkeypatch.setattr(special, "euler_fixed", recorded)
    _clear_caches()
    kernel_mellin_check(13, 60)
    assert len(set(sizes)) == 1


class TestBesselPair:
    @pytest.mark.parametrize("x", ["0.003", "2.5", "17.7", "30.1", "64", "250"])
    def test_pair_equals_bessel_k(self, x):
        # the unrounded pair from the fixed-point core, rounded once to
        # dps digits, is what bessel_k returns for orders 0 and 1
        ctx = context(30)
        for dps in (20, 45):
            _, k0, k1, exp = _k0_k1(ctx.mpf(x), dps)
            for nu, man in enumerate((k0, k1)):
                once = from_man_exp(man, exp, dps_to_prec(dps), round_nearest)
                assert bessel_k(nu, ctx.mpf(x), dps)._mpf_ == once

    def test_no_context_per_series_precision(self):
        # the fixed-point core and the recurrence run on integers: a
        # series-branch argument (working precision D + 0.87 x + 15) must
        # not add a pooled context for its precision
        from spinl.numeric_lfun import bigfloat

        ctx = context(30)
        before = set(bigfloat._threads.pool)
        for x in ("0.5", "3.25", "17.7", "40.4"):
            bessel_k(7, ctx.mpf(x), 23)
            _k0_k1(ctx.mpf(x), 23)
        assert set(bigfloat._threads.pool) == before

    def test_domain_checks_kept(self):
        with pytest.raises(OverflowError):
            _k0_k1(1e5, 20)
        with pytest.raises(ValueError):
            bessel_k(21, 2.0, 20)
        # a non-integral order once reached range() and raised TypeError
        with pytest.raises(ValueError):
            bessel_k(2.5, 1, 30)
        assert bessel_k(2.0, 1, 30) == bessel_k(2, 1, 30)
