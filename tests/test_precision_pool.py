"""The numeric layer's shared state: pooled per-thread working contexts,
value contexts for returned and cached numbers, and the bounded caches.
Results must not depend on the thread, on what ran before, or on what a
caller did to a context it was handed."""

import threading

import pytest
from mpmath.libmp import dps_to_prec, from_float, from_man_exp, fzero, round_nearest

from spinl import delta_qexp, rankin_coeffs
from spinl.numeric_lfun import (
    bessel_k,
    context,
    delta_lfunction,
    functional_eq_residual,
    kernel_mellin_check,
    l_degree2,
    l_rankin4,
    rankin_lfunction,
    round_to,
    verify_tables,
)
from spinl.numeric_lfun import evaluators
from spinl.numeric_lfun.special import _k0_k1


PER_N_CACHES = (evaluators._NODE_CACHE, evaluators._KI1_CACHE)
CACHES = PER_N_CACHES + (evaluators._MOMENT_CACHE, evaluators._KERNEL_CACHE)


def _clear_caches():
    for cache in CACHES:
        cache.clear()


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

    def test_cached_values_live_in_value_contexts(self):
        # a cached number typed to a working context would round at that
        # context's precision of the moment, in whichever thread reads it;
        # the degree-4 per-n data are plain integers at a node exponent
        _clear_caches()
        l_rankin4(rankin_coeffs(14), 14, 20, 14)
        functional_eq_residual(rankin_lfunction(14), None, 13.5, 20, 8)
        l_degree2(delta_qexp(30), 12, 6, 20, 30)
        kernel_mellin_check(13, 20)
        for cache in CACHES:
            assert cache
            for key, entry in cache._data.items():
                home = round_to(key[-1], 1).context
                for v in _numbers(entry):
                    assert type(v) is int or v.context is home


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
        assert evaluators._MOMENT_CACHE.cap == evaluators._MOMENT_CAP > 0
        assert evaluators._KERNEL_CACHE.cap == evaluators._MOMENT_CAP

    def test_moment_cache_is_bounded(self):
        # one entry per coefficient set: distinct crooked sets evict the
        # oldest instead of growing
        tau = delta_qexp(30).integer_coeffs()
        ctx = context(30)
        _clear_caches()
        for i in range(evaluators._MOMENT_CAP + 5):
            evaluators._lambda(
                ctx, 2, 12, 1, tuple(tau[n] + i * (n == 3) for n in range(1, 21)), 6
            )
            assert len(evaluators._MOMENT_CACHE) <= evaluators._MOMENT_CAP
        assert len(evaluators._MOMENT_CACHE) == evaluators._MOMENT_CAP
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
        full_r = repr(functional_eq_residual(spec, None, 13.5, 20, 8))
        full_2 = repr(l_degree2(form, 12, 6, 20, 30))
        assert all(len(cache) > 5 for cache in PER_N_CACHES)
        assert len(evaluators._MOMENT_CACHE) > 1
        _clear_caches()
        for cache in PER_N_CACHES:
            monkeypatch.setattr(cache, "cap", 5)
        monkeypatch.setattr(evaluators._MOMENT_CACHE, "cap", 1)
        for _ in range(2):
            assert repr(l_rankin4(A, 14, 20, 14)) == full_l
            assert repr(functional_eq_residual(spec, None, 13.5, 20, 8)) == full_r
            assert repr(l_degree2(form, 12, 6, 20, 30)) == full_2
            assert all(len(cache) <= cache.cap for cache in CACHES)
        _clear_caches()


class TestLevelsMakeNoContexts:
    """Per-n data at any level run on libmp values and integers, so a cold
    run asks for no context precision that full-precision per-n data did
    not; the sets below were recorded from that build."""

    VERIFY_60_300 = ({65, 70, 72, 73, 78, 81, 83, 91}, {60, 65, 70, 72, 73, 83})
    CERTIFY_30 = ({40, 48, 50}, {30, 40})

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
        # the run works at D + GUARD and keeps its values at D and D + GUARD
        from spinl.numeric_lfun.bigfloat import GUARD

        def job():
            functional_eq_residual(rankin_lfunction(150), None, 13.3, 30, 150)

        assert self._requested(monkeypatch, job) == ({30 + GUARD}, {30, 30 + GUARD})

    @pytest.mark.parametrize("D, M", [(30, 150), (60, 300)])
    def test_verify_works_at_one_precision(self, monkeypatch, D, M):
        # the norms, L(j, Delta) and the rows work in context(D + GUARD) on
        # one set of Delta moments and round once to D
        from spinl.numeric_lfun.bigfloat import GUARD

        built = []

        class Recording(evaluators._BoundedCache):
            def __setitem__(self, key, value):
                built.append(key)
                super().__setitem__(key, value)

        monkeypatch.setattr(evaluators, "_MOMENT_CACHE", Recording(evaluators._MOMENT_CAP))
        work, value = self._requested(monkeypatch, lambda: verify_tables(D, M))
        assert work == {D + GUARD}
        assert value == {D, D + GUARD}
        delta = [key for key in built if key[0][0] == "deg2" and key[1][:2] == (1, -24)]
        assert len(delta) == 1

    @pytest.mark.parametrize("argv", [("verify",), ("--format", "json", "table", "4")])
    def test_cli_adds_no_precision(self, monkeypatch, tmp_path, argv):
        # a CLI run renders in the context its numeric layer works in
        from spinl.cli import main
        from spinl.numeric_lfun.bigfloat import GUARD

        def job():
            assert main(["--prec", "30", "--out", str(tmp_path / "out"), *argv]) == 0

        assert self._requested(monkeypatch, job) == ({30 + GUARD}, {30, 30 + GUARD})

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
    # working precision, and the first node of a sum has the highest level:
    # mpmath's memo computes the constant once in a cold verify, not each
    # time a node asks for 5% more bits
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
    verify_tables(60, 300)
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
