"""Tests of the benchmark's own machinery: span arithmetic, the tracer's
rebinding, the speed probe's scale, seeded inputs, and agreement with
BENCHMARK.json.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import os
import time

import pytest

import run
import speedprobe
import tracer as tracing
import workloads

import spinl
import spinl.cli
import spinl.numeric_lfun.evaluators as evaluators
import spinl.numeric_lfun.special as special
import spinl.qexp as qexp

SMALL_VERIFY = ["--prec", "20", "--coeffs", "40", "--format", "json", "verify"]


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 6] and c [7, 8]; b holds d [2, 5]
    tr = tracing.Tracer(clock=FakeClock([0, 1, 2, 5, 6, 7, 8, 10]))
    a = tr.enter("a")
    b = tr.enter("b")
    d = tr.enter("d")
    tr.exit(d)
    tr.exit(b)
    c = tr.enter("c")
    tr.exit(c)
    tr.exit(a)
    self_s = {name: v["self_s"] for name, v in tr.summary().items()}
    assert self_s == {"a": 10 - 5 - 1, "b": 5 - 3, "d": 3, "c": 1}
    assert [s.parent for s in tr.spans] == [-1, 0, 1, 0]
    assert sum(self_s.values()) == 10  # self times partition the top span


def test_install_rebinds_every_imported_name_and_uninstall_restores():
    originals = (special.context, evaluators.bessel_k, spinl.cli.verify_tables, qexp.delta_qexp)
    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    try:
        for wrapped in (special.context, evaluators.bessel_k, spinl.cli.verify_tables,
                        qexp.delta_qexp, spinl.delta_qexp):
            assert wrapped not in originals
        evaluators.bessel_k(3, 2.5, 20)
    finally:
        uninstall()
    assert (special.context, evaluators.bessel_k, spinl.cli.verify_tables, qexp.delta_qexp) == originals
    calls = {name: v["calls"] for name, v in tr.summary().items()}
    # bessel_k reaches context and round_to through its own module's names
    assert calls["numeric_lfun.special.bessel_k"] == 1
    assert calls["numeric_lfun.bigfloat.context"] >= 1
    assert calls["numeric_lfun.bigfloat.round_to"] == 1
    parents = {s.name: tr.spans[s.parent].name for s in tr.spans if s.parent >= 0}
    assert parents["numeric_lfun.bigfloat.round_to"] == "numeric_lfun.special.bessel_k"


def test_tanh_sinh_integrand_evaluations_are_counted():
    seen = []
    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    try:
        ctx = spinl.numeric_lfun.context(20)
        val = spinl.numeric_lfun.tanh_sinh(ctx, lambda x: seen.append(x) or x * x, 0, 1)
    finally:
        uninstall()
    assert abs(float(val) - 1 / 3) < 1e-15
    assert tr.counters["numeric_lfun.quadrature.tanh_sinh.evals"] == len(seen) > 0


def _clear_caches():
    for fn in (qexp.delta_qexp, qexp.g20_qexp, qexp.rankin_coeffs):
        fn.cache_clear()
    evaluators._NODE_CACHE.clear()
    evaluators._KI1_CACHE.clear()


def _cli_json(tmp_path, trace):
    out = tmp_path / f"verify{int(trace)}.json"
    _clear_caches()
    tr = tracing.Tracer()
    uninstall = tracing.install(tr) if trace else (lambda: None)
    try:
        assert spinl.cli.main(SMALL_VERIFY[:-1] + ["--out", str(out), "verify"]) == 0
    finally:
        uninstall()
    return out.read_bytes(), tr


def test_traced_and_untraced_cli_json_are_byte_identical(tmp_path):
    plain, _ = _cli_json(tmp_path, trace=False)
    traced, tr = _cli_json(tmp_path, trace=True)
    assert traced == plain
    assert tr.summary()["cli.main"]["calls"] == 1


def test_two_traced_runs_give_identical_counts(tmp_path):
    _, first = _cli_json(tmp_path, trace=True)
    _, second = _cli_json(tmp_path, trace=True)
    calls = lambda tr: {name: v["calls"] for name, v in tr.summary().items()}  # noqa: E731
    assert calls(first) == calls(second)
    assert first.counters == second.counters
    assert calls(first)["numeric_lfun.evaluators.l_rankin4"] == 8
    assert "numeric_lfun.quadrature.tanh_sinh" not in calls(first)


@pytest.mark.parametrize("seed", range(40))
def test_seeded_inputs_repeat_and_never_take_the_quadrature_path(seed, tmp_path):
    cert = workloads.CertifyD30(seed, str(tmp_path))
    assert cert.params == workloads.CertifyD30(seed, str(tmp_path)).params
    t1, t2 = cert.t_pair
    assert t1 != t2
    for t in cert.t_pair:
        assert 12.5 <= t <= 18.5 and t % 1 == 0.5
    exact = workloads.ExactN5000(seed, str(tmp_path))
    assert exact.pairs == workloads.ExactN5000(seed, str(tmp_path)).pairs
    for m, n in exact.pairs:
        assert math.gcd(m, n) == 1 and m * n <= exact.N


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER
    ]


def test_speed_probe_scale_is_reference_over_mean_probe_time():
    affinity = os.sched_getaffinity(0)
    probe = speedprobe.SpeedProbe()
    try:
        time.sleep(0.05)
        assert len(probe.samples) >= 3  # the thread samples on its own
    finally:
        probe.close()
        os.sched_setaffinity(0, affinity)
    ref = probe.REFERENCE_S
    probe.samples = [(0.0, ref), (1.0, 2 * ref), (2.0, 2 * ref), (3.0, 2 * ref), (9.0, 4 * ref)]
    assert probe.scale(0.5, 3.5) == pytest.approx(0.5)  # three samples inside
    # a short window takes the three nearest samples: 2 ref, 2 ref, 2 ref
    assert probe.scale(2.0, 2.01) == pytest.approx(0.5)
    assert probe.scale(-1.0, 10.0) == pytest.approx(5 / 11)
