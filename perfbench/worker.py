"""One repetition of one workload, in the fresh interpreter it is started in.

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
    PYTHONPATH=src python3 perfbench/worker.py      # times the import only

Starts the speed probe, then times the import of spinl, spinl.numeric_lfun
and spinl.cli before anything else is loaded.  Then it checks that every
cache is empty, runs the workload cold and warm, checks its outputs and
prints one JSON line.  Every timed window comes with its SpeedProbe scale.
With --trace 1 the layers are wrapped by the span tracer (after the timed
import) and the line carries the per-layer numbers.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from speedprobe import SpeedProbe  # noqa: E402

PROBE = SpeedProbe()
_t0 = time.perf_counter()
import spinl  # noqa: E402
import spinl.cli  # noqa: E402
import spinl.numeric_lfun  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import mpmath  # noqa: E402
import mpmath.libmp  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
evaluators = sys.modules["spinl.numeric_lfun.evaluators"]
qexp = sys.modules["spinl.qexp"]
LRU_CACHED = ("delta_qexp", "g20_qexp", "rankin_coeffs")


def assert_cold() -> None:
    """A repetition must start with every spinl cache empty; mpmath's
    process-wide constant caches are why each one is a fresh process."""
    for name in LRU_CACHED:
        size = getattr(qexp, name).cache_info().currsize
        if size:
            raise RuntimeError(f"{name} cache holds {size} entries at start")
    for name in ("_NODE_CACHE", "_KI1_CACHE"):
        if getattr(evaluators, name):
            raise RuntimeError(f"evaluators.{name} is not empty at start")


def layer_metrics(tr: tracing.Tracer, scale: float) -> dict:
    """Per-function calls and self time, per-layer self time, and the
    counters and cache gauges, for every wrapped function (zeros included).
    Self times are at reference speed; the cache figures are read after the
    traced pass."""
    summary = tr.summary()
    out = {}
    for layer, modname in tracing.LAYERS.items():
        layer_self = 0.0
        for attr in sorted(tracing.public_functions(sys.modules[modname])):
            entry = summary.get(f"{layer}.{attr}", {"calls": 0, "self_s": 0.0})
            out[f"{layer}.{attr}.calls"] = entry["calls"]
            out[f"{layer}.{attr}.self_s"] = scale * entry["self_s"]
            layer_self += scale * entry["self_s"]
        out[f"{layer}.self_s"] = layer_self
    out["numeric_lfun.quadrature.tanh_sinh.evals"] = tr.counters.get(
        "numeric_lfun.quadrature.tanh_sinh.evals", 0
    )
    out["qexp.coeffs_built"] = tr.counters.get("qexp.coeffs_built", 0)
    infos = [getattr(qexp, name).cache_info() for name in LRU_CACHED]
    hits = sum(i.hits for i in infos)
    lookups = hits + sum(i.misses for i in infos)
    out["qexp.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    out["numeric_lfun.evaluators.node_cache.entries"] = len(evaluators._NODE_CACHE)
    out["numeric_lfun.evaluators.ki1_cache.entries"] = len(evaluators._KI1_CACHE)
    return out


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "spinl_file": spinl.__file__,
    }


def run(name: str, seed: int, trace: bool, probe: SpeedProbe) -> dict:
    """One repetition.  With trace set, only the cold pass is traced, so the
    per-layer numbers are those of one spinl invocation."""
    assert_cold()
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    result = {"warm_s": [], "warm_scale": [], "provenance": provenance()}
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        wl = WORKLOADS[name](seed, tmp)
        result["params"] = wl.params
        try:
            tr = tracing.Tracer() if trace else None
            uninstall = tracing.install(tr) if trace else None
            try:
                t0 = time.perf_counter()
                wl.cold()
                t1 = time.perf_counter()
            finally:
                if uninstall:
                    uninstall()
            result["cold_s"], result["cold_scale"] = t1 - t0, probe.scale(t0, t1)
            if trace:
                result["layers"] = layer_metrics(tr, result["cold_scale"])
            for _ in range(wl.warm_repeats):
                t0 = time.perf_counter()
                wl.warm()
                t1 = time.perf_counter()
                result["warm_s"].append(t1 - t0)
                result["warm_scale"].append(probe.scale(t0, t1))
            result["checks"] = wl.checks()
            result["output_sha256"] = hashlib.sha256(wl.output().encode()).hexdigest()
        except Exception:  # a raising workload is a failed check, not a crash
            traceback.print_exc()
            result["checks"] = [("raised", False, None)]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="without it, only the import is timed")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if Path(spinl.__file__).resolve().parent != ROOT / "src" / "spinl":
        print(f"spinl imported from {spinl.__file__}, not from this checkout", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, bool(args.trace), PROBE) if args.workload else {}
        result["setup_s"] = SETUP_S
        result["setup_scale"] = PROBE.scale(_t0, _t0 + SETUP_S)
    finally:
        PROBE.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
