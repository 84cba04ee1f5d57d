"""spinl benchmark: one workload, run for a fixed time, with its metrics.

    python3 perfbench/run.py --workload verify-d30 --seed 1 --seconds 33 --trace 0

Run from the root of a checkout.  Every repetition is a fresh,
single-threaded interpreter (perfbench/worker.py), started one at a time,
so "cold" really is cold.  Repetitions are started until the next one
would be expected to end after --seconds (at least two).  Before each,
two import-only interpreters give set-up samples, so that they spread
over the run like the other samples.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced repetitions and reports the per-layer metrics, including the
tracing overhead.  Times are wall times taken to reference CPU speed by
the worker's SpeedProbe; the raw wall times are in the info line.  Every
output is checked; a wrong answer is a failed check.  The last stdout
line is the result object; the line before it holds provenance, inputs
and the samples.  Why the workloads are what
they are is in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("verify-d30", "verify-d60", "exact-n5000", "certify-d30")

SETUP_PER_REP = 2
MIN_REPS = 2
RUN_LIMIT_S = 170  # a run must end within 180 s
DIGITS_CAP = 99.0  # reported when every measured error is exactly zero

# (name, unit, better, bound); BENCHMARK.json lists the same
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("cold_s", "s", "lower", 0.2),
    ("warm_s", "s", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("digits_min", "digits", "higher", 0.02),
    ("passed_frac", "frac", "higher", 0.01),
]

# functions whose calls and self time the traced run reports, per layer
TRACED_FUNCTIONS = {
    "exact_arith": ("bernoulli", "falling_ratio", "gamma_pole_ratio", "zeta_exact",
                    "zeta_pole_over_gamma"),
    "qexp": ("delta_qexp", "g20_qexp", "rankin_coeffs", "hecke_tp", "lemma1_local_check"),
    "critical_values": ("c_constants", "d_constants", "main_identity", "projection_coeffs",
                        "rankin_g20_value", "two_delta_product"),
    "numeric_lfun.bigfloat": ("context", "round_to"),
    "numeric_lfun.special": ("bessel_k", "bickley_ki1", "gamma_upper", "incomplete_gamma_int"),
    "numeric_lfun.quadrature": ("tanh_sinh",),
    "numeric_lfun.evaluators": ("l_degree2", "l_rankin4", "petersson_norm",
                                "kernel_mellin_check", "functional_eq_residual"),
    "numeric_lfun.verify": ("verify_tables",),
    "cli": ("main",),
}
LAYER_EXTRAS = {
    "qexp": [("qexp.coeffs_built", "count", "lower"), ("qexp.cache_hit_ratio", "frac", "higher")],
    "numeric_lfun.quadrature": [("numeric_lfun.quadrature.tanh_sinh.evals", "count", "lower")],
    "numeric_lfun.evaluators": [
        ("numeric_lfun.evaluators.node_cache.entries", "count", "lower"),
        ("numeric_lfun.evaluators.ki1_cache.entries", "count", "lower"),
    ],
}


def _per_layer() -> list:
    out = []
    for layer, functions in TRACED_FUNCTIONS.items():
        for fn in functions:
            out.append((f"{layer}.{fn}.calls", "count", "lower"))
            out.append((f"{layer}.{fn}.self_s", "s", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
        out.extend(LAYER_EXTRAS.get(layer, []))
    out.append(("tracer.cold_s", "s", "lower"))
    out.append(("tracer.overhead_s", "s", "lower"))
    return out


PER_LAYER = _per_layer()
# deterministic per-layer counts; two traced repetitions must agree on them
COUNT_METRICS = [name for name, unit, _ in PER_LAYER if unit == "count"]


def child(args: List[str], deadline: float) -> Optional[dict]:
    """Run the worker in a fresh interpreter; its last stdout line is JSON.
    Returns None, after echoing its stderr, if it failed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        print(f"worker {args} timed out", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker {args} exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def provenance(worker_prov: dict) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spinl").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return dict(worker_prov, nproc=len(os.sched_getaffinity(0)), git_commit=commit,
                src_sha256=src.hexdigest())


def scaled(result: dict, window: str) -> float:
    """A worker's wall time for one window at reference speed (worker.SpeedProbe)."""
    return result[f"{window}_s"] * result[f"{window}_scale"]


def digits(checks: list) -> float:
    errors = [err for _, _, err in checks if err is not None]
    worst = max(errors, default=0.0)
    return -math.log10(worst) if worst > 0 else DIGITS_CAP


def run_workload(workload: str, args) -> int:
    """Run one workload for args.seconds and print its two result lines."""
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    # the first import compiles the bytecode, which a user pays once
    if child([], deadline) is None:
        return 1
    setups = []  # import-only worker results
    reps = []  # (traced, worker result or None)
    durations = []
    while True:
        t0 = time.perf_counter()
        for _ in range(SETUP_PER_REP):
            setup = child([], deadline)
            if setup is None:
                return 1
            setups.append(setup)
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = child(["--workload", workload, "--seed", str(args.seed),
                     "--trace", str(int(traced))], deadline)
        durations.append(time.perf_counter() - t0)
        reps.append((traced, rep))
        next_end = time.perf_counter() - start + statistics.median(durations)
        if len(reps) >= MIN_REPS and next_end > args.seconds:
            break

    checks = []
    for i, (traced, rep) in enumerate(reps):
        if rep is None:
            checks.append((f"rep{i}.completed", False, None))
            continue
        checks.extend(rep["checks"])
        first = reps[0][1]
        if i and first is not None and "output_sha256" in first:
            checks.append((f"rep{i}.same_output", rep.get("output_sha256") == first["output_sha256"], None))
    timed = [(traced, rep) for traced, rep in reps if rep is not None and "cold_s" in rep]
    plain = [rep for traced, rep in timed if not traced]
    traced_reps = [rep for traced, rep in timed if traced]
    if not plain or (args.trace and not traced_reps):
        print("no repetition completed; nothing to report", file=sys.stderr)
        return 1
    for i, rep in enumerate(traced_reps[1:], start=1):
        same = all(rep["layers"][m] == traced_reps[0]["layers"][m] for m in COUNT_METRICS)
        checks.append((f"traced{i}.same_counts", same, None))

    failed = sum(1 for _, ok, _ in checks if not ok)
    with_setup = setups + [rep for _, rep in timed]
    wall = {
        "setup_s": [r["setup_s"] for r in with_setup],
        "cold_s": [rep["cold_s"] for rep in plain],
        "warm_s": [w for _, rep in timed for w in rep["warm_s"]],
    }
    cold = [scaled(rep, "cold") for rep in plain]
    samples = {
        "setup_s": [scaled(r, "setup") for r in with_setup],
        "cold_s": cold,
        "warm_s": [w * sc for _, rep in timed for w, sc in zip(rep["warm_s"], rep["warm_scale"])],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in plain],
    }
    if args.trace:
        traced_cold = statistics.median(scaled(rep, "cold") for rep in traced_reps)
        values = {  # counts are equal across traced repetitions (checked above)
            name: statistics.median(rep["layers"][name] for rep in traced_reps)
            if unit != "count" else traced_reps[0]["layers"][name]
            for name, unit, _ in PER_LAYER
            if not name.startswith("tracer.")
        }
        values["tracer.cold_s"] = traced_cold
        values["tracer.overhead_s"] = traced_cold - statistics.median(cold)
        samples["traced_cold_s"] = [scaled(rep, "cold") for rep in traced_reps]
        spec = PER_LAYER
    else:
        values = {name: statistics.median(samples[name]) for name in samples}
        values["digits_min"] = digits(checks)
        values["passed_frac"] = (len(checks) - failed) / len(checks)
        spec = END_TO_END
    info = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "params": plain[0]["params"],
        "repetitions": len(reps),
        "provenance": provenance(plain[0]["provenance"]),
        "samples": samples,
        "wall_samples": wall,
        "failed_checks": [name for name, ok, _ in checks if not ok],
    }
    print(json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, *_ in spec},
    }
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs the four in turn, --seconds each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "spinl" / "__init__.py").is_file():
        print(f"no spinl sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(w, args) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
