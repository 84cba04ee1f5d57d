"""Smoke-run the demo scripts: each exits 0 and prints its key result."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,key_lines",
    [
        ("exact_critical_values.py",
         ["s=17: 17179869184/1308627268651828125 * pi^38"]),
        ("petersson_norms.py", ["<Delta,Delta> = 0.0000010353620568043209"]),
        ("q_expansions.py", [f"p={p}: holds" for p in (2, 3, 5)]),
        ("numerical_verification.py",
         ["max relative difference over all 24 comparisons:"]),
    ],
)
def test_demo_runs(script, key_lines):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    r = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    for line in key_lines:
        assert line in r.stdout
