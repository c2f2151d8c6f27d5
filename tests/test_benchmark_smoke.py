"""The benchmark's self-checks run under the tier-1 suite.

`perfbench/tracer.py` wraps program functions by name (`bernoulli_b1`,
`absolute_norm`, ...) and the smoke run checks that traced output equals
untraced output and that orbit norms are counted.  A refactor that stops
calling a traced name fails here, not only in the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_every_pinned_workload_runs_correct():
    """One round of all four workloads, each rep checked line by line
    against the pinned output; `prime_cyclo` reaches level 166, past the
    levels the conjugate-product oracle covers."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "all", "--seconds", "0"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
