"""The benchmark's self-checks run under the tier-1 suite.

`perfbench/tracer.py` wraps program functions by name (`bernoulli_b1`,
`absolute_norm`, ...) and the smoke run checks that traced output equals
untraced output and that orbit norms are counted.  A refactor that stops
calling a traced name fails here, not only in the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
