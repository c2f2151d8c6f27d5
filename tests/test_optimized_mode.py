"""The release gate under `python -O`, which strips assert statements: no
result may depend on an assert in the package, and the records still check
their fields when they are built."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_acceptance_suite_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_acceptance.py"),
         str(ROOT / "tests" / "test_records.py")],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
