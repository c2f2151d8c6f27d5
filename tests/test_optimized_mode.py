"""The release gate under `python -O`, which strips assert statements: no
result may depend on an assert in the package, the records still check
their fields when they are built, and the norm kernel's checks, the
orbit-representative count check, the integrality check on h-, the
`UnitIndexVerdict` check on the unit index of Q(zeta_m) in closed form,
the `QuadIdeal` check that certifies each ideal square root and the
primitive-key count check on a direct-product compositum still fire."""

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
         str(ROOT / "tests" / "test_compositum.py"),
         str(ROOT / "tests" / "test_records.py"),
         str(ROOT / "tests" / "test_norm_descent.py"),
         str(ROOT / "tests" / "test_orbit_reps.py"),
         str(ROOT / "tests" / "test_quadratic.py"),
         str(ROOT / "tests" / "test_unitindex.py")],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
