"""Every demo script runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "constant_drift_pressure.py",
    "entropy_dimension_of_shifts.py",
    "matrix_cocycle_growth.py",
    "run_verification_suites.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    # a numeric warning fails the demo, as it fails the test suite
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src")] + [
                   p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
