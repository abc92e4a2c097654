"""Smoke tests: every script in scripts/ runs on tiny arguments."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args, header",
    [
        (
            "compare_generators.py",
            ["--d", "2", "--n-max", "16", "--random-reps", "2"],
            "n,vdc_hammersley,lattice,grid,random_mean,lower_bound",
        ),
        ("mc_calibration.py", ["--reps", "3"], "samples,z_mean,z_std,max_abs_z,frac_within_3"),
        (
            "dual_checks.py",
            ["--p", "9", "--op-p", "2", "--op-y", "0.3", "--op-x", "0.5"],
            "p,curvature_at_half,a_star,a_star_residual,envelope_at_a_star,"
            "tilde_peak_location,tilde_peak_value",
        ),
    ],
)
def test_script_runs(script, args, header):
    # conftest.py puts this checkout's src/ on the child's PYTHONPATH
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout.splitlines()
