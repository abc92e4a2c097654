"""Smoke test: the benchmark harness runs its exact workload, traced, and passes."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_exact_workload_runs_traced():
    # a renamed traced function shows up in "absent", a broken exact-engine
    # output check in "failed"
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1"]
        + ["--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    *_, record, result = proc.stdout.splitlines()
    assert json.loads(result)["failed"] == 0, json.loads(record)["failed_checks"]
    assert json.loads(record)["absent"] == []
