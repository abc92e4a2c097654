"""Smoke test: the benchmark harness runs each workload, traced, and passes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["mc", "exact", "cli"])
def test_workload_runs_traced(workload):
    # a renamed traced function shows up in "absent", a broken output check
    # (an exact engine's value, or the CLI's stdout across worker counts) in
    # "failed"
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1"]
        + ["--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    *_, record, result = proc.stdout.splitlines()
    assert json.loads(result)["failed"] == 0, json.loads(record)["failed_checks"]
    assert json.loads(record)["absent"] == []
    if workload == "mc":
        # the samplers evaluate every box they draw through the traced kernel
        report = json.loads(record)["report"]
        boxes = report["core.local_discrepancy_batch.boxes"]["value"]
        assert boxes == report["core.sample_box_pairs.boxes"]["value"] > 0
