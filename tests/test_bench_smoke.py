"""Runs each of the benchmark's workloads traced at toy size, so that a
change to a name the benchmark's tracer wraps or calls fails here rather
than in the benchmark."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["suite", "degree_sweep", "request_stream"])
def test_traced_small_workload_runs_and_checks_out(workload):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1",
         "--small", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    # the scalar arithmetic stays on the class whose operators the tracer counts
    assert result["metrics"][f"{workload}.ring.scalar_ops"]["value"] > 0, proc.stdout
