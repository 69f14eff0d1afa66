"""Runs the benchmark's traced suite workload at toy size, so that a change
to a name the benchmark's tracer wraps fails here rather than in the
benchmark."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_small_suite_runs_and_checks_out():
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "suite", "--seed", "1",
         "--small", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
