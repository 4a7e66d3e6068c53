"""The traced benchmark run: it exits 0 and every workload's jobs meet their oracles."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_traced_benchmark_run_is_correct_on_every_workload():
    # a traced run exits 1 when a job misses its oracle or a required tracing
    # group never fires; its records go to perfbench/out/
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1",
                          "--trace", "1"], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, (run.stdout[-2000:], run.stderr[-2000:])
    results = [json.loads(line) for line in run.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 4, run.stdout[-2000:]
    for result in results:
        assert result["correct"] is True and result["failed"] == 0, result
