"""The traced benchmark run: it exits 0 and every workload's jobs meet their oracles."""

import importlib.util
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


# names spec() lists that no longer resolve; a change to the benchmark may drop
# them, so the guard asks for a subset
STALE = {"Cyc.__rtruediv__", "AlgebraAutomorphism.power", "surface_eval.handle_operator",
         "Poly.__rsub__", "JacobiAlgebra.reduce_to_coeffs", "mf.partial_derivative"}


def test_tracer_spec_resolves_every_name_but_the_known_stale_ones():
    """A name the tracer cannot resolve is skipped without a word, so a function
    renamed in src would drop out of the traced metrics unseen."""
    found = importlib.util.spec_from_file_location("perfbench_tracing",
                                                   ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(found)
    found.loader.exec_module(tracing)
    unresolved = {"%s.%s" % (owner.__qualname__ if isinstance(owner, type)
                             else owner.__name__.rsplit(".", 1)[-1], attr)
                  for owner, attr, *_ in tracing.spec() if owner.__dict__.get(attr) is None}
    assert unresolved <= STALE, sorted(unresolved - STALE)
