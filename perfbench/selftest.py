"""Self-test of the benchmark: oracles, determinism of counters, outputs.

    python3 perfbench/selftest.py

Runs every workload traced twice, with different seeds, and checks that
  * every work counter (unit "count") is identical across the two runs,
  * every job passes its oracle, except the known defects on lg_hom,
  * the closed forms agree with each other where they overlap,
  * the oracle ignores `stabilized_at` but not a wrong dimension, and
    centre_check's relation-check counter equals the sum of 4r^3+3r^2+6r.
Exits 1 and names each mismatch otherwise.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys

import oracles
from run import HERE, ROOT
from workloads import LG_HOM, WORKLOADS


def check_closed_forms():
    problems = []
    tuples = list(itertools.product(range(4), repeat=6))
    odd = sum(oracles.arf((t[0:2], t[2:4], t[4:6])) for t in tuples)
    if not (len(tuples) - odd, odd) == oracles.spin_parity_counts(3, 4) == (2304, 1792):
        problems.append("Arf split of genus-3 4-spin structures is not 2304/1792")
    # a torus is a genus-1 surface: both closed forms must agree on it
    for name, n in (("clifford1", 2), ("group_algebra_Zn", 3), ("matrix_algebra_n", 2)):
        for a, b in itertools.product(range(4), repeat=2):
            if oracles.torus_value(name, n, 4, a, b) != \
                    oracles.surface_value(name, n, 4, 1, ((a, b),)):
                problems.append("torus and genus-1 closed forms differ: %s T(%d,%d)"
                                % (name, a, b))
    return problems


def check_work_fields():
    """A changed cutoff is not a wrong answer; a changed dimension is."""
    golden = json.loads((HERE / "golden.json").read_text())
    problems = []
    for job in LG_HOM:
        if job.args[0] != "lg-hom":
            continue
        want = oracles.KNOWN if job.id in oracles.KNOWN_DEFECTS else oracles.OK
        payload = json.loads(golden[job.id])
        payload["results"]["stabilized_at"] -= 1
        if oracles.check_cli(job, 0, json.dumps(payload), golden)[0] != want:
            problems.append("%s: a lower stabilized_at changes the verdict" % job.id)
        payload["results"]["even_dim"] += 1
        if oracles.check_cli(job, 0, json.dumps(payload), golden)[0] != oracles.FAIL:
            problems.append("%s: a wrong even_dim is not a failure" % job.id)
    return problems


def traced_run(workload, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit("%s seed %d failed:\n%s" % (workload, seed, out.stderr[-2000:]))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / ("%s-seed%d-trace1.json" % (workload, seed))).read_text())
    return result, record


def main():
    problems = check_closed_forms() + check_work_fields()
    expected_known = {j.id for j in LG_HOM} & oracles.KNOWN_DEFECTS
    for workload in WORKLOADS:
        runs = [traced_run(workload, seed) for seed in (1, 2)]
        for result, record in runs:
            if not result["correct"] or result["failed"]:
                problems.append("%s seed %d: %s" % (workload, record["seed"], record["failures"]))
            known = set(record["known_defects"])
            if known != (expected_known if workload == "lg_hom" else set()):
                problems.append("%s: known defects %s" % (workload, sorted(known)))
        counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                  for r, _ in runs]
        for key in counts[0]:
            if counts[0][key] != counts[1][key]:
                problems.append("%s: %s differs between runs: %s vs %s"
                                % (workload, key, counts[0][key], counts[1][key]))
        if workload == "centre_check":
            # the traced pass validates every check job once
            want = sum(oracles.check_count(int(j.args[-2][2:]))
                       for j in WORKLOADS[workload]() if j.args[0] == "check")
            if counts[0]["lambda_frobenius.validate.checks"] != want:
                problems.append("validate.checks is not the sum of 4r^3+3r^2+6r")
        print("%-14s traced twice, %d counters compared" % (workload, len(counts[0])))
    for p in problems:
        print("FAIL", p)
    print("selftest %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
