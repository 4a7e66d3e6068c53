"""Record the `--json` output of every CLI job into golden.json.

    python3 perfbench/make_golden.py

Run it on the tree whose outputs are the reference (the benchmark's were
recorded on the unmodified seed tree).  Only fields without a closed form
are compared against these outputs; see oracles.py.
"""

from __future__ import annotations

import json
import sys

from run import HERE, _load_rspin, run_cli


def main():
    _load_rspin()
    from workloads import WORKLOADS

    golden = {}
    for name, make in WORKLOADS.items():
        for job in make():
            if job.kind != "cli":
                continue
            code, out = run_cli(job.args)
            if code != 0:
                sys.exit("%s exited %d" % (job.id, code))
            golden[job.id] = out
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print("recorded %d outputs" % len(golden))


if __name__ == "__main__":
    main()
