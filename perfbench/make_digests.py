"""Write reference_digests.json: SHA-256 of each report.json of the traced
scenarios ops, per seed.

    python3 perfbench/make_digests.py

A traced scenarios run compares its reports with these digests and reports
the mismatches as ``cli.reports_changed``.  Regenerate them only in a change
that means to alter report.json, and say so in that change.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run


SEEDS = range(32)


def main() -> int:
    sys.path.insert(0, run.SRC)
    import workloads

    workload = workloads.WORKLOADS["scenarios"]
    run_dir = run.fresh_dir(os.path.join(run.OUT, "digests"))
    env = run.child_env()
    table = {}
    for seed in SEEDS:
        row = []
        for i in range(workload.trace_ops):
            inp = workloads.scenarios_input(seed, i, run_dir)
            out = os.path.join(run_dir, f"{seed}-{i}")
            for code, body, _ in workloads.analyze_set(inp, out, env):
                if code != 0 or not workloads.check_report(body)[0]:
                    print(f"error: seed {seed} op {i} failed (exit {code})", file=sys.stderr)
                    return 1
                row.append(hashlib.sha256(body).hexdigest())
        table[str(seed)] = row
        print(f"seed {seed}: {len(row)} reports", file=sys.stderr)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"scenarios": table}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
