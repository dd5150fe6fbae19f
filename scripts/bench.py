#!/usr/bin/env python3
"""Benchmark this checkout against a parent revision and write a JSON record.

Exports the parent revision with ``git archive``, and copies the files that
git tracks or would track in this checkout (``git ls-files --cached
--others --exclude-standard``, as they are on disk), into two temporary
directories removed on exit, so both sides run from a fresh tree and
neither reads the checkout's caches or build leftovers.  ``change_dirty``
records whether the copy differs from ``HEAD``.  For each workload of
``BENCHMARK.json`` it runs ten pairs of

  python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0

at seeds 21-30, one run per side, alternating which side runs first, and
then one ``--trace 1`` run per side at seed 3.  The record holds the host,
per side and metric the median and interquartile spread of the ten runs,
how many pairs the change won and lost on each metric (judged by the
metric's ``better`` in ``BENCHMARK.json``), the failed ops, and the traced
per-layer metrics of both sides.  Count metrics do not depend on the
machine, so two records of one commit agree on them.  The script only
drives the benchmark: it changes nothing under ``perfbench/``.

Usage:
  python3 scripts/bench.py HEAD~1 BENCH_9.json
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(21, 31)
SECONDS = 20
TRACE_SEED = 3


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev: str, dest: str):
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def snapshot(dest: str):
    """Copy the files git tracks or would track, as they are on disk, into ``dest``."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for rel in filter(None, listed.split("\0")):
        src = os.path.join(ROOT, rel)
        if os.path.isfile(src):  # a tracked file deleted from the checkout is left out
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def run(command, root: str, workload: str, seed: int, trace: int) -> dict:
    """The result object that the benchmark prints last."""
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(SECONDS), "--trace", str(trace)]
    print(f"{os.path.basename(root) or root}: {' '.join(cmd[1:])}", file=sys.stderr, flush=True)
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def host() -> dict:
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True, check=True).stdout.strip()
    return {"python": platform.python_version(), "numpy": numpy, "cpus": os.cpu_count()}


def summary(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "iqr": q3 - q1, "runs": values}


def compare(bench: dict, workload: str, roots: dict) -> dict:
    command = bench["command"]
    runs = {side: [] for side in roots}
    for k, seed in enumerate(SEEDS):
        order = list(roots) if k % 2 == 0 else list(roots)[::-1]
        for side in order:
            runs[side].append(run(command, roots[side], workload, seed, 0))
    traced = {side: run(command, root, workload, TRACE_SEED, 1) for side, root in roots.items()}

    metrics = {}
    for spec in bench["end_to_end"]:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in roots}
        diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        metrics[name] = {"better": spec["better"],
                         **{side: summary(v) for side, v in values.items()},
                         "change_wins": sum(d > 0 for d in diffs),
                         "change_losses": sum(d < 0 for d in diffs)}
    counts = [spec["name"] for spec in bench["per_layer"] if spec["unit"] == "count"]
    return {
        "metrics": metrics,
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in roots},
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in roots},
        "traced": {side: {name: m["value"] for name, m in traced[side]["metrics"].items()}
                   for side in roots},
        "traced_failed": {side: traced[side]["failed"] for side in roots},
        "count_metrics": counts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision to compare against, e.g. HEAD~1")
    parser.add_argument("out", help="path of the JSON record to write")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    record = {
        "parent": git("rev-parse", args.parent),
        "change": git("rev-parse", "HEAD"),
        "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "host": host(),
        "seeds": list(SEEDS), "seconds": SECONDS, "trace_seed": TRACE_SEED,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as change:
        export(record["parent"], parent)
        snapshot(change)
        roots = {"parent": parent, "change": change}
        for spec in bench["workloads"]:
            record["workloads"][spec["name"]] = compare(bench, spec["name"], roots)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
