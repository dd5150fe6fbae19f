"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload round_trip --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout: the package is imported from the
checkout's ``src/`` and every file the run writes goes under
``perfbench/out/``.  With ``--trace 0`` the run measures the end-to-end
metrics for about ``--seconds`` seconds; with ``--trace 1`` it runs a fixed
list of ops three times, untraced, traced and traced again, and reports
per-layer metrics.
The last line of standard output is the result object.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import refclock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DIGESTS = os.path.join(HERE, "reference_digests.json")

SETUP_PROBES = 9
TAIL_BEYOND = 10

END_TO_END = (
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("wall_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("exact_frac", "ratio"),
    ("setup_s", "s"),
)

# (name, unit, better, repeats exactly between the two traced passes)
PER_LAYER = (
    ("sublinear.strong_type_constant.calls", "count", "lower", True),
    ("sublinear.strong_type_constant.self_s", "s", "lower", False),
    ("sublinear.strong.cert_gap_max", "value", "lower", True),
    ("sublinear.gagliardo_supersolution.iterations", "count", "lower", True),
    ("sublinear.gagliardo_supersolution.self_s", "s", "lower", False),
    ("sublinear.monotone_solution.iterations", "count", "lower", True),
    ("sublinear.monotone_solution.self_s", "s", "lower", False),
    ("sublinear.weak_type_constant.q_gt1.calls", "count", "lower", True),
    ("sublinear.weak_type_constant.q_gt1.self_s", "s", "lower", False),
    ("sublinear.weak_type_constant.q_le1.calls", "count", "lower", True),
    ("sublinear.weak_type_constant.q_le1.self_s", "s", "lower", False),
    ("sublinear.theorem_report.self_s", "s", "lower", False),
    ("core.potential.calls", "count", "lower", True),
    ("core.potential.s", "s", "lower", False),
    ("core.measure.builds", "count", "lower", True),
    ("capacity.cap0.calls", "count", "lower", True),
    ("capacity.cap0.self_s", "s", "lower", False),
    ("capacity.wiener_cap1.calls", "count", "lower", True),
    ("capacity.wiener_cap1.self_s", "s", "lower", False),
    ("capacity.content.calls", "count", "lower", True),
    ("capacity.content.self_s", "s", "lower", False),
    ("capacity.distinct_frac", "ratio", "higher", True),
    ("principles.wmp_constant.pairs", "count", "lower", True),
    ("principles.wmp_constant.self_s", "s", "lower", False),
    ("principles.complete_mp_constant.pairs", "count", "lower", True),
    ("principles.complete_mp_constant.self_s", "s", "lower", False),
    ("simplex.solve_lp.calls", "count", "lower", True),
    ("simplex.solve_lp.pivots", "count", "lower", True),
    ("simplex.solve_lp.s", "s", "lower", False),
    ("gallery.build_block.s", "s", "lower", False),
    ("gallery.build_sampled.s", "s", "lower", False),
    ("cli.main.self_s", "s", "lower", False),
    ("cli.overhead_s", "s", "lower", False),
    ("cli.report_bytes", "bytes", "lower", False),
    ("cli.reports_compared", "count", "higher", False),
    ("cli.reports_changed", "count", "lower", False),
    ("cli.reports_unstable", "count", "lower", False),
    ("host.ref_loop_s", "s", "lower", False),
    ("trace.ops", "count", "higher", False),
    ("trace.overhead_frac", "ratio", "lower", False),
    ("trace.top_coverage", "ratio", "higher", False),
    ("trace.counts_changed", "count", "lower", False),
)


def quantile(values, p, steps=64):
    """Harrell-Davis estimate of the ``p``-quantile.

    A Beta-weighted mean of all order statistics.  A single order statistic
    jumps when the op times cluster with a gap at the quantile, as the
    round-trip instance families do.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    h = 1.0 / (n * steps)
    total = estimate = 0.0
    for i, x in enumerate(xs):
        weight = h * sum(math.exp((a - 1.0) * math.log(u) + (b - 1.0) * math.log1p(-u)
                                  - log_beta)
                         for u in (i / n + (k + 0.5) * h for k in range(steps)))
        total += weight
        estimate += weight * x
    return estimate / total


def pin_to_one_cpu():
    """Run this process and the processes it starts on one CPU.

    The host's CPUs drift in speed separately, so the reference probe only
    tracks the ops if both run on the same CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine() -> dict:
    import numpy as np

    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        pass
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas}


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_op(workload, inp, out, env):
    """``(ok, modes)`` of one op."""
    try:
        return workload.op(inp, out, env)
    except Exception:  # noqa: BLE001 - a failing op is counted, the run goes on
        traceback.print_exc()
        return False, []


def metric(value, unit):
    return {"value": value, "unit": unit}


def setup_seconds(args) -> float:
    """Median set-up time of fresh interpreters that import and make the inputs.

    Each interpreter is timed at reference speed, like the ops: the medians
    of raw wall times had a quartile spread of a third over ten runs.
    """
    probes_file = os.path.join(OUT, f"{args.workload}-setup.probes.json")
    cmd = [sys.executable, os.path.join(HERE, "refclock.py"), probes_file,
           os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    clock = refclock.RefClock()
    times = []
    for _ in range(SETUP_PROBES):
        times.append(clock.time(
            lambda: subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL), probes_file)[1])
    return statistics.median(times)


def op_steps(workload, inp):
    """The parts of one op that are timed one by one: each file of a scenario.

    A scenario takes about 8 s, and each of its files runs in its own
    child process, which the clock samples.
    """
    if workload.name == "scenarios":
        paths, analyze_seed = inp
        return [([path], analyze_seed) for path in paths]
    return [inp]


def timed_run(args, workload, inputs, run_dir, env):
    import workloads

    raw, times, modes = [], [], []
    failed = 0
    in_process = workload.name != "scenarios"
    clock = refclock.RefClock()
    t_start = time.perf_counter()
    for i, inp in enumerate(inputs):
        wall = at_ref = 0.0
        ok = True
        for k, step in enumerate(op_steps(workload, inp)):
            out = os.path.join(run_dir, f"op{i:04d}-{k}")
            probes_file = None if in_process else workloads.probes_file(out, 0)
            dt, du, (step_ok, step_modes) = clock.time(
                lambda: run_op(workload, step, out, env), probes_file)
            wall += dt
            at_ref += du
            ok = ok and step_ok
            modes.extend(step_modes)
        raw.append(wall)
        times.append(at_ref)
        failed += not ok
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0

    n = len(raw)
    tail_pct = max(50, math.floor(100.0 * (n - TAIL_BEYOND) / n))
    with open(os.path.join(run_dir, "ops.json"), "w", encoding="utf-8") as fh:
        json.dump({"wall_s": raw, "ref_s": times, "probe_s": clock.probes}, fh)
    print(f"{workload.name}: {n} ops in {time.perf_counter() - t_start:.1f} s, tail is"
          f" p{tail_pct}; wall-clock p50 {statistics.median(raw):.4f} s, reference probe"
          f" median {statistics.median(clock.probes) * 1e3:.3f} ms", file=sys.stderr)
    values = {
        "latency_p50_s": quantile(times, 0.5),
        "latency_tail_s": quantile(times, tail_pct / 100.0),
        "wall_ref": sum(times) / n / refclock.PROBE_SECONDS,
        "peak_rss_mb": peak_mb,
        "ok_frac": (n - failed) / n,
        "exact_frac": modes.count("exact") / len(modes) if modes else 0.0,
        "setup_s": setup_seconds(args),
    }
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}
    return n, failed, metrics


def trace_units(workload, inputs):
    """``(op id, input)`` of the traced run; a scenario is split into its files."""
    for i, inp in enumerate(inputs):
        for step in op_steps(workload, inp):
            yield i, step


def traced_run(args, workload, inputs, run_dir, env):
    """Each unit three times: untraced, traced, and traced again.

    The first two give the tracing overhead (their order alternates, so
    warm-up does not bias it); the second traced pass, with its own tracer,
    must repeat every count of the first.
    """
    import workloads
    from tracer import Tracer

    tracers = {"traced": Tracer(), "again": Tracer()}
    failed = 0
    seconds = {"plain": 0.0, "traced": 0.0, "again": 0.0}
    refs, cli_overhead, reports = [], [], []
    unstable = report_bytes = 0
    scenarios = workload.name == "scenarios"
    for j, (i, inp) in enumerate(trace_units(workload, inputs)):
        refs.append(refclock.probe())
        if scenarios:
            out = os.path.join(run_dir, f"proc{j:04d}")
            code, body, wall = workloads.analyze_set(inp, out, env)[0]
            with open(os.path.join(out, "0", "timings.json"), encoding="utf-8") as fh:
                cli_overhead.append(wall - sum(json.load(fh).values()))
        order = ("plain", "traced") if j % 2 == 0 else ("traced", "plain")
        results = {}
        try:
            for tag in order + ("again",):
                tracer = tracers.get(tag)
                if tracer is not None:
                    tracer.op = i
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    if scenarios:
                        out = os.path.join(run_dir, f"{tag}{j:04d}")
                        results[tag] = workloads.analyze_set(inp, out, None)[0]
                    else:
                        results[tag] = workload.op(inp, None, env)
                finally:
                    seconds[tag] += time.perf_counter() - t0
                    if tracer is not None:
                        tracer.uninstall()
        except Exception:  # noqa: BLE001 - a failing op is counted, the run goes on
            traceback.print_exc()
            failed += 1
            continue
        if scenarios:
            bodies = [results[tag][1] for tag in seconds]
            ok = (workloads.check_report(body)[0] and code == 0
                  and all(results[tag][0] == 0 for tag in seconds))
            unstable += any(other != body for other in bodies)
            report_bytes += len(body or b"")
            reports.append(hashlib.sha256(body or b"").hexdigest())
        else:
            ok = all(results[tag][0] for tag in seconds)
        failed += not ok

    tracer = tracers["traced"]
    table = tracer.layer_table()
    values = tracer_values(tracer, table)
    again = tracer_values(tracers["again"], tracers["again"].layer_table())
    reference = load_json(DIGESTS, {}).get(workload.name, {}).get(str(args.seed))
    compared = changed = 0
    if reference is not None:
        compared = min(len(reference), len(reports))
        changed = sum(a != b for a, b in zip(reference, reports))
    values.update({
        "cli.overhead_s": statistics.mean(cli_overhead) if cli_overhead else 0.0,
        "cli.report_bytes": report_bytes,
        "cli.reports_compared": compared,
        "cli.reports_changed": changed,
        "cli.reports_unstable": unstable,
        "host.ref_loop_s": statistics.median(refs),
        "trace.ops": workload.trace_ops,
        "trace.overhead_frac": (seconds["traced"] / seconds["plain"] - 1.0
                                if seconds["plain"] else 0.0),
        "trace.top_coverage": (tracer.top_level_seconds() / seconds["traced"]
                               if seconds["traced"] else 0.0),
        "trace.counts_changed": sum(values[name] != again[name]
                                    for name, _, _, repeats in PER_LAYER if repeats),
    })
    write_trace(args, tracer, table, reports)
    metrics = {name: metric(values[name], unit) for name, unit, _, _ in PER_LAYER}
    return len(refs), failed, metrics


def tracer_values(tracer, table) -> dict:
    """The per-layer metrics that one tracer's spans and counts give."""
    values = {}
    for name, _, _, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        values[name] = tracer.counts.get(name, table.get(span, {}).get(field, 0))
    values["capacity.distinct_frac"] = tracer.capacity_distinct_frac(table)
    return values


def load_json(path, default):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return default


def write_trace(args, tracer, table, reports):
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    doc = {
        "workload": args.workload, "seed": args.seed, "machine": machine(),
        "layers": table, "report_digests": reports,
        "spans": [[name, round(s - t0, 7), round(e - t0, 7), parent, op]
                  for name, s, e, parent, op in tracer.spans],
    }
    with open(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("round_trip", "verdict_table", "scenarios"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and make the set-up inputs, then exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "potbench", "__init__.py")):
        print(f"error: no potbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    pin_to_one_cpu()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tag = "setup" if args.setup_only else "run"
    run_dir = fresh_dir(os.path.join(OUT, f"{args.workload}-{tag}"))
    n_ops = workload.trace_ops if args.trace else max(1, int(args.seconds / workload.op_seconds))
    inputs = [workload.make_input(args.seed, i, run_dir) for i in range(n_ops)]
    if args.setup_only:
        return 0

    env = child_env()
    if args.trace:
        attempted, failed, metrics = traced_run(args, workload, inputs, run_dir, env)
    else:
        attempted, failed, metrics = timed_run(args, workload, inputs, run_dir, env)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
