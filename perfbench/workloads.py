"""The benchmark's workloads: inputs made from the seed, one op, its check.

Op ``i`` draws its kernel from a base stream that depends only on ``i``,
uses ``i`` as the seed of potbench's randomized searches, and draws a
jitter of the measure from the workload seed.  So the same seed always
gives the same inputs.  Every op returns ``(ok, modes)``: whether
its output passed the workload's correctness check, and the mode tags
(``exact``, ``sampled``, ``randomized``, ...) of the constants it computed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

import potbench as pb
import potbench.cli  # noqa: F401 - the scenarios workload calls cli.main

POWERS = (0.7, 1.0, 1.5, 2.0, 3.0)
QS = (0.3, 0.5, 0.7)
VERDICT_N = 10
# Sampled-mode budget of the n = 20 scenario files: the default budget
# samples 4,000 (S, x) pairs and makes one file take 12-16 s.
SAMPLED_BUDGET = 400
SCENARIO_TIMEOUT_S = 150.0
REFCLOCK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refclock.py")
# The strong-constant ascent's cost varies by 10x between random kernels
# and by 15 % with its random seed, so blocks of 30 round-trip ops on fresh
# kernels cost 10-29 s and no 30-second run averages that out.  Kernels
# therefore come from a base stream fixed per op index, the random seeds of
# op i are i, as in acceptance check 07, and the workload seed moves each
# weight of sigma by up to SIGMA_JITTER.
BASE_SEED = 7
SIGMA_JITTER = 0.02


def metric_power_matrix(rng, n, power, offset):
    """``1/(d + offset)^power`` for a random shortest-path metric ``d``."""
    base = rng.uniform(0.2, 1.0, size=(n, n))
    base = (base + base.T) / 2.0
    np.fill_diagonal(base, 0.0)
    d = base.copy()
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return 1.0 / (d + offset) ** power


def streams(seed, i):
    """The base stream of op ``i`` and its jitter stream for ``seed``."""
    return (np.random.default_rng([BASE_SEED, i, 0]),
            np.random.default_rng([seed, i, 1]))


def _jitter(jit, weights):
    return weights * jit.uniform(1.0 - SIGMA_JITTER, 1.0 + SIGMA_JITTER, len(weights))


def _metric_power_problem(base, jit, n, power, q):
    offset = float(base.uniform(0.1, 0.6))
    space = pb.Space.of_size(n)
    kernel = pb.Kernel(space, metric_power_matrix(base, n, power, offset))
    sigma = pb.Measure(space, _jitter(jit, base.uniform(0.2, 1.5, n)))
    return pb.SublinearProblem(kernel, sigma, q)


def _random_seed(rng):
    return int(rng.integers(0, 2**31))


# ---------------------------------------------------------------------------
# round_trip: the batch certification of acceptance check 07
# ---------------------------------------------------------------------------


def round_trip_input(seed, i, out_dir):
    base, jit = streams(seed, i)
    return _metric_power_problem(base, jit, 3 + i % 6, POWERS[i % 5], QS[i % 3]), i


def round_trip_op(inp, out, env):
    problem, strong_seed = inp
    q = problem.q
    est = pb.strong_type_constant(problem, seed=strong_seed)
    kappa = est.extras["certified_upper"]
    sup = pb.gagliardo_supersolution(problem, kappa)
    sol = pb.monotone_solution(problem, sup.u)
    ok = (np.isfinite(est.lower)
          and kappa >= est.lower * (1.0 - 1e-9)
          and est.upper >= est.lower - 1e-8
          and sup.status == "supersolution"
          and sol.status == "solution"
          and sol.lq_norm <= kappa ** (1.0 / (1.0 - q)) * (1.0 + 1e-8))
    modes = [est.extras["mode"], est.extras["wmp_mode"]]
    return bool(ok), modes


# ---------------------------------------------------------------------------
# verdict_table: the whole pipeline in one call
# ---------------------------------------------------------------------------


def verdict_table_input(seed, i, out_dir):
    base, jit = streams(seed, i)
    return _metric_power_problem(base, jit, VERDICT_N, POWERS[(i // 3) % 5], QS[i % 3]), i


def verdict_table_op(inp, out, env):
    problem, report_seed = inp
    report = pb.theorem_report(problem, seed=report_seed)
    ok = all(row.verdict != "VIOLATED" for row in report.rows)
    return ok, [report.hypotheses["wmp_mode"]]


# ---------------------------------------------------------------------------
# scenarios: `potbench analyze` on generated scenario files
# ---------------------------------------------------------------------------


def _task(name, params=None, budget=None):
    task = {"name": name}
    if params:
        task["params"] = params
    if budget:
        task["budget"] = budget
    return task


def _metric_power_scenario(base, jit):
    """(a) n = 20 metric-power kernel: sampled principles, both weak routes."""
    n = 20
    matrix = metric_power_matrix(base, n, 1.0, float(base.uniform(0.1, 0.6)))
    b = SAMPLED_BUDGET
    return {
        "name": "a-metric-power", "q": 0.5,
        "kernel": {"matrix": matrix.tolist()},
        "sigma": _jitter(jit, base.uniform(0.2, 1.5, n)).tolist(),
        "tasks": [_task("wmp", budget=b), _task("complete_mp", budget=b), _task("solve"),
                  _task("weak_constant", {"q": 0.5}, b), _task("weak_constant", {"q": 2.0}, b),
                  _task("testing_condition", budget=b), _task("energy"), _task("cap0"),
                  _task("cap1")],
    }


def _interval_scenario(base, jit):
    """(b) interval Green kernel: exact WMP, recomputed by three tasks."""
    n = 9
    nu = _jitter(jit, base.uniform(0.0, 1.0, n))
    return {
        "name": "b-interval-green", "q": 0.5,
        "kernel": {"sampled": {"kind": "interval_green", "n_points": n,
                               "seed": _random_seed(base)}},
        "sigma": _jitter(jit, base.uniform(0.2, 1.5, n)).tolist(),
        "tasks": [_task("wmp"), _task("cap1"), _task("strong_constant"),
                  _task("weak_quotient", {"nu": nu.tolist()})],
    }


def _block_scenario(rule):
    """(c) paired-block instances: gallery closed forms and the solve path."""
    return {
        "name": f"c-block-{rule[0]}", "q": 0.5,
        "kernel": {"blocks": {"n_blocks": 8, "rule": list(rule)}},
        "tasks": [_task("solve"), _task("energy"), _task("energy_sweep"), _task("maurey"),
                  _task("divergence_sweep")],
    }


def _riesz_scenario(base, jit):
    """(d) Riesz cloud with a +inf diagonal: the infinite pre-reduction paths."""
    n = 20
    b = SAMPLED_BUDGET
    return {
        "name": "d-riesz", "q": 0.5,
        "kernel": {"sampled": {"kind": "riesz", "n_points": n, "alpha": 1.5, "n_dim": 2,
                               "seed": _random_seed(base)}},
        "sigma": _jitter(jit, base.uniform(0.2, 1.5, n)).tolist(),
        "tasks": [_task("wmp", budget=b), _task("complete_mp", budget=b), _task("solve"),
                  _task("cap0")],
    }


SCENARIO_KINDS = (
    _metric_power_scenario,
    _interval_scenario,
    lambda base, jit: _block_scenario(("harmonic",)),
    lambda base, jit: _block_scenario(("geometric", 1.1, 1.5)),
    _riesz_scenario,
)


def scenarios_input(seed, i, out_dir):
    """Op ``i``: one scenario, a set of files; ``analyze`` gets ``--seed i``."""
    base, jit = streams(seed, i)
    paths = []
    for k, kind in enumerate(SCENARIO_KINDS):
        path = os.path.join(out_dir, f"scenario_{i:04d}_{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(kind(base, jit), fh)
        paths.append(path)
    return paths, i


def _read_report(out):
    try:
        with open(os.path.join(out, "report.json"), "rb") as fh:
            return fh.read()
    except OSError:
        return None


def check_report(body):
    """``(ok, modes)`` of one report: every task ran, with its provenance."""
    if body is None:
        return False, []
    tasks = json.loads(body)["tasks"]
    return all("error" not in t for t in tasks), [t.get("provenance", "") for t in tasks]


def probes_file(out, k):
    """Where the fresh interpreter of file ``k`` writes its reference probes."""
    return os.path.join(out, f"{k}.probes.json")


def _analyze_process(argv, out, env, probes):
    clock = [] if probes is None else [REFCLOCK, probes]
    cmd = [sys.executable, *clock, "-m", "potbench.cli"] + argv
    with open(out + ".stderr", "wb") as err:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            return proc.wait(timeout=SCENARIO_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return -1


def analyze_set(inp, out, env, sampled=False):
    """``potbench analyze`` on every file of a scenario, one after another.

    With an environment each file runs in a fresh interpreter, as users run
    it; with ``env=None`` it runs through ``cli.main`` in this process.
    ``sampled`` runs each interpreter under the reference clock, which
    writes its probes to ``probes_file(out, k)``.  Returns ``(exit code,
    report bytes or None, wall seconds)`` per file.
    """
    paths, analyze_seed = inp
    os.makedirs(out, exist_ok=True)
    results = []
    for k, path in enumerate(paths):
        file_out = os.path.join(out, str(k))
        argv = ["analyze", path, "--out", file_out, "--seed", str(analyze_seed)]
        t0 = time.perf_counter()
        if env is None:
            code = sys.modules["potbench.cli"].main(argv)
        else:
            code = _analyze_process(argv, file_out, env,
                                    probes_file(out, k) if sampled else None)
        results.append((code, _read_report(file_out), time.perf_counter() - t0))
    return results


def scenarios_op(inp, out, env):
    ok, modes = True, []
    for code, body, _ in analyze_set(inp, out, env, sampled=True):
        file_ok, file_modes = check_report(body)
        ok = ok and file_ok and code == 0
        modes.extend(file_modes)
    return ok, modes


class Workload:
    """Input generator, op and run size of one workload."""

    def __init__(self, name, make_input, op, op_seconds, trace_ops):
        self.name = name
        self.make_input = make_input
        self.op = op
        # about the op's mean wall time on the baseline host when it runs
        # fast: a run of --seconds holds seconds / op_seconds ops
        self.op_seconds = op_seconds
        self.trace_ops = trace_ops  # op count of the traced run


WORKLOADS = {
    "round_trip": Workload("round_trip", round_trip_input, round_trip_op,
                           op_seconds=0.5, trace_ops=30),
    "verdict_table": Workload("verdict_table", verdict_table_input, verdict_table_op,
                              op_seconds=6.3, trace_ops=3),
    "scenarios": Workload("scenarios", scenarios_input, scenarios_op,
                          op_seconds=8.3, trace_ops=1),
}
