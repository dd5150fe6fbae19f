"""Command-line front end: run analysis tasks from a scenario file.

``potbench analyze scenario.json`` builds one kernel/measure instance and
runs the requested tasks, writing a deterministic JSON report (and CSV
tables for the sweep tasks).  ``potbench gallery`` builds a closed-form
block instance directly from flags.  ``potbench schema`` prints the JSON
schema that scenario files are validated against.

Determinism contract: with a fixed ``--seed`` the report body is
byte-identical across runs; wall-clock timings go to a separate file (or
stderr) so they never perturb the report.  Exit status: 0 on success, 1 if
any task failed or output could not be written, 2 for unreadable, invalid
or unknown input.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from importlib import resources

import numpy as np

try:
    import jsonschema
except ImportError:  # pragma: no cover - declared dependency
    jsonschema = None

from .capacity import cap0, capacity_null_check, content, wiener_cap1
from .core import (
    DomainError,
    Kernel,
    Measure,
    Space,
    check_nondegenerate,
    check_quasisymmetric,
    integrate,
)
from .gallery import (
    BlockInstance,
    BlockSpec,
    SampledKernelSpec,
    build_block,
    build_sampled,
    energy_divergence_threshold,
)
from .principles import (
    DEFAULT_BUDGET,
    complete_mp_constant,
    quasimetric_constant,
    wmp_constant,
)
from .sublinear import (
    SublinearProblem,
    energy_criteria,
    energy_sweep,
    lp_operator_norm,
    maurey_candidate,
    maurey_verify,
    solve_equation,
    strong_type_constant,
    testing_condition_11,
    theorem_report,
    weak_quotient_bound,
    weak_type_constant,
)

__all__ = ["main", "to_jsonable", "load_schema"]


class ScenarioError(ValueError):
    """The scenario file is syntactically or semantically unusable."""


def load_schema() -> dict:
    text = resources.files("potbench.schema").joinpath("scenario.schema.json").read_text(
        encoding="utf-8")
    return json.loads(text)


def to_jsonable(obj):
    """Recursively convert results to JSON-safe data; ``inf`` becomes a string."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, Measure):
        return {"weights": to_jsonable(obj.weights)}
    if isinstance(obj, Kernel):
        return {"matrix": to_jsonable(obj.entries)}
    if isinstance(obj, Space):
        return {"points": [to_jsonable(p) for p in obj.points]}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [to_jsonable(v) for v in obj]
    return str(obj)


def _entry(v) -> float:
    return float("inf") if v == "inf" else float(v)


@dataclasses.dataclass
class _Instance:
    kernel: Kernel
    sigma: Measure | None
    q: float | None
    block_spec: BlockSpec | None = None
    block: BlockInstance | None = None


def _build_instance(doc: dict) -> _Instance:
    if "kernel" not in doc:
        raise ScenarioError("scenario has no kernel")
    spec = doc["kernel"]
    q = doc.get("q")

    if "blocks" in spec:
        if "sigma" in doc or "points" in doc:
            raise ScenarioError("block kernels define their own sigma and points")
        if q is None:
            raise ScenarioError("block kernels need a top-level q")
        b = spec["blocks"]
        rule = list(b["rule"])
        if rule and rule[0] == "custom":
            rule = [rule[0], [float(v) for v in rule[1]]]
        bs = BlockSpec(n_blocks=int(b["n_blocks"]), q=float(q),
                       sigma_rule=tuple(rule),
                       variant=b.get("variant", "zero_diagonal"))
        built = build_block(bs)
        return _Instance(built.problem.kernel, built.problem.sigma, float(q),
                         block_spec=bs, block=built)

    if "sampled" in spec:
        s = spec["sampled"]
        coords = s.get("coords")
        sk = SampledKernelSpec(
            kind=s["kind"], n_points=int(s["n_points"]),
            alpha=s.get("alpha"), n_dim=s.get("n_dim"),
            seed=int(s.get("seed", 0)),
            coords=None if coords is None else tuple(map(tuple, np.atleast_2d(coords))),
        )
        kernel = build_sampled(sk)
    else:
        matrix = np.array([[_entry(v) for v in row] for row in spec["matrix"]])
        points = doc.get("points")
        if points is None:
            points = tuple(range(len(matrix)))
        kernel = Kernel(Space(points=tuple(points)), matrix)

    sigma = None
    if "sigma" in doc:
        sigma = Measure(kernel.space, np.asarray(doc["sigma"], dtype=float))
    return _Instance(kernel, sigma, None if q is None else float(q))


def _problem(inst: _Instance, params: dict) -> SublinearProblem:
    q = params.get("q", inst.q)
    if q is None:
        raise DomainError("this task needs q (top-level or in params)")
    if inst.sigma is None:
        raise DomainError("this task needs sigma")
    return SublinearProblem(inst.kernel, inst.sigma, float(q))


def _need_sigma(inst: _Instance) -> Measure:
    if inst.sigma is None:
        raise DomainError("this task needs sigma")
    return inst.sigma


def _subset(inst: _Instance, params: dict):
    if "subset" in params:
        return list(params["subset"])
    return list(inst.kernel.space.points)


def _mode_tag(mode: str) -> str:
    return "exact" if mode == "exact" else "randomized"


# each handler returns (result, provenance, table-rows or None)


def _task_solve(inst, params, seed, budget, tol):
    res, est = solve_equation(_problem(inst, params))
    out = {"solve": res, "strong_lower": est.lower,
           "strong_certified": est.extras.get("certified_upper")}
    return out, _mode_tag(est.extras["mode"]), None


def _task_strong(inst, params, seed, budget, tol):
    est = strong_type_constant(_problem(inst, params), budget=budget, seed=seed)
    return est, _mode_tag(est.extras["mode"]), None


def _task_weak(inst, params, seed, budget, tol):
    est = weak_type_constant(_problem(inst, params), budget=budget)
    return est, _mode_tag(est.extras["mode"]), None


def _task_wmp(inst, params, seed, budget, tol):
    rep = wmp_constant(inst.kernel, budget=budget, seed=seed)
    return rep, _mode_tag(rep.mode), None


def _task_complete_mp(inst, params, seed, budget, tol):
    rep = complete_mp_constant(inst.kernel, budget=budget, seed=seed)
    return rep, _mode_tag(rep.mode), None


def _task_quasisymmetry(inst, params, seed, budget, tol):
    return {"constant": check_quasisymmetric(inst.kernel),
            "symmetric": inst.kernel.is_symmetric}, "exact", None


def _task_quasimetric(inst, params, seed, budget, tol):
    return quasimetric_constant(inst.kernel), "exact", None


def _task_nondegenerate(inst, params, seed, budget, tol):
    return check_nondegenerate(inst.kernel, _need_sigma(inst)), "exact", None


def _capacity_tag(result) -> str:
    return "heuristic" if result.method == "heuristic" else "exact"


def _task_cap0(inst, params, seed, budget, tol):
    res = cap0(inst.kernel, _subset(inst, params), ctol=tol)
    return res, _capacity_tag(res), None


def _task_content(inst, params, seed, budget, tol):
    res = content(inst.kernel, _subset(inst, params), ctol=tol)
    return res, _capacity_tag(res), None


def _task_cap1(inst, params, seed, budget, tol):
    res = wiener_cap1(inst.kernel, _subset(inst, params), ctol=tol, seed=seed)
    return res, _capacity_tag(res), None


def _task_capacity_null(inst, params, seed, budget, tol):
    if "mu" not in params:
        raise DomainError("capacity_null needs params.mu")
    mu = Measure(inst.kernel.space, np.asarray(params["mu"], dtype=float))
    rep = capacity_null_check(inst.kernel, _subset(inst, params), mu)
    return rep, "exact", None


def _task_energy(inst, params, seed, budget, tol):
    problem = _problem(inst, params)
    u = params.get("u")
    if u is None and inst.block is not None:
        u = inst.block.solution
    rep = energy_criteria(problem, None if u is None else np.asarray(u, dtype=float))
    return rep, "exact", None


def _task_energy_sweep(inst, params, seed, budget, tol):
    problem = _problem(inst, params)
    if "s_values" in params:
        s_values = [float(s) for s in params["s_values"]]
    else:
        s = problem.q / (1.0 - problem.q)
        s_values = sorted({s * f for f in (0.5, 0.75, 1.0, 1.25, 1.5)}
                          | {1.0 + problem.q})
    rows = energy_sweep(problem, s_values)
    return {"rows": rows}, "exact", rows


def _task_maurey(inst, params, seed, budget, tol):
    problem = _problem(inst, params)
    if "F" in params:
        F = np.asarray(params["F"], dtype=float)
        return {"verification": maurey_verify(problem, F)}, "exact", None
    est = strong_type_constant(problem, with_upper=False)
    tag = _mode_tag(est.extras["mode"])
    if est.witness is None:
        return {"available": False, "reason": "no witness"}, tag, None
    F = maurey_candidate(problem, est.witness)
    if F is None:
        return {"available": False, "reason": "degenerate potential"}, tag, None
    out = {"available": True, "l1_mass": integrate(F, problem.sigma),
           "verification": maurey_verify(problem, F),
           "strong_lower": est.lower}
    return out, tag, None


def _task_weak_quotient(inst, params, seed, budget, tol):
    sigma = _need_sigma(inst)
    if "nu" not in params:
        raise DomainError("weak_quotient needs params.nu")
    nu = Measure(inst.kernel.space, np.asarray(params["nu"], dtype=float))
    if "omega" in params:
        omega = Measure(inst.kernel.space, np.asarray(params["omega"], dtype=float))
    else:
        omega = sigma
    rep = wmp_constant(inst.kernel, budget=budget, seed=seed)
    qb = weak_quotient_bound(inst.kernel, omega, nu, h=rep.constant)
    return qb, _mode_tag(rep.mode), None


def _task_testing(inst, params, seed, budget, tol):
    est = testing_condition_11(inst.kernel, _need_sigma(inst), budget=budget)
    return est, _mode_tag(est.extras["mode"]), None


def _task_operator_norm(inst, params, seed, budget, tol):
    p = float(params.get("p", 2.0))
    value = lp_operator_norm(inst.kernel, _need_sigma(inst), p)
    return {"p": p, "value": value}, "exact" if p == 2.0 else "heuristic", None


def _task_theorem_report(inst, params, seed, budget, tol):
    rep = theorem_report(_problem(inst, params), budget=budget, seed=seed,
                         pole=params.get("pole"))
    return rep, "randomized", None


def _task_divergence_sweep(inst, params, seed, budget, tol):
    if inst.block_spec is None:
        raise DomainError("divergence_sweep needs a block kernel")
    truncations = [int(n) for n in params.get("truncations", (1, 2, 4, 8, 16, 32, 64))]
    rows = []
    for n in truncations:
        spec = dataclasses.replace(inst.block_spec, n_blocks=n)
        built = build_block(spec)
        rows.append({
            "n_blocks": n,
            "divergence_lower": built.divergence_lower,
            "solution_lq_norm": built.solution_lq_norm,
            "energy_small": built.energy_small,
        })
    return {"rows": rows}, "exact", rows


_TASKS = {
    "solve": _task_solve,
    "strong_constant": _task_strong,
    "weak_constant": _task_weak,
    "wmp": _task_wmp,
    "complete_mp": _task_complete_mp,
    "quasisymmetry": _task_quasisymmetry,
    "quasimetric": _task_quasimetric,
    "nondegenerate": _task_nondegenerate,
    "cap0": _task_cap0,
    "content": _task_content,
    "cap1": _task_cap1,
    "capacity_null": _task_capacity_null,
    "energy": _task_energy,
    "energy_sweep": _task_energy_sweep,
    "maurey": _task_maurey,
    "weak_quotient": _task_weak_quotient,
    "testing_condition": _task_testing,
    "operator_norm": _task_operator_norm,
    "theorem_report": _task_theorem_report,
    "divergence_sweep": _task_divergence_sweep,
}


def _load_scenario(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except ValueError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    if jsonschema is not None:
        try:
            jsonschema.validate(doc, load_schema())
        except jsonschema.ValidationError as exc:
            raise ScenarioError(f"scenario violates the schema: {exc.message}") from exc
    return doc


def _reject_constant(name):
    raise ValueError(f"JSON literal {name} is not allowed; spell infinity as \"inf\"")


def _run_tasks(doc: dict, inst: _Instance, args) -> tuple[dict, dict, list]:
    report_tasks = []
    timings = {}
    tables = []
    for index, task in enumerate(doc["tasks"]):
        name = task["name"]
        seed = int(task.get("seed", args.seed + index))
        budget = int(task.get("budget", args.budget))
        params = task.get("params", {})
        t0 = time.perf_counter()
        entry = {"name": name, "seed": seed}
        try:
            result, provenance, rows = _TASKS[name](inst, params, seed, budget, args.tol)
            entry["provenance"] = provenance
            entry["result"] = to_jsonable(result)
            if rows is not None:
                tables.append((index, name, rows))
        except Exception as exc:  # noqa: BLE001 - task isolation is the contract
            entry["error"] = f"{type(exc).__name__}: {exc}"
        timings[f"{index}:{name}"] = time.perf_counter() - t0
        report_tasks.append(entry)
    report = {
        "scenario": doc.get("name", ""),
        "seed": args.seed,
        "budget": args.budget,
        "tol": args.tol,
        "space_size": inst.kernel.size,
        "tasks": report_tasks,
    }
    return report, timings, tables


def _write_csv(path, rows):
    keys = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(keys)
        for row in rows:
            writer.writerow([row[k] for k in keys])


def _emit(report, timings, tables, out_dir) -> int:
    body = json.dumps(to_jsonable(report), sort_keys=True, indent=2) + "\n"
    if out_dir is None:
        sys.stdout.write(body)
        print(json.dumps(to_jsonable(timings), sort_keys=True), file=sys.stderr)
        return 0
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(body)
        with open(os.path.join(out_dir, "timings.json"), "w", encoding="utf-8") as fh:
            json.dump(to_jsonable(timings), fh, sort_keys=True, indent=2)
            fh.write("\n")
        for index, name, rows in tables:
            if rows:
                _write_csv(os.path.join(out_dir, f"{index:02d}_{name}.csv"),
                           to_jsonable(rows))
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_analyze(args) -> int:
    try:
        doc = _load_scenario(args.scenario)
        inst = _build_instance(doc)
    except (ScenarioError, DomainError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report, timings, tables = _run_tasks(doc, inst, args)
    status = _emit(report, timings, tables, args.out)
    if status != 0:
        return status
    if any("error" in t for t in report["tasks"]):
        return 1
    return 0


def _cmd_gallery(args) -> int:
    try:
        if args.rule == "geometric":
            rule = ("geometric", args.a, args.b)
        else:
            rule = ("harmonic",)
        spec = BlockSpec(n_blocks=args.n_blocks, q=args.q, sigma_rule=rule,
                         variant=args.variant)
        built = build_block(spec)
        thresholds = {}
        if spec.variant == "zero_diagonal":
            for target in args.targets:
                thresholds[f"{target:g}"] = energy_divergence_threshold(spec, target)
        out = {
            "tag": built.tag,
            "sigma": built.problem.sigma.weights,
            "solution": built.solution,
            "solution_lq_norm": built.solution_lq_norm,
            "energy_small": built.energy_small,
            "divergence_lower": built.divergence_lower,
            "block_scales": built.block_scales,
            "thresholds": thresholds,
        }
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(to_jsonable(out), sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_schema(args) -> int:
    sys.stdout.write(json.dumps(load_schema(), sort_keys=True, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="potbench",
        description="Potential-theory workbench for finite kernels.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="run tasks from a scenario file")
    p_an.add_argument("scenario", help="path to a scenario JSON file")
    p_an.add_argument("--out", default=None, help="output directory")
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_an.add_argument("--tol", type=float, default=1e-8)
    p_an.set_defaults(func=_cmd_analyze)

    p_ga = sub.add_parser("gallery", help="build a closed-form block instance")
    p_ga.add_argument("--rule", choices=("geometric", "harmonic"), default="harmonic")
    p_ga.add_argument("--a", type=float, default=1.1)
    p_ga.add_argument("--b", type=float, default=1.5)
    p_ga.add_argument("--n-blocks", type=int, default=8)
    p_ga.add_argument("--q", type=float, default=0.5)
    p_ga.add_argument("--variant", choices=("zero_diagonal", "strictly_positive"),
                      default="zero_diagonal")
    p_ga.add_argument("--targets", type=float, nargs="*", default=(10.0, 100.0))
    p_ga.set_defaults(func=_cmd_gallery)

    p_sc = sub.add_parser("schema", help="print the scenario schema")
    p_sc.set_defaults(func=_cmd_schema)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
