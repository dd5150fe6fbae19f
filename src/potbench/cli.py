"""Command-line front end: run analysis tasks from a scenario file.

``potbench analyze scenario.json`` builds one kernel/measure instance and
runs the requested tasks, writing a deterministic JSON report (and CSV
tables for the sweep tasks).  ``potbench gallery`` builds a closed-form
block instance directly from flags.  ``potbench schema`` prints the JSON
schema that scenario files are validated against; ``_violations`` checks
them with the part of JSON Schema 2020-12 that this schema uses.

Determinism contract: the report body is byte-identical across runs of one
command (no task draws a random number; ``--seed`` is only echoed into it);
timings go to a separate file (or stderr) so they never perturb the report.
Exit status: 0 on success, 1 if any task failed or output could not be
written, 2 for unreadable, invalid or unknown input.
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

from .capacity import CERT_TOL, cap0, capacity_null_check, content, wiener_cap1
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
    if isinstance(obj, np.bool_):  # not a bool, nor an np.integer
        return bool(obj)
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
        bs = BlockSpec(n_blocks=int(b["n_blocks"]), q=float(q), sigma_rule=b["rule"],
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
            coords=None if coords is None else tuple(
                tuple(c) if isinstance(c, list) else c for c in coords),
        )
        matrix = build_sampled(sk).entries
    else:
        matrix = np.array([[_entry(v) for v in row] for row in spec["matrix"]])
    kernel = Kernel(Space(points=doc.get("points") or range(len(matrix))), matrix)

    sigma = None
    if "sigma" in doc:
        sigma = Measure(kernel.space, np.asarray(doc["sigma"], dtype=float))
    return _Instance(kernel, sigma, None if q is None else float(q))


def _problem(inst: _Instance, params: dict) -> SublinearProblem:
    q = params.get("q", inst.q)
    if q is None:
        raise DomainError("this task needs q (top-level or in params)")
    return SublinearProblem(inst.kernel, _need_sigma(inst), float(q))


def _need_sigma(inst: _Instance) -> Measure:
    if inst.sigma is None:
        raise DomainError("this task needs sigma")
    return inst.sigma


def _subset(inst: _Instance, params: dict):
    if "subset" in params:
        return list(params["subset"])
    return list(inst.kernel.space.points)


# each handler returns (result, provenance, table-rows or None); the
# provenance is the result's own mode: exact, sampled or heuristic


def _task_solve(inst, params, budget):
    res, est = solve_equation(_problem(inst, params))
    out = {"solve": res, "strong_lower": est.lower,
           "strong_certified": est.extras["certified_upper"]}
    return out, est.extras["mode"], None


def _task_strong(inst, params, budget):
    est = strong_type_constant(_problem(inst, params), budget=budget)
    return est, est.extras["mode"], None


def _task_weak(inst, params, budget):
    est = weak_type_constant(_problem(inst, params), budget=budget)
    return est, est.extras["mode"], None


def _task_wmp(inst, params, budget):
    rep = wmp_constant(inst.kernel, budget=budget)
    return rep, rep.mode, None


def _task_complete_mp(inst, params, budget):
    rep = complete_mp_constant(inst.kernel, budget=budget)
    return rep, rep.mode, None


def _task_quasisymmetry(inst, params, budget):
    return {"constant": check_quasisymmetric(inst.kernel),
            "symmetric": inst.kernel.is_symmetric}, "exact", None


def _task_quasimetric(inst, params, budget):
    return quasimetric_constant(inst.kernel), "exact", None


def _task_nondegenerate(inst, params, budget):
    return check_nondegenerate(inst.kernel, _need_sigma(inst)), "exact", None


def _capacity_tag(result) -> str:
    return "heuristic" if result.method == "heuristic" else "exact"


def _task_cap0(inst, params, budget):
    res = cap0(inst.kernel, _subset(inst, params))
    return res, _capacity_tag(res), None


def _task_content(inst, params, budget):
    res = content(inst.kernel, _subset(inst, params))
    return res, _capacity_tag(res), None


def _task_cap1(inst, params, budget):
    res = wiener_cap1(inst.kernel, _subset(inst, params))
    return res, _capacity_tag(res), None


def _task_capacity_null(inst, params, budget):
    if "mu" not in params:
        raise DomainError("capacity_null needs params.mu")
    mu = Measure(inst.kernel.space, np.asarray(params["mu"], dtype=float))
    rep = capacity_null_check(inst.kernel, _subset(inst, params), mu)
    return rep, "exact", None


def _task_energy(inst, params, budget):
    problem = _problem(inst, params)
    u = params.get("u")
    if u is None and inst.block is not None and problem.q == inst.block.problem.q:
        u = inst.block.solution  # the closed form solves the block's own q only
    rep = energy_criteria(problem, u)
    return rep, "exact", None


def _task_energy_sweep(inst, params, budget):
    problem = _problem(inst, params)
    if "s_values" in params:
        s_values = [float(s) for s in params["s_values"]]
    else:
        s = problem.q / (1.0 - problem.q)
        s_values = sorted({s * f for f in (0.5, 0.75, 1.0, 1.25, 1.5)}
                          | {1.0 + problem.q})
    rows = energy_sweep(problem, s_values)
    return {"rows": rows}, "exact", rows


def _task_maurey(inst, params, budget):
    problem = _problem(inst, params)
    if "F" in params:
        F = np.asarray(params["F"], dtype=float)
        return {"verification": maurey_verify(problem, F)}, "exact", None
    est = strong_type_constant(problem, with_upper=False)
    tag = est.extras["mode"]
    if est.witness is None:
        return {"available": False, "reason": "no witness"}, tag, None
    F = maurey_candidate(problem, est.witness)
    if F is None:
        return {"available": False, "reason": "degenerate potential"}, tag, None
    out = {"available": True, "l1_mass": integrate(F, problem.sigma),
           "verification": maurey_verify(problem, F),
           "strong_lower": est.lower}
    return out, tag, None


def _task_weak_quotient(inst, params, budget):
    sigma = _need_sigma(inst)
    if "nu" not in params:
        raise DomainError("weak_quotient needs params.nu")
    nu = Measure(inst.kernel.space, np.asarray(params["nu"], dtype=float))
    if "omega" in params:
        omega = Measure(inst.kernel.space, np.asarray(params["omega"], dtype=float))
    else:
        omega = sigma
    rep = wmp_constant(inst.kernel, budget=budget)
    qb = weak_quotient_bound(inst.kernel, omega, nu, h=rep.factor)
    return qb, rep.mode, None


def _task_testing(inst, params, budget):
    est = testing_condition_11(inst.kernel, _need_sigma(inst), budget=budget)
    return est, est.extras["mode"], None


def _task_operator_norm(inst, params, budget):
    p = float(params.get("p", 2.0))
    value = lp_operator_norm(inst.kernel, _need_sigma(inst), p)
    return {"p": p, "value": value}, "exact" if p == 2.0 else "heuristic", None


def _task_theorem_report(inst, params, budget):
    rep = theorem_report(_problem(inst, params), budget=budget)
    weakest = max(rep.constants["modes"].values(), key=("exact", "sampled", "heuristic").index)
    return rep, weakest, None


def _task_divergence_sweep(inst, params, budget):
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
            doc = json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except ValueError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    # the bundled schema is checked against its meta-schema by the tests
    schema = load_schema()
    error = next(_violations(schema, doc, schema), None)
    if error is not None:
        raise ScenarioError("scenario violates the schema at %s: %s" % error)
    return doc


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: _TYPES["number"](v) and (isinstance(v, int) or v.is_integer()),
}
_JSON_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string",
               list: "array", dict: "object", type(None): "null"}
# the keywords the bundled schema uses; the first four are annotations,
# which the checker skips
_KEYWORDS = {"$schema", "title", "description", "$defs",
             "type", "required", "additionalProperties", "properties", "items", "prefixItems",
             "minItems", "enum", "const", "minimum", "exclusiveMinimum", "oneOf", "$ref"}


def _same(a, b) -> bool:
    """JSON equality: ``1`` equals ``1.0``, but ``True`` is not ``1``."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _violations(schema, value, root, path="$"):
    """Yield ``(path, message)`` wherever ``value`` breaks ``schema``, in order.

    A JSON Schema 2020-12 subset: the keywords of ``_KEYWORDS``, with
    ``$ref`` only into ``root``'s ``$defs``.  A keyword skips values of a
    type it does not apply to, and one it does not know raises, so a schema
    edit cannot go unchecked.
    """
    if isinstance(schema, bool):
        if not schema:
            yield path, "no value is allowed here"
        return
    unknown = schema.keys() - _KEYWORDS
    if unknown:
        raise NotImplementedError(f"unsupported schema keywords {sorted(unknown)}")
    is_obj, is_arr, is_num = (_TYPES[t](value) for t in ("object", "array", "number"))
    for key, sub in schema.items():
        if key == "type":
            names = [sub] if isinstance(sub, str) else sub
            if not any(_TYPES[t](value) for t in names):
                yield path, f"expected {' or '.join(names)}, got {_JSON_NAMES[type(value)]}"
        elif key in ("enum", "const"):
            allowed = sub if key == "enum" else [sub]
            if not any(_same(value, a) for a in allowed):
                yield path, f"{json.dumps(value)} is not one of {json.dumps(allowed)}"
        elif key == "oneOf":
            errors = [next(_violations(s, value, root, path), None) for s in sub]
            if errors.count(None) > 1:
                yield path, f"matches {errors.count(None)} of the {len(sub)} forms, not one"
            elif None not in errors:  # report the form that got furthest
                yield max(errors, key=lambda e: len(e[0]))
        elif key == "$ref":
            if not sub.startswith("#/$defs/"):
                raise NotImplementedError(f"unsupported $ref {sub!r}")
            yield from _violations(root["$defs"][sub[len("#/$defs/"):]], value, root, path)
        elif key == "required" and is_obj:
            for name in sub:
                if name not in value:
                    yield path, f"missing required property {name!r}"
        elif key == "properties" and is_obj:
            for name, s in sub.items():
                if name in value:
                    yield from _violations(s, value[name], root, f"{path}.{name}")
        elif key == "additionalProperties" and is_obj:
            known = schema.get("properties", {})
            for name in value:
                if name not in known:
                    yield from _violations(sub, value[name], root, f"{path}.{name}")
        elif key == "prefixItems" and is_arr:
            for i, (s, item) in enumerate(zip(sub, value)):
                yield from _violations(s, item, root, f"{path}[{i}]")
        elif key == "items" and is_arr:
            for i in range(len(schema.get("prefixItems", ())), len(value)):
                yield from _violations(sub, value[i], root, f"{path}[{i}]")
        elif key == "minItems" and is_arr and len(value) < sub:
            yield path, f"has {len(value)} items, fewer than {sub}"
        elif key == "minimum" and is_num and value < sub:
            yield path, f"{value} is less than the minimum {sub}"
        elif key == "exclusiveMinimum" and is_num and value <= sub:
            yield path, f"{value} is not greater than {sub}"


def _reject_constant(name):
    raise ValueError(f"JSON literal {name} is not allowed; spell infinity as \"inf\"")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"JSON number {text} overflows a float; spell infinity as \"inf\"")
    return value


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
            result, provenance, rows = _TASKS[name](inst, params, budget)
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
        "tol": CERT_TOL,
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
    if args.budget < 1 or args.seed < 0:
        print("error: --budget must be at least 1 and --seed at least 0", file=sys.stderr)
        return 2
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
