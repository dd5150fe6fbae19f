"""Command-line workflow: scenarios in, deterministic reports out."""

import copy
import csv
import importlib.metadata
import json
import os
import random
import shutil
import subprocess
import sys
import sysconfig

import jsonschema
import numpy as np
import pytest

import potbench
from potbench import (
    Kernel,
    Measure,
    SampledKernelSpec,
    Space,
    build_sampled,
    complete_mp_constant,
    weak_quotient_bound,
    wmp_constant,
)
from potbench.cli import _TASKS, _violations, load_schema, main, to_jsonable


def write_scenario(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


BASIC = {
    "name": "basic",
    "q": 0.5,
    "kernel": {"matrix": [[1.0, 0.5], [0.5, 1.0]]},
    "sigma": [1.0, 1.0],
    "tasks": [
        {"name": "solve"},
        {"name": "strong_constant"},
        {"name": "weak_constant"},
        {"name": "wmp"},
        {"name": "complete_mp"},
        {"name": "quasisymmetry"},
        {"name": "quasimetric"},
        {"name": "nondegenerate"},
        {"name": "cap0"},
        {"name": "content", "params": {"subset": [0]}},
        {"name": "cap1"},
        {"name": "capacity_null", "params": {"subset": [1], "mu": [0.0, 1.0]}},
        {"name": "energy"},
        {"name": "energy", "params": {"u": [2.25, 2.25]}},
        {"name": "energy_sweep", "params": {"s_values": [0.5, 1.0, 1.5]}},
        {"name": "maurey"},
        {"name": "maurey", "params": {"F": [1.0, 1.0]}},
        {"name": "weak_quotient", "params": {"nu": [1.0, 0.0], "omega": [1.0, 2.0]}},
        {"name": "testing_condition"},
        {"name": "theorem_report"},
        {"name": "operator_norm", "params": {"p": 2.0}},
        # off p = 2 the operator norm comes from a heuristic power iteration
        {"name": "operator_norm", "params": {"p": 3.0}},
    ],
}


def test_analyze_basic(tmp_path):
    scen = write_scenario(tmp_path / "s.json", BASIC)
    out = tmp_path / "out"
    assert main(["analyze", scen, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["scenario"] == "basic"
    assert report["space_size"] == 2
    # every task but divergence_sweep, which needs a block kernel, runs once
    assert {t["name"] for t in report["tasks"]} == set(_TASKS) - {"divergence_sweep"}
    assert [t for t in report["tasks"] if "error" in t] == []
    assert ([t["provenance"] for t in report["tasks"]]
            == ["exact"] * (len(BASIC["tasks"]) - 1) + ["heuristic"])
    by_name = {t["name"]: t for t in report["tasks"]}
    assert by_name["solve"]["result"]["solve"]["status"] == "solution"
    assert by_name["strong_constant"]["provenance"] == "exact"
    assert by_name["cap0"]["provenance"] == "exact"
    assert by_name["cap0"]["result"]["value"] == pytest.approx(4.0 / 3.0)
    assert by_name["wmp"]["result"]["constant"] == 1.0
    # timings live in their own file, not the report
    assert "timings" not in report
    assert (out / "timings.json").exists()


def test_analyze_deterministic(tmp_path):
    scen = write_scenario(tmp_path / "s.json", BASIC)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["analyze", scen, "--out", str(out1), "--seed", "7"]) == 0
    assert main(["analyze", scen, "--out", str(out2), "--seed", "7"]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_analyze_seed_changes_task_seeds(tmp_path):
    scen = write_scenario(tmp_path / "s.json", BASIC)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["analyze", scen, "--out", str(out1), "--seed", "1"]) == 0
    assert main(["analyze", scen, "--out", str(out2), "--seed", "2"]) == 0
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert [t["seed"] for t in r1["tasks"]] != [t["seed"] for t in r2["tasks"]]


def test_analyze_stdout_mode(tmp_path, capsys):
    scen = write_scenario(tmp_path / "s.json", {
        "name": "tiny", "q": 0.5,
        "kernel": {"matrix": [[0.0, 1.0], [1.0, 0.0]]},
        "sigma": [1.0, 1.0],
        "tasks": [{"name": "strong_constant"}],
    })
    assert main(["analyze", scen]) == 0
    captured = capsys.readouterr()
    body = json.loads(captured.out)
    assert body["tasks"][0]["result"]["lower"] == pytest.approx(2.0, rel=1e-8)
    # timings went to stderr
    json.loads(captured.err)


def test_infinite_entries_round_trip(tmp_path):
    scen = write_scenario(tmp_path / "s.json", {
        "name": "inf", "q": 0.5,
        "kernel": {"matrix": [["inf", 1.0], [1.0, 1.0]]},
        "sigma": [1.0, 1.0],
        "tasks": [{"name": "strong_constant"}],
    })
    out = tmp_path / "out"
    assert main(["analyze", scen, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    res = report["tasks"][0]["result"]
    assert res["lower"] == "inf"
    assert res["method"] == "infinite-entry"


@pytest.mark.parametrize("q", [0.9, 0.99, 0.999])
def test_maurey_task_without_a_candidate_that_fits_a_float(tmp_path, capsys, q):
    # the rescaled dual function underflows to 0 on sigma's support
    scen = write_scenario(tmp_path / "s.json", {
        "name": "tiny", "q": q,
        "kernel": {"matrix": [[1e200, 1e200], [1e200, 0.0]]},
        "sigma": [1e-300, 1e-300],
        "tasks": [{"name": "maurey"}],
    })
    assert main(["analyze", scen]) == 0
    assert json.loads(capsys.readouterr().out)["tasks"][0]["result"]["available"] is False


def test_bare_infinity_literal_rejected(tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"name": "x", "kernel": {"matrix": [[Infinity]]}, "tasks": []}')
    assert main(["analyze", str(path)]) == 2


@pytest.mark.parametrize("text", [
    '{"name": "x", "kernel": {"matrix": [[1.0]]}, "sigma": [1.0], "q": 1e400, "tasks": []}',
    '{"name": "x", "kernel": {"matrix": [[1e400]]}, "sigma": [1.0], "tasks": []}',
])
def test_number_that_overflows_rejected(tmp_path, capsys, text):
    # 1e400 would load as inf and pass the schema; infinity must be spelled "inf"
    path = tmp_path / "s.json"
    path.write_text(text)
    assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "1e400 overflows a float" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 2


def test_unknown_task_exits_2(tmp_path, capsys):
    scen = write_scenario(tmp_path / "s.json", {
        "name": "x", "kernel": {"matrix": [[1.0]]}, "sigma": [1.0],
        "tasks": [{"name": "frobnicate"}],
    })
    assert main(["analyze", scen]) == 2
    assert "violates the schema at $.tasks[0].name:" in capsys.readouterr().err


@pytest.mark.parametrize("change, path", [
    ({"extra": 1}, "$.extra"),
    ({"sigma": [1.0, -1.0]}, "$.sigma[1]"),
    ({"kernel": {"matrix": [[1.0, "x"]]}}, "$.kernel.matrix[0][1]"),
    ({"kernel": {"matrix": [[1.0]], "blocks": {"n_blocks": 1, "rule": ["harmonic"]}}},
     "$.kernel.blocks"),
    ({"kernel": {"blocks": {"n_blocks": 1, "rule": ["linear"]}}}, "$.kernel.blocks.rule[0]"),
    ({"kernel": []}, "$.kernel"),
    ({"tasks": [{"name": "wmp", "seed": True}]}, "$.tasks[0].seed"),
])
def test_schema_error_names_the_path(tmp_path, capsys, change, path):
    scen = write_scenario(tmp_path / "s.json", {**BASIC, **change})
    assert main(["analyze", scen]) == 2
    assert f"violates the schema at {path}:" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("flags", [["--budget", "0"], ["--budget", "-3"], ["--seed", "-1"]])
def test_out_of_range_flags_exit_2(tmp_path, flags):
    # the schema bounds a task's own budget (>= 1) and seed (>= 0) the same way
    scen = write_scenario(tmp_path / "s.json", BASIC)
    out = tmp_path / "out"
    assert main(["analyze", scen, "--out", str(out), *flags]) == 2
    assert not out.exists()


def test_task_error_is_isolated(tmp_path):
    scen = write_scenario(tmp_path / "s.json", {
        "name": "x", "q": 0.5,
        "kernel": {"matrix": [[1.0, 2.0], [0.5, 1.0]]},
        "sigma": [1.0, 1.0],
        "tasks": [{"name": "cap1"}, {"name": "cap0"}],
    })
    out = tmp_path / "out"
    # cap1 needs symmetry and fails; cap0 still runs; overall exit is 1
    assert main(["analyze", scen, "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert "error" in report["tasks"][0]
    assert "DomainError" in report["tasks"][0]["error"]
    assert report["tasks"][1]["result"]["value"] > 0


def test_unwritable_out_exits_1(tmp_path):
    scen = write_scenario(tmp_path / "s.json", BASIC)
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    assert main(["analyze", scen, "--out", str(blocker / "sub")]) == 1


def test_block_scenario_and_sweep_csv(tmp_path):
    scen = write_scenario(tmp_path / "s.json", {
        "name": "blocks", "q": 0.5,
        "kernel": {"blocks": {"n_blocks": 4, "rule": ["geometric", 1.1, 1.5]}},
        "tasks": [
            {"name": "divergence_sweep", "params": {"truncations": list(range(1, 21))}},
            {"name": "solve"},
            {"name": "energy"},
        ],
    })
    out = tmp_path / "out"
    assert main(["analyze", scen, "--out", str(out)]) == 0
    csv_path = out / "00_divergence_sweep.csv"
    assert csv_path.exists()
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20
    lows = [float(r["divergence_lower"]) for r in rows]
    assert all(b > a for a, b in zip(lows, lows[1:]))
    report = json.loads((out / "report.json").read_text())
    by_name = {t["name"]: t for t in report["tasks"]}
    # the closed-form solution feeds the energy criteria automatically
    assert by_name["energy"]["result"]["small_exponent_check"]["holds"] is True
    assert by_name["solve"]["result"]["solve"]["status"] == "solution"


def test_task_defaults_and_a_custom_block_rule(tmp_path):
    # energy_sweep's default exponents, weak_quotient against sigma itself,
    # maurey with no witness (sigma vanishes), divergence_sweep on a matrix
    # kernel, and a custom block rule
    def analyze(name, doc):
        scen = write_scenario(tmp_path / f"{name}.json", {"name": name, "q": 0.5, **doc})
        main(["analyze", scen, "--out", str(tmp_path / name)])
        return json.loads((tmp_path / name / "report.json").read_text())["tasks"]

    matrix = {"kernel": {"matrix": [[1.0, 0.5], [0.5, 1.0]]}}
    sweep, quotient, sweep_blocks = analyze("defaults", {**matrix, "sigma": [1.0, 1.0], "tasks": [
        {"name": "energy_sweep"}, {"name": "weak_quotient", "params": {"nu": [1.0, 0.0]}},
        {"name": "divergence_sweep"}]})
    # s = q/(1-q) = 1 times 0.5, 0.75, 1, 1.25 and 1.5, and 1 + q = 1.5
    assert [row["s"] for row in sweep["result"]["rows"]] == [0.5, 0.75, 1.0, 1.25, 1.5]
    kernel = Kernel(Space.of_size(2), [[1.0, 0.5], [0.5, 1.0]])
    sigma, nu = Measure(kernel.space, [1.0, 1.0]), Measure(kernel.space, [1.0, 0.0])
    assert quotient["result"] == to_jsonable(
        weak_quotient_bound(kernel, sigma, nu, h=wmp_constant(kernel).factor))
    assert "divergence_sweep needs a block kernel" in sweep_blocks["error"]
    (maurey,) = analyze("void", {**matrix, "sigma": [0.0, 0.0], "tasks": [{"name": "maurey"}]})
    assert maurey["result"] == {"available": False, "reason": "no witness"}
    (solve,) = analyze("custom", {
        "kernel": {"blocks": {"n_blocks": 2, "rule": ["custom", [1, 2, 1, 2]]}},
        "tasks": [{"name": "solve"}]})
    assert solve["result"]["solve"]["status"] == "solution"


def test_block_scenario_rejects_sigma(tmp_path):
    scen = write_scenario(tmp_path / "s.json", {
        "name": "x", "q": 0.5,
        "kernel": {"blocks": {"n_blocks": 2, "rule": ["harmonic"]}},
        "sigma": [1.0, 1.0, 1.0, 1.0],
        "tasks": [{"name": "quasisymmetry"}],
    })
    assert main(["analyze", scen]) == 2


def test_sampled_scenario(tmp_path):
    scen = write_scenario(tmp_path / "s.json", {
        "name": "green", "q": 0.5,
        "kernel": {"sampled": {"kind": "interval_green", "n_points": 5, "seed": 3}},
        "sigma": [1.0, 1.0, 1.0, 1.0, 1.0],
        "tasks": [{"name": "wmp"}, {"name": "quasimetric"}, {"name": "theorem_report"}],
    })
    out = tmp_path / "out"
    assert main(["analyze", scen, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    by_name = {t["name"]: t for t in report["tasks"]}
    assert by_name["wmp"]["result"]["holds"] is True
    rows = by_name["theorem_report"]["result"]["rows"]
    assert {r["verdict"] for r in rows} <= {"CONFIRMED", "VIOLATED", "NOT-APPLICABLE"}
    assert not [r for r in rows if r["verdict"] == "VIOLATED"]


def test_sampled_scenario_flat_coords(tmp_path):
    # 1-D clouds take a flat list of coordinates, as build_sampled does
    coords = [0.2, 0.5, 0.8]
    scen = write_scenario(tmp_path / "s.json", {
        "name": "flat", "q": 0.5,
        "kernel": {"sampled": {"kind": "interval_green", "n_points": 3, "coords": coords}},
        "sigma": [1.0, 1.0, 1.0],
        "tasks": [{"name": "wmp"}],
    })
    out = tmp_path / "out"
    assert main(["analyze", scen, "--out", str(out)]) == 0
    result = json.loads((out / "report.json").read_text())["tasks"][0]["result"]
    kernel = build_sampled(SampledKernelSpec(kind="interval_green", n_points=3,
                                             coords=tuple(coords)))
    assert result == to_jsonable(wmp_constant(kernel))


def test_theorem_report_provenance(tmp_path):
    # the provenance is the weakest mode of the searches inside the report:
    # all of them are exhaustive on two points, and a budget of 4 cuts the
    # subset searches and the WMP pair stream on five points short, unless
    # the kernel is a potential matrix, as the interval Green kernel is: its
    # WMP is certified at any budget.  The Gaussian kernel's inverse has
    # positive off-diagonal entries
    green = {"sampled": {"kind": "interval_green", "n_points": 5, "seed": 3}}
    gauss = {"matrix": [[0.5 ** ((i - j) ** 2) for j in range(5)] for i in range(5)]}
    for kernel, sigma, budget, tag, wmp in (
            (BASIC["kernel"], BASIC["sigma"], None, "exact", "exact"),
            (green, [1.0] * 5, 4, "sampled", "exact"),
            (gauss, [1.0] * 5, 4, "sampled", "sampled")):
        task = {"name": "theorem_report"}
        if budget:
            task["budget"] = budget
        scen = write_scenario(tmp_path / "s.json", {
            "name": "t", "q": 0.5, "kernel": kernel, "sigma": sigma, "tasks": [task]})
        out = tmp_path / f"{tag}-{wmp}"
        assert main(["analyze", scen, "--out", str(out)]) == 0
        entry = json.loads((out / "report.json").read_text())["tasks"][0]
        assert entry["provenance"] == tag
        modes = entry["result"]["constants"]["modes"]
        assert {"wmp", "strong", "weak_cap0", "testing"} <= set(modes)
        assert modes["wmp"] == wmp


def test_gallery_subcommand(capsys):
    assert main(["gallery", "--rule", "geometric", "--a", "1.1", "--b", "1.5",
                 "--n-blocks", "3", "--q", "0.5", "--targets", "2.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tag"].startswith("blocks:geometric")
    assert out["thresholds"]["2"]["n_blocks"] == 2


def test_gallery_rejects_bad_parameters(capsys):
    assert main(["gallery", "--rule", "geometric", "--a", "2.0", "--b", "1.5"]) == 2


def test_schema_subcommand(capsys):
    assert main(["schema"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["$schema"].endswith("2020-12/schema")
    assert load_schema() == doc
    jsonschema.Draft202012Validator.check_schema(doc)


MATRIX = {
    "name": "matrix", "q": 0.5, "points": ["a", 2, 3.5],
    "kernel": {"matrix": [[0.0, 1.0, "inf"], [1.0, 0.0, 2.0], ["inf", 2.0, 0.0]]},
    "sigma": [1.0, 0.0, 2.0],
    "tasks": [{"name": "wmp", "budget": 40}, {"name": "cap0", "params": {"subset": [0]}},
              {"name": "solve", "seed": 3}],
}
SAMPLED = {
    "name": "riesz", "q": 0.5,
    "kernel": {"sampled": {"kind": "riesz", "n_points": 3, "alpha": 1.5, "n_dim": 2,
                           "seed": 4, "coords": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}},
    "sigma": [1.0, 1.0, 1.0],
    "tasks": [{"name": "complete_mp"}, {"name": "theorem_report", "budget": 10}],
}
BLOCKS = {
    "name": "blocks", "q": 0.5,
    "kernel": {"blocks": {"n_blocks": 4, "rule": ["custom", [1.0, 2.0, 3.0, 4.0]],
                          "variant": "strictly_positive"}},
    "tasks": [{"name": "divergence_sweep", "params": {"truncations": [1, 2]}}],
}
# replacements that sit on the boundaries the schema draws
VALUES = [True, False, None, 0, 1, -1, 1.0, 2.5, -0.5, 0.0, float("inf"), 10**30, "inf",
          "-inf", "x", "solve", "harmonic", "geometric", "custom", "riesz", "zero_diagonal",
          [], [1.0], ["inf", 1], [[1.0]], ["geometric", 1.1, 1.5], [True], {}, {"a": 1},
          {"matrix": [[1.0]]}, {"n_blocks": 2, "rule": ["harmonic"]}, {"name": "wmp"}]
KEYS = ["name", "q", "points", "sigma", "tasks", "kernel", "matrix", "sampled", "blocks",
        "seed", "budget", "params", "alpha", "n_dim", "coords", "variant", "rule", "zzz"]


def _containers(node, out):
    if isinstance(node, (dict, list)):
        out.append(node)
        for child in (node.values() if isinstance(node, dict) else node):
            _containers(child, out)
    return out


def _mutate(rng, doc):
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        node = rng.choice(_containers(doc, []))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = rng.random()
        if action < 0.2 and keys:
            del node[rng.choice(keys)]
        elif action < 0.35:
            if isinstance(node, dict):
                node[rng.choice(KEYS)] = copy.deepcopy(rng.choice(VALUES))
            else:
                node.append(copy.deepcopy(rng.choice(VALUES)))
        elif keys:
            node[rng.choice(keys)] = copy.deepcopy(rng.choice(VALUES))
    return doc


def test_checker_agrees_with_jsonschema_on_a_fuzzed_corpus():
    schema = load_schema()
    oracle = jsonschema.Draft202012Validator(schema)
    rng = random.Random(20240)
    bases = (BASIC, MATRIX, SAMPLED, BLOCKS)
    corpus = [copy.deepcopy(b) for b in bases]
    corpus += [_mutate(rng, bases[i % len(bases)]) for i in range(4000)]
    # hand-made edges: True is not 1, 1.0 is an integer, "inf" entries,
    # the rule's prefixItems, and extended-real inputs that json.load can yield
    corpus += [
        {**BASIC, "tasks": [{"name": "wmp", "seed": True}]},
        {**BASIC, "tasks": [{"name": "wmp", "seed": 1.0, "budget": 2.0}]},
        {**BASIC, "tasks": [{"name": "wmp", "seed": 1.5}]},
        {**BASIC, "q": True},
        {**BASIC, "sigma": [1, True]},
        {**BASIC, "kernel": {"matrix": [["inf", 0], [0, "inf"]]}},
        {**BASIC, "kernel": {"matrix": [["-inf", 0]]}},
        {**BASIC, "kernel": {"matrix": [[float("inf")]]}},
        {**BLOCKS, "kernel": {"blocks": {"n_blocks": 1.0, "rule": ["harmonic", 1, None]}}},
        {**BLOCKS, "kernel": {"blocks": {"n_blocks": 1, "rule": [["harmonic"]]}}},
        {**BLOCKS, "kernel": {"blocks": {"n_blocks": 1, "rule": []}}},
        {**BLOCKS, "kernel": {"blocks": {"n_blocks": True, "rule": ["harmonic"]}}},
    ]
    accepted = 0
    for doc in corpus:
        ours = next(_violations(schema, doc, schema), None) is None
        assert ours == (next(oracle.iter_errors(doc), None) is None), doc
        accepted += ours
    # both verdicts occur often enough to count
    assert 500 < accepted < len(corpus) - 500


@pytest.mark.parametrize("schema, values", [
    # two forms match 1, none match -1, one matches "x" (minimum skips strings)
    ({"oneOf": [{"type": "number"}, {"minimum": 0}]}, [1, -1, "x", True]),
    ({"enum": [1, "a", [1, True]]}, [True, 1.0, "a", [1, True], [1.0, 1], [True, True]]),
    ({"const": False}, [False, 0, 0.0, None]),
    ({"const": {"a": [1]}}, [{"a": [1.0]}, {"a": [True]}, {"a": [1], "b": 2}]),
    ({"type": ["integer", "string"], "minimum": 2}, [1.0, 2.0, 3, "1", True, 1.5]),
    ({"type": "array", "prefixItems": [{"const": "a"}], "items": {"type": "integer"}},
     [["a"], ["a", 1, 2.0], ["a", "b"], ["b"], []]),
    ({"additionalProperties": {"type": "integer"}, "properties": {"a": {"type": "string"}}},
     [{"a": "x", "b": 1}, {"a": "x", "b": "y"}, {"a": 1}, []]),
    ({"$defs": {"e": {"exclusiveMinimum": 0}}, "items": {"$ref": "#/$defs/e"}},
     [[1, 0.5], [0], [-1], ["x"]]),
])
def test_checker_agrees_with_jsonschema_on_keyword_edges(schema, values):
    oracle = jsonschema.Draft202012Validator(schema)
    for value in values:
        ours = next(_violations(schema, value, schema), None) is None
        assert ours == oracle.is_valid(value), value


def test_checker_raises_on_an_unknown_keyword():
    with pytest.raises(NotImplementedError, match="pattern"):
        next(_violations({"pattern": "x"}, "y", {}), None)
    with pytest.raises(NotImplementedError, match="ref"):
        next(_violations({"$ref": "other.json"}, "y", {}), None)


def _fresh_python(code, *args):
    src = os.path.dirname(os.path.dirname(potbench.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_analyze_runs_where_jsonschema_cannot_be_imported(tmp_path):
    scen = write_scenario(tmp_path / "s.json", BASIC)
    assert main(["analyze", scen, "--out", str(tmp_path / "here")]) == 0
    proc = _fresh_python(
        "import sys; sys.modules['jsonschema'] = None\n"
        "import potbench.cli\n"
        "sys.exit(potbench.cli.main(['analyze', sys.argv[1], '--out', sys.argv[2]]))",
        scen, str(tmp_path / "fresh"))
    assert proc.returncode == 0, proc.stderr
    assert ((tmp_path / "fresh" / "report.json").read_bytes()
            == (tmp_path / "here" / "report.json").read_bytes())


def test_cli_import_does_not_load_jsonschema():
    # the runtime is numpy alone: no jsonschema, and no scipy (the simplex is
    # the package's own)
    proc = _fresh_python("import sys, potbench.cli; "
                         "assert not {'jsonschema', 'scipy'} & set(sys.modules)")
    assert proc.returncode == 0, proc.stderr


def test_weak_norm_and_ball_scan_do_not_load_numpy_ma():
    # np.unique's first call imports numpy.ma, about 11 ms of a fresh analyze
    # process; the weak norm and the testing condition's ball scan sort instead
    proc = _fresh_python(
        "import sys\n"
        "import numpy as np\n"
        "import potbench as pb\n"
        "from potbench.gallery import shortest_path_metric\n"
        "rng = np.random.default_rng(0)\n"
        "k = pb.Kernel(pb.Space.of_size(6), 1.0 / (shortest_path_metric(rng, 6) + 0.3))\n"
        "sigma = pb.Measure(k.space, rng.uniform(0.2, 1.5, 6))\n"
        "assert pb.weak_lorentz_norm(pb.potential(k, sigma), sigma, 2.0) > 0\n"
        "assert pb.testing_condition_11(k, sigma).extras['ball_constant'] > 0\n"
        "assert 'numpy.ma' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_tasks_match_schema_enum():
    # a task is added to the CLI and to the schema together, or to neither
    enum = load_schema()["properties"]["tasks"]["items"]["properties"]["name"]["enum"]
    assert sorted(_TASKS) == sorted(enum)


def _distribution_installed(name: str) -> bool:
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


@pytest.mark.skipif(not _distribution_installed("potbench"),
                    reason="PackageNotFoundError: the potbench distribution is not installed")
def test_console_script_installed():
    search = os.pathsep.join([os.environ.get("PATH", ""), sysconfig.get_path("scripts")])
    exe = shutil.which("potbench", path=search)
    assert exe, "an installed potbench should put its console script on PATH or in scripts"
    proc = subprocess.run([exe, "schema"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == load_schema()


def test_maximum_principle_reports_serialize_their_fields_only():
    # factor is a property, not a field: report.json keeps the six keys
    kernel = Kernel(Space.of_size(3), [[1.0, 2.0, 0.5], [2.0, 1.0, 1.5], [0.5, 1.5, 1.0]])
    for rep in (wmp_constant(kernel), complete_mp_constant(kernel)):
        assert list(to_jsonable(rep)) == ["constant", "holds", "witness", "mode",
                                          "pairs_checked", "upper"]


def test_to_jsonable_maps_numpy_booleans_to_json_booleans():
    # np.bool_ is neither a bool nor an np.integer
    assert to_jsonable(np.bool_(True)) is True
    assert json.dumps(to_jsonable({"holds": np.bool_(False), "mask": np.array([True])})) == (
        '{"holds": false, "mask": [true]}')


def test_to_jsonable_specials():
    assert to_jsonable(float("inf")) == "inf"
    assert to_jsonable(float("-inf")) == "-inf"
    assert to_jsonable(float("nan")) == "nan"
    assert to_jsonable({1: (2.5, None)}) == {"1": [2.5, None]}
