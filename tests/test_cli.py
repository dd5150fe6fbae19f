"""Command-line workflow: scenarios in, deterministic reports out."""

import csv
import importlib.metadata
import json
import os
import shutil
import subprocess
import sysconfig

import pytest

from potbench.cli import load_schema, main, to_jsonable


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
        {"name": "quasisymmetry"},
        {"name": "cap0"},
        {"name": "cap1"},
        {"name": "energy"},
        {"name": "testing_condition"},
        {"name": "operator_norm", "params": {"p": 2.0}},
    ],
}


def test_analyze_basic(tmp_path):
    scen = write_scenario(tmp_path / "s.json", BASIC)
    out = tmp_path / "out"
    assert main(["analyze", scen, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["scenario"] == "basic"
    assert report["space_size"] == 2
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


def test_bare_infinity_literal_rejected(tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"name": "x", "kernel": {"matrix": [[Infinity]]}, "tasks": []}')
    assert main(["analyze", str(path)]) == 2


def test_invalid_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 2


def test_unknown_task_exits_2(tmp_path):
    scen = write_scenario(tmp_path / "s.json", {
        "name": "x", "kernel": {"matrix": [[1.0]]}, "sigma": [1.0],
        "tasks": [{"name": "frobnicate"}],
    })
    assert main(["analyze", scen]) == 2


def test_missing_file_exits_2(tmp_path):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 2


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


def test_to_jsonable_specials():
    assert to_jsonable(float("inf")) == "inf"
    assert to_jsonable(float("-inf")) == "-inf"
    assert to_jsonable(float("nan")) == "nan"
    assert to_jsonable({1: (2.5, None)}) == {"1": [2.5, None]}
