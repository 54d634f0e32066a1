"""Command-line interface: outputs, exit codes, golden tables."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import count_calls

import pmcperturb.cli as cli
from pmcperturb import SingularSystemError

ROOT = Path(__file__).resolve().parent.parent
FROG = str(ROOT / "models" / "frog.model")
ZEROCONF = str(ROOT / "models" / "zeroconf.model")
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_frog(capsys):
    code, out, _ = run(capsys, "check", FROG)
    assert code == 0
    assert out.strip() == "0.500000"


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", ZEROCONF, "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["probability"] == pytest.approx(0.999024390243902, abs=1e-12)
    assert record["problem"] == {"constraint": [1, 2, 3, 4, 5], "destination": [7]}


def test_check_problem_flags_win(capsys):
    code, out, _ = run(capsys, "check", FROG, "--constraint", "1,2,3",
                       "--destination", "3")
    assert code == 0
    assert out.strip() != ""


def test_sensitivity_table(capsys):
    code, out, _ = run(capsys, "sensitivity", FROG)
    assert code == 0
    assert "0.3125" in out
    assert "kappa_sum" in out


def test_sensitivity_json(capsys):
    code, out, _ = run(capsys, "sensitivity", ZEROCONF, "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["kappa_sum"] == pytest.approx(7.797263533610946e-3, abs=1e-12)
    assert len(record["parameters"]) == 4
    assert record["direction"]["probe1"] == pytest.approx(0.25)


def test_sensitivity_direction_file(capsys, tmp_path):
    path = tmp_path / "dir.json"
    path.write_text(json.dumps({"weights": {"probe1": 1.0, "probe2": 0.0,
                                            "probe3": 0.0, "probe4": 0.0}}))
    code, out, _ = run(capsys, "sensitivity", ZEROCONF, "--direction", str(path),
                       "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["kappa_directional"] == pytest.approx(1.9493158834027365e-3, abs=1e-12)


@pytest.mark.parametrize("doc, suffix", [
    ({"weights": [1]}, ".weights: expected an object of numbers"),
    ({"weights": {"hop": None}}, ".weights: expected an object of numbers"),
    ({"weights": {"hop": True}}, ".weights: expected an object of numbers"),
    ({"weights": {"hop": "2"}}, ".weights: expected an object of numbers"),
    ({"weights": {"hop": 1.0}, "scale": 2}, ": unknown field(s) ['scale']"),
    ({}, ": missing field(s) ['weights']"),
    ([1.0], ": expected an object"),
])
def test_sensitivity_direction_file_schema(capsys, tmp_path, doc, suffix):
    # A file given with --direction passes the checks of a model file's
    # direction block, and fails them with the same message.
    path = tmp_path / "dir.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "sensitivity", FROG, "--direction", str(path))
    assert (code, out, err) == (1, "", f"pmcperturb: direction file {str(path)!r}{suffix}\n")
    model = json.loads(Path(FROG).read_text())
    model["direction"] = doc
    path = tmp_path / "dir.model"
    path.write_text(json.dumps(model))
    code, out, err = run(capsys, "sensitivity", str(path))
    assert (code, out, err) == (1, "", f"pmcperturb: direction{suffix}\n")


def test_validate_json(capsys):
    code, out, _ = run(capsys, "validate", ZEROCONF, "--delta", "0.002",
                       "--samples", "20", "--seed", "5", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["seed"] == 5
    assert record["bound"] == pytest.approx(1.5594527067221858e-05, abs=1e-12)
    assert len(record["samples"]) == 22  # 20 random + 2 extremal
    assert record["requested_distances"]["probe3"] == 0.002


def test_validate_per_parameter(capsys):
    code, out, _ = run(capsys, "validate", ZEROCONF,
                       "--per-parameter", "0.002,0.002,0.002,0.002",
                       "--samples", "5", "--seed", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["bound"] == pytest.approx(1.5594527067221858e-05, abs=1e-12)


def test_validate_requires_delta(capsys):
    code, _, err = run(capsys, "validate", ZEROCONF, "--samples", "5")
    assert code == 1
    assert "--delta" in err


def test_paper_tables_golden(capsys):
    code, out, _ = run(capsys, "paper-tables")
    assert code == 0
    assert out == (GOLDEN / "paper_tables.txt").read_text()


def test_paper_tables_json_golden(capsys):
    code, out, _ = run(capsys, "paper-tables", "--format", "json")
    assert code == 0
    record = json.loads(out)
    golden = json.loads((GOLDEN / "paper_tables.json").read_text())
    assert record == golden


@pytest.mark.parametrize("model", ["frog", "zeroconf"])
@pytest.mark.parametrize("command", [
    ["check"],
    ["sensitivity"],
    ["validate", "--delta", "0.02", "--samples", "50", "--seed", "4"],
], ids=["check", "sensitivity", "validate"])
def test_json_output_golden_bytes(capsys, command, model):
    """The JSON output of each model command, byte for byte."""
    code, out, _ = run(capsys, command[0], str(ROOT / "models" / f"{model}.model"),
                       *command[1:], "--format", "json")
    assert code == 0
    assert out.encode("ascii") == (GOLDEN / f"{command[0]}_{model}.json").read_bytes()


@pytest.mark.parametrize("argv", [
    [command, model, *extra]
    for model in (FROG, ZEROCONF)
    for command, extra in [("check", []), ("sensitivity", []),
                           ("validate", ["--delta", "0.01", "--samples", "50", "--seed", "7"])]
] + [["paper-tables"]])
def test_json_output_bytes_equal_json_dumps(capsys, monkeypatch, argv):
    records = []
    render = cli.render_json
    monkeypatch.setattr(cli, "render_json", lambda record: records.append(record) or
                        render(record))
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    [record] = records
    assert out == json.dumps(record, indent=2) + "\n"


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "no-such-file.model")
    assert code == 1
    assert "cannot read" in err


def test_model_file_not_utf8(capsys, tmp_path):
    path = tmp_path / "utf16.model"
    path.write_bytes(b"\xff\xfe{")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"pmcperturb: cannot read {path}: 'utf-8' codec can't decode")


def test_direction_file_not_utf8(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{")
    code, out, err = run(capsys, "sensitivity", FROG, "--direction", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"pmcperturb: cannot read direction file {str(path)!r}: "
                          "'utf-8' codec can't decode")


def test_invalid_model_file(capsys, tmp_path):
    path = tmp_path / "bad.model"
    path.write_text("{not json")
    code, _, err = run(capsys, "check", str(path))
    assert code == 1
    assert "line" in err


def test_no_problem_anywhere(capsys, tmp_path):
    doc = json.loads(Path(FROG).read_text())
    del doc["problem"]
    path = tmp_path / "frog.model"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", str(path))
    assert code == 1
    assert "problem" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "check")  # missing model argument
    assert code == 1


def test_numerical_failure_exit_code(capsys, monkeypatch):
    from pmcperturb.reachability import Factor

    def boom(*args, **kwargs):
        raise SingularSystemError("direct solve residual nan exceeds 1e-10")

    monkeypatch.setattr(Factor, "solve", boom)
    code, _, err = run(capsys, "check", FROG)
    assert code == 2
    assert "numerical" in err


def test_no_color_env_respected(capsys, monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    code, out, _ = run(capsys, "validate", ZEROCONF, "--delta", "0.006",
                       "--samples", "5", "--seed", "2")
    assert code == 0
    assert "\x1b[" not in out


def parameter_free_frog(tmp_path):
    """The frog model with its parameter row made concrete."""
    doc = json.loads(Path(FROG).read_text())
    doc["rows"][0] = {"concrete": doc["rows"][0]["reference"]}
    doc.pop("direction", None)
    path = tmp_path / "fixed.model"
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_parameter_free_model(capsys, tmp_path):
    model = parameter_free_frog(tmp_path)
    assert run(capsys, "check", model)[0] == 0
    code, out, err = run(capsys, "validate", model, "--delta", "0.01", "--samples", "5")
    assert code == 1
    assert out == ""
    assert "no distribution parameters" in err


def test_sensitivity_parameter_free_model(capsys, tmp_path):
    model = parameter_free_frog(tmp_path)
    code, out, _ = run(capsys, "sensitivity", model, "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["probability"] == 0.5
    assert record["parameters"] == [] and record["direction"] == {}
    assert record["kappa_directional"] == 0.0 and record["kappa_sum"] == 0.0
    code, out, _ = run(capsys, "sensitivity", model)
    assert code == 0
    assert "referential probability: 0.500000" in out
    assert "kappa_w   = 0 " in out and "kappa_sum = 0 " in out


@pytest.mark.parametrize("where, place", [
    ("initial distribution", lambda doc: doc["initial"].__setitem__(0, float("nan"))),
    ("(row 3): row 3", lambda doc: doc["rows"][2]["concrete"].__setitem__(1, float("nan"))),
    ("(row 1): reference of parameter 'hop'",
     lambda doc: doc["rows"][0]["reference"].__setitem__(2, float("nan"))),
])
def test_nan_entry_is_an_invalid_model(capsys, tmp_path, where, place):
    doc = json.loads(Path(FROG).read_text())
    place(doc)
    path = tmp_path / "nan.model"
    path.write_text(json.dumps(doc))  # json writes the NaN as a bare NaN token
    for command in ("check", "sensitivity", "validate"):
        argv = [command, str(path)] + (["--delta", "0.01"] if command == "validate" else [])
        code, out, err = run(capsys, *argv)
        assert code == 1, command
        assert out == ""
        assert "invalid model" in err and where in err and "nan" in err


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # Every command pays for every module `import pmcperturb.cli` loads.
    probe = ("import sys, pmcperturb.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
             "[['scipy', s] for s in ('optimize', 'sparse', 'stats', 'special')]))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, check=True, timeout=120)
    assert result.stdout.strip() == "[]"


def test_validate_negative_samples(capsys):
    code, out, err = run(capsys, "validate", ZEROCONF, "--delta", "0.01", "--samples", "-3")
    assert code == 1
    assert out == ""
    assert "non-negative" in err


def test_validate_negative_seed(capsys):
    code, out, err = run(capsys, "validate", FROG, "--delta", "0.02", "--samples", "3",
                         "--seed", "-1")
    assert code == 1
    assert out == ""
    assert err == "pmcperturb: seed must be non-negative, got -1\n"


@pytest.mark.parametrize("delta, message", [
    ("inf", "diameter of the simplex: {'hop': inf}"),
    ("nan", "must be positive: {'hop': nan}"),
    ("5", "diameter of the simplex: {'hop': 5.0}"),
])
def test_validate_distance_outside_simplex_diameter(capsys, delta, message):
    code, out, err = run(capsys, "validate", FROG, "--delta", delta, "--samples", "0",
                         "--format", "json")
    assert code == 1
    assert out == ""
    assert message in err


def test_paper_tables_solve_count(capsys, monkeypatch):
    """Two reference solves (one per model) and one re-solve per table row.

    Each model is canonicalized, extracted (instantiated) and searched once.
    """
    import pmcperturb.reachability as reachability

    calls = {"gradient_coefficients": 0, "canonicalize": 0, "extract_system": 0,
             "instantiate": 0, "reach_positive_mask": 0, "_getrf": 0}
    count_calls(monkeypatch, calls, reachability)
    assert run(capsys, "paper-tables", "--format", "json")[0] == 0
    # Every published perturbed vector keeps the reference's positive
    # entries, so the table rows reuse the reference reach search.
    assert calls == {"gradient_coefficients": 2, "canonicalize": 2, "extract_system": 2,
                     "instantiate": 2, "reach_positive_mask": 2, "_getrf": 2 + 3 + 6}
