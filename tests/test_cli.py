"""Command-line interface: outputs, exit codes, golden tables."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import pmcperturb.cli as cli
from pmcperturb import NonConvergenceError

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


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "no-such-file.model")
    assert code == 1
    assert "cannot read" in err


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
    def boom(*args, **kwargs):
        raise NonConvergenceError("stalled", residual=1.0)

    monkeypatch.setattr(cli, "solve_reachability", boom)
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


def test_validate_negative_samples(capsys):
    code, out, err = run(capsys, "validate", ZEROCONF, "--delta", "0.01", "--samples", "-3")
    assert code == 1
    assert out == ""
    assert "non-negative" in err
