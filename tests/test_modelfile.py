"""Model file parsing, schema enforcement, and round-tripping."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from conftest import random_pmc

from pmcperturb import (
    Direction,
    ModelSchemaError,
    ModelSyntaxError,
    ModelValidationError,
    ReachabilityProblem,
    build_frog,
    build_zeroconf,
    model_digest,
    parse_model,
    render_model,
)

MODELS = Path(__file__).resolve().parent.parent / "models"


def test_bundled_frog():
    parsed = parse_model((MODELS / "frog.model").read_text())
    pmc, problem = build_frog()
    assert model_digest(parsed.pmc) == model_digest(pmc)
    assert parsed.problem == problem
    assert parsed.direction is None


def test_bundled_zeroconf():
    parsed = parse_model((MODELS / "zeroconf.model").read_text())
    pmc, problem = build_zeroconf()
    assert model_digest(parsed.pmc) == model_digest(pmc)
    assert parsed.problem == problem


@pytest.mark.parametrize("build", [build_frog, build_zeroconf])
def test_round_trip_builtin(build):
    pmc, problem = build()
    direction = Direction.uniform([p.id for p in pmc.parameters])
    text = render_model(pmc, problem, direction)
    parsed = parse_model(text)
    assert model_digest(parsed.pmc) == model_digest(pmc)
    assert parsed.problem == problem
    assert parsed.direction == direction
    assert render_model(parsed.pmc, parsed.problem, parsed.direction) == text


def test_round_trip_random():
    rng = np.random.default_rng(19)
    for _ in range(5):
        pmc = random_pmc(rng, n=int(rng.integers(2, 7)), n_params=1)
        text = render_model(pmc)
        assert model_digest(parse_model(text).pmc) == model_digest(pmc)


def frog_doc():
    return json.loads(render_model(*build_frog()))


def test_row_not_stochastic_names_row():
    doc = frog_doc()
    doc["rows"][2]["concrete"] = [0.0, 0.4, 0.5, 0.0]
    with pytest.raises(ModelValidationError) as excinfo:
        parse_model(json.dumps(doc))
    assert any(v.row == 3 for v in excinfo.value.violations)
    assert "row 3" in str(excinfo.value)


def test_both_concrete_and_parameter():
    doc = frog_doc()
    doc["rows"][1]["parameter"] = "x"
    with pytest.raises(ModelSchemaError):
        parse_model(json.dumps(doc))


def test_unknown_field():
    doc = frog_doc()
    doc["extra"] = 1
    with pytest.raises(ModelSchemaError):
        parse_model(json.dumps(doc))


def test_unknown_row_field():
    doc = frog_doc()
    doc["rows"][1]["note"] = "hi"
    with pytest.raises(ModelSchemaError):
        parse_model(json.dumps(doc))


def test_bad_version():
    doc = frog_doc()
    doc["version"] = 2
    with pytest.raises(ModelSchemaError):
        parse_model(json.dumps(doc))


def test_wrong_row_count():
    doc = frog_doc()
    doc["rows"].pop()
    with pytest.raises(ModelSchemaError):
        parse_model(json.dumps(doc))


def test_syntax_error_has_location():
    with pytest.raises(ModelSyntaxError) as excinfo:
        parse_model("{\n  \"version\": 1,\n}")
    assert "line" in str(excinfo.value)


def test_problem_and_direction_parsed():
    doc = frog_doc()
    doc["problem"] = {"constraint": [1, 2], "destination": [4]}
    doc["direction"] = {"weights": {"hop": 1.0}}
    parsed = parse_model(json.dumps(doc))
    assert parsed.problem == ReachabilityProblem(frozenset({1, 2}), frozenset({4}))
    assert parsed.direction.weights == {"hop": 1.0}


@pytest.mark.parametrize("bad", [True, False, "0.25", None, [0.25]])
def test_number_list_rejects_non_numbers(bad):
    doc = frog_doc()
    doc["initial"][1] = bad
    with pytest.raises(ModelSchemaError, match=r"^initial: expected a list of numbers$"):
        parse_model(json.dumps(doc))


@pytest.mark.parametrize("bad", [True, 2.0, "2", None, [2]])
def test_int_list_rejects_non_integers(bad):
    doc = frog_doc()
    doc["rows"][0]["support"][1] = bad
    with pytest.raises(ModelSchemaError,
                       match=r"^rows\[0\]\.support: expected a list of integers$"):
        parse_model(json.dumps(doc))


def test_integer_entries_accepted_as_numbers():
    doc = frog_doc()
    doc["rows"][2]["concrete"] = [0, 1, 0, 0]
    doc["direction"] = {"weights": {"hop": 1}}
    parsed = parse_model(json.dumps(doc))
    np.testing.assert_array_equal(parsed.pmc.concrete_rows[3], [0.0, 1.0, 0.0, 0.0])
    assert parsed.direction.weights == {"hop": 1.0}


@pytest.mark.parametrize("bad", [True, "1", None])
def test_direction_weights_reject_non_numbers(bad):
    doc = frog_doc()
    doc["direction"] = {"weights": {"hop": bad}}
    with pytest.raises(ModelSchemaError, match="direction.weights"):
        parse_model(json.dumps(doc))
