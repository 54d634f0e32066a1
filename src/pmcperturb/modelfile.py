"""Reading and writing ``.model`` files.

A model file is a JSON document:

.. code-block:: json

    {
      "version": 1,
      "states": 4,
      "initial": [0.25, 0.25, 0.25, 0.25],
      "rows": [
        {"parameter": "hop", "support": [1, 2, 3, 4],
         "reference": [0.375, 0.125, 0.25, 0.25]},
        {"concrete": [0.375, 0.125, 0.25, 0.25]},
        {"concrete": [0.0, 0.5, 0.5, 0.0]},
        {"concrete": [0.333, 0.0, 0.333, 0.334]}
      ],
      "problem": {"constraint": [1, 2], "destination": [4]},
      "direction": {"weights": {"hop": 1.0}}
    }

``rows[i]`` is the outgoing row of state ``i + 1`` and is either concrete
or parameterized, never both. ``problem`` and ``direction`` are optional.
Unknown fields are rejected. Parsing validates the resulting model, and the
ids of a ``direction`` must be the model's parameter ids. Rendering is the
exact inverse of parsing on the data model.

Each row's ``concrete`` or ``reference`` numbers become a read-only float64
array while the JSON decoder runs, as soon as that row is decoded, so the
document never holds all n² numbers as Python floats. The peak memory of a
parse is therefore the text plus the final arrays.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from .errors import (
    DirectionMismatchError,
    ModelSchemaError,
    ModelSyntaxError,
    ModelValidationError,
)
from .model import DistributionParameter, Pmc, validate_pmc
from .perturbation import Direction
from .reachability import ReachabilityProblem
from .report import render_json

SCHEMA_VERSION = 1


class ParsedModel(NamedTuple):
    pmc: Pmc
    problem: ReachabilityProblem | None
    direction: Direction | None


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ModelSchemaError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ModelSchemaError(f"{where}: missing field(s) {sorted(missing)}")


def _float_array(value) -> np.ndarray:
    """Read-only float64 array of a decoded list of numbers.

    Raises:
        ModelSchemaError: not a list of numbers, or an integer literal beyond
            the double range; the message lacks the location.
    """
    # json.loads yields only builtin types, so exact types reject bools too.
    if not isinstance(value, list) or not set(map(type, value)) <= {int, float}:
        raise ModelSchemaError("expected a list of numbers")
    try:
        arr = np.array(value, dtype=np.float64)
    except OverflowError:
        raise ModelSchemaError("a number is too large for a double") from None
    arr.flags.writeable = False  # read-only, so the model shares it instead of copying
    return arr


def _number_list(value, where: str) -> np.ndarray:
    if isinstance(value, np.ndarray):  # converted by _rows_to_arrays while decoding
        return value
    try:
        return _float_array(value)
    except ModelSchemaError as exc:
        raise ModelSchemaError(f"{where}: {exc}") from None


def _rows_to_arrays(obj: dict) -> dict:
    """``object_hook`` that converts a row's numbers as soon as it is decoded.

    Anything ``_float_array`` rejects stays as decoded, for the parse loop to
    report with its location.
    """
    for key in ("concrete", "reference"):
        if key in obj:
            try:
                obj[key] = _float_array(obj[key])
            except ModelSchemaError:
                pass
    return obj


def _int_list(value, where: str) -> list[int]:
    if not isinstance(value, list) or not set(map(type, value)) <= {int}:
        raise ModelSchemaError(f"{where}: expected a list of integers")
    return list(value)


def parse_model(text: str) -> ParsedModel:
    """Parse and validate a model file.

    Raises:
        ModelSyntaxError: not well-formed JSON (location included).
        ModelSchemaError: well-formed but schema-violating (field named).
        ModelValidationError: schema-conforming but semantically invalid;
            the individual violations are attached.
        DirectionMismatchError: the ``direction`` block's ids are not the
            model's parameter ids.
    """
    try:
        doc = json.loads(text, object_hook=_rows_to_arrays)
    except json.JSONDecodeError as exc:
        raise ModelSyntaxError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None

    if not isinstance(doc, dict):
        raise ModelSchemaError("top level: expected an object")
    _require_keys(doc, {"version", "states", "initial", "rows", "problem", "direction"},
                  {"version", "states", "initial", "rows"}, "top level")
    if type(doc["version"]) is not int or doc["version"] != SCHEMA_VERSION:
        raise ModelSchemaError(f"version: expected {SCHEMA_VERSION}, got {doc['version']!r}")
    if not isinstance(doc["states"], int) or isinstance(doc["states"], bool) \
            or doc["states"] < 1:
        raise ModelSchemaError("states: expected a positive integer")
    n = doc["states"]
    initial = _number_list(doc["initial"], "initial")

    rows = doc["rows"]
    if not isinstance(rows, list):
        raise ModelSchemaError("rows: expected a list")
    if len(rows) != n:
        raise ModelSchemaError(f"rows: expected {n} entries, got {len(rows)}")

    concrete_rows: dict[int, np.ndarray] = {}
    parameters: list[DistributionParameter] = []
    for index, row in enumerate(rows):
        where = f"rows[{index}]"
        state = index + 1
        if not isinstance(row, dict):
            raise ModelSchemaError(f"{where}: expected an object")
        if "concrete" in row and "parameter" in row:
            raise ModelSchemaError(f"{where}: row is both concrete and parameterized")
        if "concrete" in row:
            _require_keys(row, {"concrete"}, {"concrete"}, where)
            concrete_rows[state] = _number_list(row["concrete"], f"{where}.concrete")
        elif "parameter" in row:
            _require_keys(row, {"parameter", "support", "reference"},
                          {"parameter", "support", "reference"}, where)
            if not isinstance(row["parameter"], str):
                raise ModelSchemaError(f"{where}.parameter: expected a string id")
            parameters.append(DistributionParameter(
                id=row["parameter"],
                row=state,
                support=tuple(_int_list(row["support"], f"{where}.support")),
                reference=_number_list(row["reference"], f"{where}.reference"),
            ))
        else:
            raise ModelSchemaError(f"{where}: expected 'concrete' or 'parameter'")

    pmc = Pmc(n=n, initial=initial, concrete_rows=concrete_rows,
              parameters=tuple(parameters))
    result = validate_pmc(pmc)
    if not result.ok:
        lines = "; ".join(
            f"{v.kind.value}" + (f" (row {v.row})" if v.row is not None else "")
            + f": {v.detail}" for v in result.violations)
        raise ModelValidationError(f"invalid model: {lines}",
                                   violations=result.violations)

    problem = None
    if "problem" in doc:
        block = doc["problem"]
        if not isinstance(block, dict):
            raise ModelSchemaError("problem: expected an object")
        _require_keys(block, {"constraint", "destination"},
                      {"constraint", "destination"}, "problem")
        problem = ReachabilityProblem(
            constraint=frozenset(_int_list(block["constraint"], "problem.constraint")),
            destination=frozenset(_int_list(block["destination"], "problem.destination")),
        )

    direction = None
    if "direction" in doc:
        direction = parse_direction(doc["direction"])
        if set(direction.weights) != set(pmc.parameter_ids):
            raise DirectionMismatchError(
                f"direction.weights: covers {sorted(direction.weights)}, "
                f"parameters are {sorted(pmc.parameter_ids)}")
    return ParsedModel(pmc=pmc, problem=problem, direction=direction)


def parse_direction(block, where: str = "direction") -> Direction:
    """Direction from a decoded ``{"weights": {id: number, ...}}`` object.

    Serves the ``direction`` block of a model file and a direction file
    alike; ``where`` names the source in error messages.

    Raises:
        ModelSchemaError: not an object, an unknown or missing field, or a
            weight that is not a number (bools, strings and ``null`` included).
        WeightsNotNormalizedError: the weights are not a distribution.
    """
    if not isinstance(block, dict):
        raise ModelSchemaError(f"{where}: expected an object")
    _require_keys(block, {"weights"}, {"weights"}, where)
    weights = block["weights"]
    if not isinstance(weights, dict) or not set(map(type, weights.values())) <= {int, float}:
        raise ModelSchemaError(f"{where}.weights: expected an object of numbers")
    values = _number_list(list(weights.values()), f"{where}.weights")
    return Direction(dict(zip(weights, values.tolist())))


def render_model(pmc: Pmc, problem: ReachabilityProblem | None = None,
                 direction: Direction | None = None) -> str:
    """Serialize a model (plus optional problem and direction) to file text.

    Full double precision; ``parse_model(render_model(...))`` reproduces the
    data model exactly.
    """
    by_row: dict[int, dict] = {}
    for row, vec in pmc.concrete_rows.items():
        by_row[row] = {"concrete": list(map(float, vec))}
    for p in pmc.parameters:
        by_row[p.row] = {
            "parameter": p.id,
            "support": list(p.support),
            "reference": list(map(float, p.reference)),
        }
    doc: dict = {
        "version": SCHEMA_VERSION,
        "states": pmc.n,
        "initial": list(map(float, pmc.initial)),
        "rows": [by_row[row] for row in range(1, pmc.n + 1)],
    }
    if problem is not None:
        doc["problem"] = {
            "constraint": sorted(problem.constraint),
            "destination": sorted(problem.destination),
        }
    if direction is not None:
        doc["direction"] = {"weights": {k: float(v)
                                        for k, v in sorted(direction.weights.items())}}
    return render_json(doc)
