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

A file is read a chunk of ``CHUNK_BYTES`` at a time: one reader walks the
top-level object and its ``rows`` array itself and hands every key and
every other value, each row included, to the JSON decoder. Each row's
``concrete`` or ``reference`` numbers become a read-only float64 array as
soon as that row is decoded, so the parse never holds all n² numbers as
Python floats, nor the whole text or the whole bytes of the file. The peak
memory of a parse is therefore about one chunk plus the final arrays. Input
the reader does not accept (malformed JSON, a top level that is not an
object, a byte-order mark, a byte that is not UTF-8) is read whole and
handed to ``json.loads``, which raises the error.
"""

from __future__ import annotations

import codecs
import json
import os
import re
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    DirectionMismatchError,
    ModelSchemaError,
    ModelSyntaxError,
    ModelValidationError,
    PmcError,
)
from .model import DistributionParameter, Pmc, validate_pmc
from .perturbation import Direction
from .reachability import ReachabilityProblem
from .report import render_json

SCHEMA_VERSION = 1

#: Bytes read from a model file at a time. The reader also refills its
#: window of text before fewer than this many characters are left unread.
CHUNK_BYTES = 1 << 18

_NUMBER_TYPES = frozenset((int, float))
_WHITESPACE = re.compile(r"[ \t\n\r]*")


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
    if not isinstance(value, list) or not _NUMBER_TYPES.issuperset(map(type, value)):
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


_DECODER = json.JSONDecoder(object_hook=_rows_to_arrays)
_ROWS = object()  # the value of a ``rows`` member that is read row by row


class _Rejected(Exception):
    """The text at the reader's position is not what the walk expects."""


class _Window:
    """Unread text of a JSON document, refilled from an iterator of str chunks.

    ``text[pos:]`` is unread; ``chunks`` yields the rest of the document,
    and ``eof`` is set once it has yielded everything. Without ``chunks``,
    ``text`` is the whole document.
    """

    def __init__(self, text: str, chunks=None):
        self.text, self.pos, self.chunks, self.eof = text, 0, chunks, chunks is None

    def fill(self, need: int) -> None:
        """Drop the read text and append chunks until ``need`` characters are unread."""
        parts = [self.text[self.pos:]]
        self.text = ""  # freed before the join
        have = len(parts[0])
        while have < need:
            chunk = next(self.chunks, None)
            if chunk is None:
                self.eof = True
                break
            parts.append(chunk)
            have += len(chunk)
        self.text, self.pos = "".join(parts), 0

    def step(self, read, *args):
        """``read(*args)`` at the current position, on a window that holds it.

        The window is rebased and refilled before fewer than
        ``CHUNK_BYTES`` characters are unread, so a decode rarely fails on a
        cut value, and a failed decode (which counts the newlines before its
        position) counts them in a short window. Before the end of the
        document, a step that fails is re-run on twice its unread text: its
        value may be cut, and a number cut at the window's end decodes as a
        shorter number, so every step ends with the delimiter after its value.
        """
        need = CHUNK_BYTES
        while True:
            if not self.eof and len(self.text) - self.pos < need:
                self.fill(need)
            start = self.pos
            try:
                return read(*args)
            except (ValueError, RecursionError, _Rejected):
                if self.eof:
                    raise
                self.pos = start
                need = 2 * (len(self.text) - start)

    def skip(self) -> int:
        """Position of the next non-whitespace character; ``_Rejected`` at the window's end."""
        self.pos = _WHITESPACE.match(self.text, self.pos).end()
        if self.pos == len(self.text):
            raise _Rejected
        return self.pos

    def expect(self, chars: str) -> str:
        """The next token, which must be one of ``chars``."""
        token = self.text[self.skip()]
        if token not in chars:
            raise _Rejected
        self.pos += 1
        return token

    def opens(self, char: str) -> bool:
        """Whether the next token is ``char``; it is read if so."""
        if self.text[self.skip()] != char:
            return False
        self.pos += 1
        return True

    def value(self):
        """The next JSON value, decoded with ``_rows_to_arrays``."""
        value, self.pos = _DECODER.raw_decode(self.text, self.skip())
        return value

    def element(self, close: str):
        """A value and the delimiter after it; whether that closed the container."""
        return self.value(), self.expect("," + close) == close

    def member(self):
        """A key and its value, and whether the object closed after it.

        The value of ``rows`` is left open after its ``[``: ``_ROWS``.
        """
        key = self.value()
        if type(key) is not str:
            raise _Rejected
        self.expect(":")
        if key == "rows" and self.opens("["):
            return key, _ROWS, False
        return (key, *self.element("}"))

    def read_object(self) -> dict:
        """The document's top-level object, through ``_rows_to_arrays``."""
        doc = {}
        self.step(self.expect, "{")
        closed = self.step(self.opens, "}")
        while not closed:
            key, value, closed = self.step(self.member)
            if value is _ROWS:
                value = []
                done = self.step(self.opens, "]")
                while not done:
                    row, done = self.step(self.element, "]")
                    value.append(row)
                closed = self.step(self.expect, ",}") == "}"
            doc[key] = value
        while True:  # only whitespace may follow
            self.pos = _WHITESPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text):
                raise _Rejected
            if self.eof:
                return _rows_to_arrays(doc)
            self.fill(CHUNK_BYTES)


def _file_chunks(path):
    """A file's text, decoded as UTF-8 ``CHUNK_BYTES`` bytes at a time."""
    decode = codecs.getincrementaldecoder("utf-8")().decode
    with open(path, "rb") as fh:
        while chunk := fh.read(CHUNK_BYTES):
            text = decode(chunk)
            del chunk  # not held while the window joins the text
            yield text
    yield decode(b"", final=True)


def _read_document(source: str | os.PathLike) -> dict | None:
    """The top-level object of a model's text or file, read a chunk at a time.

    None where the reader does not accept the input or the file fails to
    read; ``_load_document`` then gives the document or the error.
    """
    if isinstance(source, os.PathLike):
        chunks = _file_chunks(source)
        window = _Window("", chunks)
    elif isinstance(source, str):
        chunks, window = None, _Window(source)
    else:  # bytes, which json.loads decodes
        return None
    try:
        return window.read_object()
    except (OSError, ValueError, RecursionError, _Rejected):
        return None
    finally:
        if chunks is not None:
            chunks.close()


def _load_document(source: str | os.PathLike):
    """``json.loads`` of the whole text: the path of input ``_read_document`` rejects."""
    text = source
    if isinstance(source, os.PathLike):
        try:
            text = Path(source).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise PmcError(f"cannot read {source}: {exc}") from None
    try:
        return json.loads(text, object_hook=_rows_to_arrays)
    except json.JSONDecodeError as exc:
        raise ModelSyntaxError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def parse_model(source: str | os.PathLike) -> ParsedModel:
    """Parse and validate a model from its text (a ``str``) or its file's path.

    Raises:
        PmcError: the file cannot be read or is not UTF-8 ("cannot read").
        ModelSyntaxError: not well-formed JSON (location included).
        ModelSchemaError: well-formed but schema-violating (field named).
        ModelValidationError: schema-conforming but semantically invalid;
            the individual violations are attached.
        DirectionMismatchError: the ``direction`` block's ids are not the
            model's parameter ids.
    """
    doc = _read_document(source)
    if doc is None:
        doc = _load_document(source)

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
