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
``reference`` numbers become a read-only float64 array as soon as that row
is decoded, and its ``concrete`` numbers become the row's compact form
(``model.sparse_row``: the entries whose bits are not +0.0), which is
appended at once to the buffers of one CSR store (``model.ConcreteRows``).
A row ``{"concrete": [...]}`` whose list opens with a zero token (``0.0``
directly followed by its comma) is read by the reader itself
(``_Window.zero_row``), since a sparse row is mostly that token: each run
of copies of a zero token, whitespace included, is measured by comparing
the text with doubling copies of it, and only the stretches between runs
are decoded, so the row's +0.0 entries never become Python floats. A row
the reader does not accept that way goes to the decoder whole, so its
values and errors are the decoder's.
So no dense row outlives its own decode, and the parse never holds the n²
numbers, as Python floats or as arrays, nor the whole text or the whole
bytes of the file. The peak memory of a parse is therefore about one chunk
plus the model's final arrays, which are O(non-zeros). A syntax error
inside a value, after its first character, is reported by the reader
itself, with the decoder's message, as soon as the reader's window holds
the text after it; only then is the file read again up to the error, to
count its line and column. Other input the reader does not accept
(malformed JSON elsewhere, a top level that is not an object, a byte-order
mark, a byte that is not UTF-8) is read whole and handed to ``json.loads``,
which raises the error. A pipe, which cannot be read twice, is read whole
once and parsed as text.
"""

from __future__ import annotations

import codecs
import json
import os
import re
from array import array
from itertools import islice
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
from .model import (
    ConcreteRows,
    DistributionParameter,
    Pmc,
    SparseRow,
    sparse_row,
    validate_pmc,
)
from .perturbation import Direction
from .reachability import ReachabilityProblem
from .report import render_json, render_json_items

SCHEMA_VERSION = 1

#: Bytes read from a model file at a time. The reader also refills its
#: window of text before fewer than this many characters are left unread.
CHUNK_BYTES = 1 << 18

#: Characters before the window's end within which a decode error may come
#: from a value cut there; the longest cut token is ``-Infinity``.
_CUT_MARGIN = 16

_NUMBER_TYPES = frozenset((int, float))
_WHITESPACE = re.compile(r"[ \t\n\r]*")
#: A row ``{"concrete": [`` whose list opens with a zero token (group 1):
#: ``0.0`` and its comma, with the whitespace before it.
_ZERO_ROW = re.compile(r'\{[ \t\n\r]*"concrete"[ \t\n\r]*:[ \t\n\r]*\[([ \t\n\r]*0\.0,)')
#: A separator and the zero token after it (group 1).
_NEXT_ZERO = re.compile(r",([ \t\n\r]*0\.0,)")


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

    ``reference`` becomes an array and ``concrete`` a ``SparseRow``. Anything
    ``_float_array`` rejects stays as decoded, for the parse loop to report
    with its location.
    """
    for key in ("concrete", "reference"):
        if key in obj:
            try:
                arr = _float_array(obj[key])
            except ModelSchemaError:
                continue
            obj[key] = sparse_row(arr) if key == "concrete" else arr
    return obj


def _int_list(value, where: str) -> list[int]:
    if not isinstance(value, list) or not set(map(type, value)) <= {int}:
        raise ModelSchemaError(f"{where}: expected a list of integers")
    return list(value)


class _Rows:
    """A document's ``rows``, folded into the model's rows one row at a time.

    Each concrete row's compact form is appended to growing CSR buffers and
    each parameter row becomes a ``DistributionParameter``, so no row is
    held as decoded. The first row that breaks the schema is kept in
    ``error`` and later rows are only counted: ``parse_model`` raises it
    after the checks that come before the rows.
    """

    def __init__(self, rows=()):
        self.count, self.error, self.parameters = 0, None, []
        # (state, length, end in data) per concrete row; int32 indices; float64 data
        self.table, self.indices, self.data = array("q"), bytearray(), bytearray()
        for row in rows:
            self.add(row)

    def add(self, row) -> None:
        self.count += 1
        if self.error is None:
            try:
                self._fold(self.count, row)
            except ModelSchemaError as exc:
                self.error = exc

    def _fold(self, state: int, row) -> None:
        if type(row) is dict and len(row) == 1 and "concrete" in row:
            row = row["concrete"]
            if not isinstance(row, SparseRow):  # left as decoded by _rows_to_arrays
                row = sparse_row(_number_list(row, f"rows[{state - 1}].concrete"))
        if isinstance(row, SparseRow):  # compacted as decoded, or read by _Window.zero_row
            self.indices += row.indices.tobytes()
            self.data += row.data.tobytes()
            self.table.extend((state, row.size, len(self.data) // 8))
            return
        where = f"rows[{state - 1}]"
        if not isinstance(row, dict):
            raise ModelSchemaError(f"{where}: expected an object")
        if "concrete" in row and "parameter" in row:
            raise ModelSchemaError(f"{where}: row is both concrete and parameterized")
        if "concrete" in row:  # with another field, which this names
            _require_keys(row, {"concrete"}, {"concrete"}, where)
        elif "parameter" in row:
            _require_keys(row, {"parameter", "support", "reference"},
                          {"parameter", "support", "reference"}, where)
            if not isinstance(row["parameter"], str):
                raise ModelSchemaError(f"{where}.parameter: expected a string id")
            self.parameters.append(DistributionParameter(
                id=row["parameter"],
                row=state,
                support=tuple(_int_list(row["support"], f"{where}.support")),
                reference=_number_list(row["reference"], f"{where}.reference"),
            ))
        else:
            raise ModelSchemaError(f"{where}: expected 'concrete' or 'parameter'")

    def concrete_rows(self) -> ConcreteRows:
        """The concrete rows as one store, on the entry buffers themselves."""
        table = np.frombuffer(self.table, dtype=np.int64).reshape(-1, 3)
        return ConcreteRows(table[:, 0].copy(), table[:, 1].copy(),
                            np.concatenate([[0], table[:, 2]]),
                            np.frombuffer(self.indices, dtype=np.int32),
                            np.frombuffer(self.data, dtype=np.float64))


_DECODER = json.JSONDecoder(object_hook=_rows_to_arrays)
_NUMBERS = json.JSONDecoder()  # the stretches of a zero row between its runs of zeros
_ROWS = object()  # the value of a ``rows`` member that is read row by row


class _Rejected(Exception):
    """The text at the reader's position is not what the walk expects."""


class _Window:
    """Unread text of a JSON document, refilled from an iterator of str chunks.

    ``text[pos:]`` is unread; ``chunks`` yields the rest of the document,
    and ``eof`` is set once it has yielded everything. Without ``chunks``,
    ``text`` is the whole document. ``path`` names the file the chunks come
    from, and ``dropped`` counts the characters dropped before ``text``.
    """

    def __init__(self, text: str, chunks=None, path=None):
        self.text, self.pos, self.chunks, self.eof = text, 0, chunks, chunks is None
        self.path, self.dropped = path, 0

    def fill(self, need: int) -> None:
        """Drop the read text and append chunks until ``need`` characters are unread."""
        self.dropped += self.pos
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
        """A value and the delimiter after it; whether that closed the container.

        A syntax error past the value's first character is raised by
        ``_syntax_error`` as soon as it cannot come from the window's end: in
        the window that holds the rest of the document, or more than
        ``_CUT_MARGIN`` characters before the window's end. A value cut at
        the end fails there, except an unterminated string, whose error
        points at the string's start; that error waits for a longer window.
        The decoder runs the nested scan that ``json.loads`` of the whole
        text would, so the message is the one ``json.loads`` gives.
        """
        start = self.skip()
        try:
            value = self.value()
        except json.JSONDecodeError as exc:
            if exc.pos > start and (self.eof or (
                    exc.pos < len(self.text) - _CUT_MARGIN
                    and not exc.msg.startswith("Unterminated string"))):
                _syntax_error(self.path, exc, self.dropped + exc.pos)
            raise
        return value, self.expect("," + close) == close

    def row(self):
        """A row of ``rows`` and the delimiter after it; whether that closed ``rows``.

        A row ``{"concrete": [...]}`` whose list opens with a zero token is
        read by :meth:`zero_row` into its ``SparseRow``; any other row, and
        one that ``zero_row`` does not accept, is read by :meth:`element`.
        """
        start = self.skip()
        opening = _ZERO_ROW.match(self.text, start)
        if opening is not None:
            row = self.zero_row(opening)
            if row is not None:
                return row, self.expect(",]") == "]"
            self.pos = start
        return self.element("]")

    def zero_row(self, opening: re.Match) -> SparseRow | None:
        """The ``SparseRow`` of the concrete row that ``opening`` matched, or None.

        Zero tokens are skipped a run at a time: a run of copies of its
        first token, whitespace included, is measured by comparing the text
        with doubling copies of that token. Every stretch between runs, and
        the tail after the last one, is decoded as a list, and their values
        go through ``_float_array`` together, so each kept entry has the bits
        of the whole row's decode. A stretch that is empty or does not
        decode, or values that ``_float_array`` rejects, give None: the row
        is read again whole. A list end or a row close past the window's end
        raises ``_Rejected`` before the end of the document.
        """
        text = self.text
        close = text.find("]", opening.end())
        brace = close if close < 0 else _WHITESPACE.match(text, close + 1).end()
        if brace < 0 or brace == len(text):
            if self.eof:
                return None
            raise _Rejected
        if text[brace] != "}":
            return None
        columns, values = [], []
        size, token, pos = 0, opening.group(1), opening.start(1)
        while True:
            run_end = _run_end(text, token, pos, close)
            size += (run_end - pos) // len(token)
            zero = _NEXT_ZERO.search(text, run_end - 1, close)
            stretch_end = close if zero is None else zero.start()
            if stretch_end >= run_end:  # not a zero token right after the run
                stretch = _stretch(text[run_end:stretch_end])
                if stretch is None:
                    return None
                columns += range(size, size + len(stretch))
                values += stretch
                size += len(stretch)
            if zero is None:
                break
            token, pos = zero.group(1), zero.start(1)
        try:
            data = _float_array(values)
        except ModelSchemaError:
            return None
        kept = data.view(np.uint64).nonzero()[0]
        self.pos = brace + 1
        return SparseRow(size, np.array(columns, dtype=np.int32)[kept], data[kept])

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
                value = _Rows()
                done = self.step(self.opens, "]")
                while not done:
                    row, done = self.step(self.row)
                    value.add(row)
                closed = self.step(self.expect, ",}") == "}"
            doc[key] = value
        while True:  # only whitespace may follow
            self.pos = _WHITESPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text):
                raise _Rejected
            if self.eof:
                return _rows_to_arrays(doc)
            self.fill(CHUNK_BYTES)


def _run_end(text: str, token: str, pos: int, end: int) -> int:
    """End of the run of copies of ``token`` at ``text[pos:end]``.

    Doubling copies are compared until one fails, then the halves of the
    last one that matched: about 2 log2(run) C comparisons.
    """
    matched = []
    while text.startswith(token, pos, end):
        pos += len(token)
        matched.append(token)
        token += token
    for piece in reversed(matched):
        if text.startswith(piece, pos, end):
            pos += len(piece)
    return pos


def _stretch(text: str) -> list | None:
    """The values of ``text``, a non-empty run of list items, or None.

    ``text`` comes before a list's first ``]``, so a list decoded from it
    ends at the ``]`` appended to it.
    """
    try:
        values = _NUMBERS.raw_decode("[" + text + "]")[0]
    except (ValueError, RecursionError):
        return None
    return values or None


def _file_chunks(path):
    """A file's text, decoded as UTF-8 ``CHUNK_BYTES`` bytes at a time."""
    decode = codecs.getincrementaldecoder("utf-8")().decode
    with open(path, "rb") as fh:
        while chunk := fh.read(CHUNK_BYTES):
            text = decode(chunk)
            del chunk  # not held while the window joins the text
            yield text
    yield decode(b"", final=True)


def _syntax_error(path, exc: json.JSONDecodeError, offset: int) -> None:
    """Raise ``json.loads``'s error for ``exc`` at character ``offset`` of the document.

    A file (``path``) is read again up to ``offset``, a chunk at a time. After
    a lone carriage return, a line break in a file read as text, this returns.
    """
    line, column, lone_crs = exc.lineno, exc.colno, 0
    if path is not None:
        line = column = 1
        cr = False  # whether the previous chunk ends with "\r"
        for text in _file_chunks(path):
            text = text[:offset]
            offset -= len(text)
            lone_crs += text.count("\r") - text.count("\r\n") - (cr and text[:1] == "\n")
            cr = text.endswith("\r")
            line += text.count("\n")
            last = text.rfind("\n")
            column = len(text) - last if last >= 0 else column + len(text)
            if not offset:
                break
    if not lone_crs:
        raise ModelSyntaxError(f"line {line}, column {column}: {exc.msg}") from None


def _read_document(source: str | os.PathLike) -> dict | None:
    """The top-level object of a model's text or file, read a chunk at a time.

    None where the reader does not accept the input or the file fails to
    read; ``_load_document`` then gives the document or the error. A syntax
    error inside a value raises ``ModelSyntaxError`` here (``_Window.element``).
    """
    if isinstance(source, os.PathLike):
        window = _Window("", _file_chunks(source), source)
    elif isinstance(source, str):
        window = _Window(source)
    else:  # bytes, which json.loads decodes
        return None
    try:
        return window.read_object()
    except (OSError, ValueError, RecursionError, _Rejected):
        return None
    finally:
        if window.chunks is not None:
            window.chunks.close()


def _read_text(path: os.PathLike) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise PmcError(f"cannot read {path}: {exc}") from None


def _load_document(source: str | os.PathLike):
    """``json.loads`` of the whole text: the path of input ``_read_document`` rejects."""
    text = _read_text(source) if isinstance(source, os.PathLike) else source
    try:
        return json.loads(text, object_hook=_rows_to_arrays)
    except json.JSONDecodeError as exc:
        raise ModelSyntaxError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ModelSyntaxError("values nested too deeply to decode") from None


def parse_model(source: str | os.PathLike) -> ParsedModel:
    """Parse and validate a model from its text (a ``str``) or its file's path.

    Raises:
        PmcError: the file cannot be read or is not UTF-8 ("cannot read").
        ModelSyntaxError: not well-formed JSON (location included), or
            nested too deeply to decode.
        ModelSchemaError: well-formed but schema-violating (field named).
        ModelValidationError: schema-conforming but semantically invalid;
            the individual violations are attached.
        DirectionMismatchError: the ``direction`` block's ids are not the
            model's parameter ids.
    """
    if isinstance(source, os.PathLike) and not os.path.isfile(source):
        source = _read_text(source)  # a pipe can be read only once
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
    if isinstance(rows, list):  # read whole by json.loads
        rows = _Rows(rows)
    if not isinstance(rows, _Rows):
        raise ModelSchemaError("rows: expected a list")
    if rows.count != n:
        raise ModelSchemaError(f"rows: expected {n} entries, got {rows.count}")
    if rows.error is not None:
        raise rows.error

    pmc = Pmc(n=n, initial=initial, concrete_rows=rows.concrete_rows(),
              parameters=tuple(rows.parameters))
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
    data model exactly. The text is ``render_json`` of the whole document,
    but its rows are written a block of ``ConcreteRows.dense_rows`` at a
    time, so only one block of numbers is ever held as Python floats.
    """
    doc: dict = {
        "version": SCHEMA_VERSION,
        "states": pmc.n,
        "initial": list(map(float, pmc.initial)),
        "rows": [],
    }
    if problem is not None:
        doc["problem"] = {
            "constraint": sorted(problem.constraint),
            "destination": sorted(problem.destination),
        }
    if direction is not None:
        doc["direction"] = {"weights": {k: float(v)
                                        for k, v in sorted(direction.weights.items())}}
    # No string comes before the rows, so this is the document's "rows" member.
    head, _, tail = render_json(doc).partition('"rows": []')
    parts, separator = [head, '"rows": ['], "\n    "
    rows = _row_objects(pmc)
    while block := list(islice(rows, pmc.concrete_rows.block_rows)):
        for text in render_json_items(block, 2):
            parts += (separator, text)
            separator = ",\n    "
    parts += ("\n  ]", tail)
    return "".join(parts)


def _row_objects(pmc: Pmc):
    """The document object of each state's row, in state order.

    A concrete row's numbers become Python floats only when it is reached.
    A state that has no row raises ``KeyError``.
    """
    parameters = {p.row: {
        "parameter": p.id,
        "support": list(p.support),
        "reference": list(map(float, p.reference)),
    } for p in pmc.parameters}
    concrete = zip(pmc.concrete_rows.states.tolist(), pmc.concrete_rows.dense_rows())
    row, vec = next(concrete, (None, None))
    for state in range(1, pmc.n + 1):
        while row is not None and row < state:
            row, vec = next(concrete, (None, None))
        if row == state and state not in parameters:
            yield {"concrete": vec.tolist()}
        else:
            yield parameters[state]
