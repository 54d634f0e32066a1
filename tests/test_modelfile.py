"""Model file parsing, schema enforcement, and round-tripping."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import birth_death_chain, random_pmc
from hypothesis import given, settings, strategies as st

from pmcperturb import (
    Direction,
    ModelSchemaError,
    ModelSyntaxError,
    ModelValidationError,
    PmcError,
    ReachabilityProblem,
    build_frog,
    build_zeroconf,
    model_digest,
    parse_model,
    render_model,
)
from pmcperturb import cli, modelfile

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"


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


@pytest.mark.parametrize("version", [True, 1.0, "1", None])
def test_version_must_be_the_integer_1(version):
    doc = frog_doc()
    doc["version"] = version
    with pytest.raises(ModelSchemaError, match="version"):
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


@pytest.mark.parametrize("field, place", [
    ("initial", lambda doc, x: doc["initial"].__setitem__(0, x)),
    ("direction.weights", lambda doc, x: doc.__setitem__("direction", {"weights": {"hop": x}})),
])
def test_integer_beyond_double_range(field, place):
    doc = frog_doc()
    place(doc, 10 ** 400)
    with pytest.raises(ModelSchemaError, match=rf"^{field}: a number is too large"):
        parse_model(json.dumps(doc))


def test_parse_peak_memory_is_the_final_arrays():
    # Rows become arrays while decoding, so the parse never holds the n²
    # numbers as Python floats (about 4x the arrays' size when it did).
    pmc, problem, _ = birth_death_chain(1000)
    text = render_model(pmc, problem)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        parsed = parse_model(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    rows = [*parsed.pmc.concrete_rows.values(), *(p.reference for p in parsed.pmc.parameters)]
    assert peak <= 1.25 * sum(row.nbytes for row in rows)


# The chunked reader. The parse before it, json.loads of the whole text and
# then the checks, is still the reader's error path; with the reader
# switched off, parse_model runs exactly that and serves as the reference.

def outcome(parse, source):
    """The parsed model's identity, or the type and message of the error."""
    try:
        parsed = parse(source)
    except (PmcError, ValueError, RecursionError) as exc:
        return type(exc), str(exc)
    return model_digest(parsed.pmc), parsed.problem, parsed.direction


def reference_outcome(source):
    with mock.patch.object(modelfile, "_read_document", lambda source: None):
        return outcome(parse_model, source)


def assert_same_as_reference(path: Path, chunk: int):
    """The file reader and parse_model(text) give what json.loads gives."""
    with mock.patch.object(modelfile, "CHUNK_BYTES", chunk):
        assert outcome(parse_model, path) == reference_outcome(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return
    assert outcome(parse_model, text) == reference_outcome(text)


_WS = st.sampled_from(["", " ", "  ", "\t", "\n", "\r\n", " \r\n\t"])
_IDS = st.text(st.sampled_from("abß€𝄞_ 1\"\\"), min_size=1, max_size=4)


def _number(data, value: float):
    """``value`` as a float, an integer when it is one, or an odd literal."""
    kind = data.draw(st.sampled_from(["float"] * 25 + ["int"] * 12 + ["nan", "inf", "big"]))
    if kind == "int" and value == int(value):
        return str(int(value))
    if kind in ("nan", "inf"):
        return {"nan": "NaN", "inf": "Infinity"}[kind]
    if kind == "big":
        return str(data.draw(st.sampled_from([10 ** 20, -(10 ** 30), 10 ** 400])))
    return repr(float(value))


def _emit(data, value) -> str:
    """JSON text of ``value`` with drawn whitespace and number spellings.

    A dict is written from a list of (key, value) pairs, so a key may repeat;
    a float list is a list of numbers.
    """
    ws = lambda: data.draw(_WS)  # noqa: E731
    if isinstance(value, list) and value and isinstance(value[0], tuple):
        items = [f"{ws()}{_emit(data, k)}{ws()}:{ws()}{_emit(data, v)}{ws()}" for k, v in value]
        return "{" + ",".join(items) + ws() + "}"
    if isinstance(value, list):
        return "[" + ",".join(f"{ws()}{_emit(data, v)}{ws()}" for v in value) + ws() + "]"
    if isinstance(value, float):
        return _number(data, value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=data.draw(st.booleans()))
    return json.dumps(value)


def _pairs(data, fields: dict, decoys: dict):
    """``fields`` as (key, value) pairs in drawn order, some after a decoy of their key."""
    keys = data.draw(st.permutations(list(fields)))
    pairs = []
    for key in keys:
        if key in decoys and data.draw(st.booleans()):
            pairs.append((key, decoys[key]))
        pairs.append((key, fields[key]))
    return pairs


@st.composite
def model_texts(draw):
    """A model document: mostly valid, sometimes not, with drawn spelling."""
    data = draw(st.data())
    n = draw(st.integers(1, 4))
    rows = []
    for state in range(1, n + 1):
        target = draw(st.integers(1, n))
        if draw(st.booleans()):
            row = [float(j == target) for j in range(1, n + 1)]
            rows.append(_pairs(data, {"concrete": row}, {"concrete": [0.5]}))
        else:
            support = sorted(draw(st.sets(st.integers(1, n), min_size=1)))
            reference = [1.0 / len(support)] * len(support)
            rows.append(_pairs(data, {"parameter": draw(_IDS) + str(state),
                                      "support": support, "reference": reference},
                               {"parameter": "decoy", "reference": [2.0]}))
    fields = {"version": 1, "states": n, "initial": [1.0] + [0.0] * (n - 1), "rows": rows,
              "problem": [("constraint", list(range(1, n))), ("destination", [n])]}
    ids = [dict(row)["parameter"] for row in rows if "parameter" in dict(row)]
    if ids and draw(st.booleans()):
        fields["direction"] = [("weights", [(pid, 1.0 / len(ids)) for pid in ids])]
    text = draw(_WS) + _emit(data, _pairs(data, fields, {"states": 7, "rows": [[]]})) \
        + draw(_WS)
    damage = draw(st.sampled_from(["none"] * 4 + ["cut", "insert", "trailing"]))
    if damage == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif damage == "insert":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from([",", "}", "]", "x", "\"", "1"])) + text[at:]
    elif damage == "trailing":
        text += draw(st.sampled_from(["x", "{}", "0", " ,"]))
    return text


@settings(max_examples=300, deadline=None)
@given(text=model_texts(), chunk=st.integers(1, 48))
def test_reader_matches_json_loads(tmp_path_factory, text, chunk):
    path = tmp_path_factory.getbasetemp() / "differential.model"
    path.write_bytes(text.encode("utf-8"))
    assert_same_as_reference(path, chunk)
    # The error path must not hide a reader that gives up on valid input.
    # Input it does not accept gives None, or a syntax error it raises itself.
    try:
        accepted = isinstance(json.loads(text), dict)
    except ValueError:
        accepted = False

    def reads(source):
        try:
            return modelfile._read_document(source) is not None
        except ModelSyntaxError:
            return False

    assert reads(text) == accepted
    with mock.patch.object(modelfile, "CHUNK_BYTES", chunk):
        assert reads(path) == accepted


@pytest.mark.parametrize("chunk", range(1, 40))
def test_reader_splits_rows_at_every_offset(tmp_path, chunk):
    pmc, problem = build_zeroconf()
    pmc = replace(pmc, parameters=tuple(replace(p, id=f"€{p.id}𝄞") for p in pmc.parameters))
    text = render_model(pmc, problem, Direction.uniform([p.id for p in pmc.parameters]))
    path = tmp_path / "zeroconf.model"
    path.write_text(text.replace("\n", "\r\n").replace("\\u20ac", "€"), encoding="utf-8")
    with mock.patch.object(modelfile, "CHUNK_BYTES", chunk):
        parsed = parse_model(path)
    assert model_digest(parsed.pmc) == model_digest(pmc)
    assert parsed.problem == problem
    assert outcome(parse_model, path) == reference_outcome(path)


FROG_BYTES = (MODELS / "frog.model").read_bytes()
_LAST_NUMBER = FROG_BYTES.rindex(b"0.3333333333333333")
# An "x" inside the last row's last number: a syntax error past the row's
# first character, in the last chunk.
LATE_X = FROG_BYTES[:_LAST_NUMBER + 4] + b"x" + FROG_BYTES[_LAST_NUMBER + 5:]
_HALF = len(LATE_X) // 2
BAD_FILES = {
    "bom": b"\xef\xbb\xbf" + FROG_BYTES,
    "not utf-8": b"\xff\xfe{",
    "late bad byte": (MODELS / "zeroconf.model").read_bytes()[:-40] + b"\xff" * 40,
    "empty": b"",
    "whitespace": b" \r\n\t",
    "truncated": FROG_BYTES[:-3],
    "top-level list": b"[" + FROG_BYTES + b"]",
    "top-level number": b"1",
    "trailing data": FROG_BYTES + b"{}",
    "trailing comma": FROG_BYTES.rstrip()[:-1] + b", }",
    "key not a string": b'{"version": 1, 2: 3}',
    "x in the last row": LATE_X,
    "x in the last row, CRLF": LATE_X.replace(b"\n", b"\r\n"),
    "x in the last row, CR": LATE_X.replace(b"\n", b"\r"),
    "x in the last row, CR before it": LATE_X[:_HALF].replace(b"\n", b"\r")
    + LATE_X[_HALF:].replace(b"\n", b" "),
    "x in the last row, one line": LATE_X.replace(b"\n", b" "),
    "nested too deeply": b"[" * 200_000,
    "value nested too deeply": b'{"version": ' + b"[" * 200_000,
}


@pytest.mark.parametrize("name", list(BAD_FILES))
@pytest.mark.parametrize("chunk", [3, 64, 1 << 18])
def test_reader_errors_are_today_s(tmp_path, name, chunk):
    path = tmp_path / "bad.model"
    path.write_bytes(BAD_FILES[name])
    expected = reference_outcome(path)
    assert isinstance(expected[0], type) and issubclass(expected[0], PmcError)
    assert_same_as_reference(path, chunk)


@pytest.mark.parametrize("name, location", [
    ("x in the last row", "line 47, column 13"),
    ("x in the last row, CRLF", "line 47, column 13"),
    ("x in the last row, one line", "line 1, column 598"),
])
@pytest.mark.parametrize("chunk", [*range(1, 9), 64, 1 << 18])
def test_late_syntax_error_is_read_once(tmp_path, name, location, chunk):
    # The reader reports an error inside the last value itself, at its line
    # and column in the whole file, without parsing the text again. Reading
    # the file again to count them splits every CRLF at the small chunks.
    path = tmp_path / "bad.model"
    path.write_bytes(BAD_FILES[name])
    text = BAD_FILES[name].decode()
    expected = (ModelSyntaxError, f"{location}: Expecting ',' delimiter")
    assert reference_outcome(path) == reference_outcome(text) == expected
    parsed_again = AssertionError("the whole text was parsed again")
    with mock.patch.object(modelfile, "CHUNK_BYTES", chunk), \
            mock.patch.object(modelfile, "_load_document", side_effect=parsed_again):
        assert outcome(parse_model, path) == outcome(parse_model, text) == expected


@pytest.mark.parametrize("chunk", [*range(1, 9), 64, 1 << 18])
def test_lone_carriage_return_is_left_to_json_loads(tmp_path, chunk):
    path = tmp_path / "bad.model"
    path.write_bytes(BAD_FILES["x in the last row, CR before it"])
    expected = reference_outcome(path)
    load = mock.Mock(wraps=modelfile._load_document)
    with mock.patch.object(modelfile, "CHUNK_BYTES", chunk), \
            mock.patch.object(modelfile, "_load_document", load):
        assert outcome(parse_model, path) == expected
    load.assert_called_once_with(path)


@pytest.mark.parametrize("chunk", [1, 64, modelfile.CHUNK_BYTES])
def test_valid_files_never_locate_a_syntax_error(tmp_path, chunk):
    pmc, problem, _ = birth_death_chain(30)
    chain = tmp_path / "chain.model"
    chain.write_text(render_model(pmc, problem), encoding="utf-8")
    located = AssertionError("a valid file was read again for an error's location")
    with mock.patch.object(modelfile, "CHUNK_BYTES", chunk), \
            mock.patch.object(modelfile, "_syntax_error", side_effect=located):
        for path in [*sorted(MODELS.glob("*.model")), chain]:
            assert parse_model(path).pmc.n > 0


def check_command(path: str, **kwargs):
    """Exit code, stdout and stderr of ``python -m pmcperturb check path``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-m", "pmcperturb", "check", path],
                            capture_output=True, env=env, **kwargs)
    return result.returncode, result.stdout.decode(), result.stderr.decode()


def check_file(capsys, path: Path):
    """``check_command`` of a regular file, run in this process."""
    code = cli.main(["check", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", [*BAD_FILES, "frog"])
def test_piped_model_reads_as_its_file(capsys, tmp_path, name):
    # A pipe cannot be opened again, so it is read once, whole.
    data = BAD_FILES.get(name, FROG_BYTES)
    path = tmp_path / "model.model"
    path.write_bytes(data)
    code, out, err = check_command("/dev/stdin", input=data, timeout=120)
    assert (code, out, err.replace("/dev/stdin", str(path))) == check_file(capsys, path)


def test_fifo_model_is_opened_once(capsys, tmp_path):
    # A syntax error the reader leaves to json.loads once made it open the
    # FIFO again, which waits for a writer that never comes.
    data = FROG_BYTES.replace(b'"version": 1,', b'"version": 1', 1)
    path = tmp_path / "model.model"
    path.write_bytes(data)
    fifo = tmp_path / "model.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    read = check_command(str(fifo), timeout=60)
    writer.join(timeout=60)
    assert read == check_file(capsys, path)
    assert read[2] == "pmcperturb: line 3, column 3: Expecting ',' delimiter\n"


def test_late_bad_byte_reports_its_file_position(tmp_path):
    data = (MODELS / "zeroconf.model").read_bytes()
    path = tmp_path / "bad.model"
    path.write_bytes(data + b"\xff")
    with mock.patch.object(modelfile, "CHUNK_BYTES", 64):
        with pytest.raises(PmcError) as excinfo:
            parse_model(path)
    assert str(excinfo.value) == (f"cannot read {path}: 'utf-8' codec can't decode byte "
                                  f"0xff in position {len(data)}: invalid start byte")


class _FailingReads:
    """A binary file whose reads after the first raise ``OSError``."""

    def __init__(self, path, mode):
        self.fh, self.reads = open(path, mode), 0

    def read(self, size):
        self.reads += 1
        if self.reads > 1:
            raise OSError(5, "Input/output error")
        return self.fh.read(size)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_read_error_in_a_later_chunk(monkeypatch):
    path = MODELS / "zeroconf.model"
    monkeypatch.setattr(modelfile, "CHUNK_BYTES", 64)
    monkeypatch.setattr(modelfile, "open", _FailingReads, raising=False)
    # The text is read again, whole; when that works the model is parsed ...
    assert outcome(parse_model, path) == reference_outcome(path)

    def failing_read_text(self, encoding=None):
        raise OSError(5, "Input/output error")

    # ... and when it fails too, the error is today's.
    monkeypatch.setattr(Path, "read_text", failing_read_text)
    with pytest.raises(PmcError, match=rf"^cannot read {path}: \[Errno 5\] Input/output error$"):
        parse_model(path)


@pytest.mark.parametrize("chunks, states", [
    (['{"states": 10', '00}'], 1000),
    (['{"states": 1.', '5}'], 1.5),
    (['{"states": 1e', '3}'], 1000.0),
    (['{"states": -', '2 }'], -2),
    (['{"states": 2', '', ' ', '}'], 2),
])
def test_value_at_the_window_end_waits_for_the_next_chunk(monkeypatch, chunks, states):
    monkeypatch.setattr(modelfile, "CHUNK_BYTES", 1)
    assert modelfile._Window("", iter(chunks)).read_object() == {"states": states}


def test_value_at_the_end_of_the_document_is_whole():
    assert modelfile._read_document('{"states": 10}') == {"states": 10}
    assert modelfile._read_document('{"states": 10') is None


def test_bytes_are_text_not_a_path():
    # json.loads decodes bytes, as it did before the reader
    frog = parse_model(FROG_BYTES)
    assert model_digest(frog.pmc) == model_digest(parse_model(FROG_BYTES.decode()).pmc)


def test_top_level_object_rules():
    read = modelfile._read_document
    doc = read('{"concrete": [1, 2], "x": {"reference": [0.5]}}')
    assert isinstance(doc["concrete"], np.ndarray) and doc["concrete"].tolist() == [1.0, 2.0]
    assert isinstance(doc["x"]["reference"], np.ndarray)
    assert read('{"a": 1, "b": 2, "a": 3}') == {"a": 3, "b": 2}
    assert read('{"rows": [1], "rows": [2, 3]}') == {"rows": [2, 3]}
    assert read('{"rows": 5}') == {"rows": 5}
    assert read('{"rows" : [ ] }') == {"rows": []}
    assert read(' \r\n{}\t \r\n') == {}
    for text in ['{1: 2}', '{"a": 1}x', '{"a": 1} {}', '{"a": 1,}', '{"rows": [1,]}',
                 '[]', '﻿{}', '{"a" 1}', '{"rows": [1 2]}', '']:
        assert read(text) is None, text


def test_window_is_refilled_before_it_runs_short(monkeypatch, tmp_path):
    # Each row fits in a chunk, so no decode runs on a cut value, and the
    # window never holds more than two chunks.
    chunk = 256
    monkeypatch.setattr(modelfile, "CHUNK_BYTES", chunk)
    calls, failures, windows = [0], [0], []
    decode = modelfile._DECODER.raw_decode

    def counting(text, pos):
        calls[0] += 1
        windows.append(len(text))
        try:
            return decode(text, pos)
        except ValueError:
            failures[0] += 1
            raise

    monkeypatch.setattr(modelfile._DECODER, "raw_decode", counting)
    pmc, problem, _ = birth_death_chain(12)
    path = tmp_path / "chain.model"
    path.write_text(render_model(pmc, problem), encoding="utf-8")
    assert path.stat().st_size > 10 * chunk
    parse_model(path)
    # 5 keys, the 4 values that are not rows, and the 12 rows
    assert (calls[0], failures[0]) == (5 + 4 + 12, 0)
    assert max(windows) < 2 * chunk


def test_float_array_type_check_is_exact():
    for good in ([], [1], [1.5, 2], [float("nan")]):
        assert modelfile._float_array(good).tolist() == pytest.approx(good, nan_ok=True)
    for bad in ([True], [1, False], ["1"], [None], [[1.0]], [1.0, {}], (1.0,)):
        with pytest.raises(ModelSchemaError):
            modelfile._float_array(bad)


def test_load_model_peaks_below_the_file_size(monkeypatch, tmp_path):
    # The CLI reads the file a chunk at a time: neither its whole bytes nor
    # its whole text are held. Reading the text whole, with its bytes, made
    # the read peak above twice the file's size.
    monkeypatch.setattr(modelfile, "CHUNK_BYTES", 1 << 14, raising=False)
    pmc, problem, _ = birth_death_chain(300)
    path = tmp_path / "chain.model"
    path.write_text(render_model(pmc, problem), encoding="utf-8")
    size = path.stat().st_size
    assert size > 20 * modelfile.CHUNK_BYTES
    args = argparse.Namespace(model=path, constraint=None, destination=None)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loaded, _, _ = cli._load_model(args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert model_digest(loaded) == model_digest(pmc)
    assert peak < size
