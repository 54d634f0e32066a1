"""JSON rendering: ``render_json`` writes exactly what ``json.dumps(indent=2)`` writes."""

from __future__ import annotations

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import birth_death_chain, random_case

from pmcperturb import (
    Direction,
    Pmc,
    analyze,
    build_frog,
    build_zeroconf,
    gradient_coefficients,
    model_digest,
    parse_model,
    render_model,
    validate_bounds,
)
from pmcperturb import report
from pmcperturb.report import (
    check_record,
    reference_tables_record,
    render_json,
    sensitivity_record,
    validation_record,
)

SPECIAL_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                  2.225073858507201e-308, 1e-05, 0.0001, 1e+16, 1e16, 9999999999999998.0,
                  1.7976931348623157e308, 0.1, -2.5]
SPECIAL_STRINGS = ["", "plain", 'quote " backslash \\ slash /', "\n\r\t\b\f\x00\x1f\x7f",
                   "é中 ", "\U0001f600 astral", "\ud800 lone high", "low \udfff"]

floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
strings = st.one_of(st.sampled_from(SPECIAL_STRINGS),
                    st.text(st.characters(exclude_categories=()), max_size=8))
scalars = st.one_of(
    floats,
    floats.map(np.float64),
    st.integers(),
    st.booleans(),
    st.none(),
    strings,
)
keys = st.one_of(strings, floats, st.integers(), st.booleans(), st.none())
# Runs of one scalar type take the writer's formatting of a whole run at once;
# a run broken by one item of another type must not.
runs = st.one_of(
    st.lists(st.one_of(floats, floats.map(np.float64)), min_size=1, max_size=6),
    st.lists(st.integers(), min_size=1, max_size=6),
    st.tuples(floats, st.integers(), floats),
    st.tuples(st.integers(), st.booleans(), st.integers()),
)
# Keys that a %- or {}-template would read as placeholders.
TEMPLATE_KEYS = ["%", "%s", "%%", "%(k)s", "{", "}", "{}", "{0}"]
# Keys of different types that compare equal, so one key tuple equals another.
EQUAL_KEYS = [1, True, 1.0, 0, False, 0.0, -0.0]
array_floats = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0]), floats)
array_floats = st.one_of(array_floats, array_floats.map(np.float64))


def columns(children):
    """Sibling values of one shape, which the writer encodes as columns."""
    shared_keys = st.lists(st.one_of(st.sampled_from(TEMPLATE_KEYS), strings),
                           min_size=1, max_size=4, unique=True)
    return st.one_of(
        shared_keys.flatmap(lambda ks: st.lists(
            st.fixed_dictionaries({k: children for k in ks}), min_size=1, max_size=4)),
        st.lists(st.dictionaries(st.sampled_from(EQUAL_KEYS), children, min_size=1, max_size=2),
                 min_size=1, max_size=4),
        st.integers(1, 3).flatmap(lambda n: st.lists(
            st.one_of(st.lists(array_floats, min_size=n, max_size=n),
                      st.tuples(*[array_floats] * n)),
            min_size=1, max_size=4)),
        st.lists(st.one_of(st.integers(), st.booleans()), min_size=1, max_size=6),
        st.lists(st.one_of(st.just([]), st.just({}), children), min_size=1, max_size=4),
    )


values = st.recursive(
    st.one_of(scalars, runs),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        columns(children),
    ),
    max_leaves=20,
)


@settings(max_examples=400)
@given(values)
def test_bytes_equal_json_dumps_indent_2(value):
    assert render_json(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], {"a": {}}, [{}, []], {"runs": [[1.0, math.nan], [2, True], [3, 4.5]]},
    {"a": [1.0, -math.inf], "b": (2.0,)},
    {math.nan: 1, -math.inf: 2, 1.5: 3, 7: 4, True: 5, False: 6, None: 7, "s": 8},
    list(map(np.float64, SPECIAL_FLOATS)),
    [True, False, None, 1, -0.0],
    "top-level string \U0001f600",
    math.inf,
    np.float64(math.nan),
    -(2 ** 80),
    [{"%": 1.5, "%s": [1, 2], "{": "a", "}": None, "{}": True, "%(k)s": -0.0}] * 3,
    [{1: "int"}, {True: "bool"}, {1.0: "float"}, {1: "int"}],
    [{0: 1}, {False: 2}, {-0.0: 3}, {0.0: 4}],
    [[math.nan, math.inf], (-math.inf, -0.0), [np.float64(0.1), np.float64(-math.inf)]],
    [(np.float64(1.5),), [2.5], (math.nan,)],
    [1, 2, True, 3],
    {"a": [1, -2], "b": [3, False]},
    [[], [1.0], {}, {"a": 1.0}, [], {}],
    [{"a": []}, {"a": [1.0]}, {"a": {}}],
    [[1.0, 2.0], [3.0], []],
    [{"a": 1.0, "b": 2.0}, {"b": 2.0, "a": 1.0}],
    [{"a": 1.0}],
    [[[1.0]]],
])
def test_edge_values(value):
    assert render_json(value) == json.dumps(value, indent=2) + "\n"


class EqualsA:
    """A dict key that is not a str but compares equal to ``"a"``."""

    def __eq__(self, other):
        return other == "a"

    def __hash__(self):
        return hash("a")


@pytest.mark.parametrize("value", [
    np.int64(3),
    [1, np.int64(2)],
    [1.0, np.int64(2)],
    {"a": [0.5, {1, 2}]},
    {1, 2},
    np.bool_(True),
    {(1, 2): 1.0},
    {np.int64(1): 1.0},
    [{"a": 1.5, "b": {1, 2}}, {"a": np.int64(1), "b": 2.5}],
    [[1.0, 2.0], [np.float32(3.0), 4.0], [5.0, {6}]],
    {"a": {1}, (1, 2): 1.0},
    {(1, 2): {1}},
    [{"a": 1.0}, {EqualsA(): 2.0}],
])
def test_unsupported_values_raise_type_error(value):
    with pytest.raises(TypeError) as stdlib:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as ours:
        render_json(value)
    assert str(ours.value) == str(stdlib.value)


def test_container_that_holds_itself_raises_value_error():
    loop = []
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        json.dumps(loop, indent=2)
    with pytest.raises(ValueError, match="Circular reference"):
        render_json(loop)


def test_nesting_as_deep_as_json_dumps_reaches():
    for depth in range(sys.getrecursionlimit(), 0, -25):
        value = 1.5
        for _ in range(depth):
            value = {"k": [value]}
        try:
            expected = json.dumps(value, indent=2) + "\n"
        except RecursionError:
            continue
        assert render_json(value) == expected
        return
    pytest.fail("json.dumps rejected every depth")


def test_program_records_never_fall_back(monkeypatch):
    # The column walk writes every record the program makes; handing one to
    # json.dumps would keep its bytes and silently lose the walk's speed.
    records = [reference_tables_record()]
    models = []
    for pmc, problem in (build_frog(), build_zeroconf()):
        reference = gradient_coefficients(pmc, problem)
        records.append(check_record(reference))
        records.append(sensitivity_record(analyze(reference)))
        records.append(validation_record(validate_bounds(
            reference, {p.id: 0.02 for p in pmc.parameters}, n_samples=20, seed=1)))
        models.append((pmc, problem))
    pmc, problem, _ = birth_death_chain(40)  # concrete and parameter rows mixed
    models.append((pmc, problem))
    frog, problem = build_frog()  # made parameter-free: empty "parameters" and "direction"
    fixed = Pmc(n=frog.n, initial=frog.initial, parameters=(), concrete_rows={
        **frog.concrete_rows, **{p.row: p.reference for p in frog.parameters}})
    records.append(sensitivity_record(analyze(gradient_coefficients(fixed, problem))))

    def fall_back(*args, **kwargs):
        raise AssertionError("render_json handed a record to json.dumps")

    monkeypatch.setattr(report.json, "dumps", fall_back)
    for record in records:
        render_json(record)
    for pmc, problem in models:
        render_model(pmc, problem, Direction({p.id: 1.0 / len(pmc.parameters)
                                              for p in pmc.parameters}))


class Real(float):
    """A float subclass: ``json.dumps`` spells it by ``float.__repr__``."""


# Values that compare equal across types or spellings (0.0 == -0.0, 1 == True
# == 1.0, 0.1 == np.float64(0.1) == Real(0.1)), and NaNs that are separate
# objects, so a column that spells each distinct float once must not merge them.
REPEATING = [st.just(0.0), st.just(-0.0), st.builds(float, st.just("nan")), st.just(math.inf),
             st.just(-math.inf), st.just(np.float64(0.1)), st.just(0.1), st.just(1),
             st.just(True), st.just(1.0), st.builds(Real, st.just(0.1))]
long_columns = st.lists(st.sampled_from(REPEATING), min_size=1, max_size=4, unique=True).flatmap(
    lambda pool: st.lists(st.one_of(pool), min_size=2, max_size=200))


def shapes(column: list, width: int) -> list:
    """``column`` as the writer meets it: flat, in rows of ``width`` and in dicts."""
    rows = [column[i:i + width] for i in range(0, len(column) - width + 1, width)]
    return [column, *row_shapes(rows), [{"x": value} for value in column],
            {"column": column, "rows": [{"row": row} for row in rows]}]


def row_shapes(rows: list) -> list:
    """``rows`` as lists, as tuples and as dicts with one key per item."""
    return [rows, [tuple(row) for row in rows], [dict(zip("xyz", row)) for row in rows]]


@settings(max_examples=300)
@given(long_columns, st.integers(1, 3))
def test_long_repeating_columns(column, width):
    for value in shapes(column, width):
        assert render_json(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("column", [
    [-0.0, 0.0] * 40,  # one dict key for both zeros
    [0.0, -0.0] * 40,
    [1.0, 1] * 40,  # an int would take the float's spelling
    [True, 1.0] * 40,
    [1.0, True] * 40,  # as would a bool
    [0.1, np.float64(0.1)] * 40,
    [0.5, Real(0.5)] * 40,
    [float("nan") for _ in range(80)],
    [math.nan, math.inf, -math.inf, 2.5] * 20,
], ids=lambda column: ",".join(map(repr, column[:2])))
def test_repeating_column_edge_values(column):
    # Alternating, and in two blocks, so that the second spelling also comes
    # after the leading values that decide whether the column repeats.
    for ordered in (column, column[::2] + column[1::2]):
        for value in shapes(ordered, 2):
            assert render_json(value) == json.dumps(value, indent=2) + "\n"


# Rows that compare equal across types or spellings, and rows that hold one
# NaN object or distinct ones, so a column that writes each distinct row once
# must not merge rows that json.dumps spells differently.
@pytest.mark.parametrize("rows", [
    [(0.0, 0.5), (-0.0, 0.5)] * 40,
    [(0.5, -0.0), (0.5, 0.0)] * 40,
    [[1.0, 0.5], [1, 0.5]] * 40,
    [[1.0, 0.5], [True, 0.5]] * 40,
    [[0.1, 0.5], [np.float64(0.1), 0.5]] * 40,
    [[0.5, 0.1], [0.5, Real(0.1)]] * 40,
    [[math.nan, 0.5] for _ in range(80)],
    [[float("nan"), 0.5] for _ in range(80)],
    [[0.5, math.inf], (0.5, math.inf)] * 40,
], ids=lambda rows: ",".join(map(repr, rows[:2])))
def test_repeating_row_edge_values(rows):
    for ordered in (rows, rows[::2] + rows[1::2]):
        for value in row_shapes(ordered):
            for shape in (value, {"rows": value, "last": value[-1]}):
                assert render_json(shape) == json.dumps(shape, indent=2) + "\n"


@pytest.fixture(scope="module")
def zeroconf_record() -> dict:
    # Zeroconf's parameters have two entries, so at distance 0.01 each one
    # takes one of two vectors, and the sampled records repeat their floats.
    reference = gradient_coefficients(*build_zeroconf())
    return validation_record(validate_bounds(
        reference, {p.id: 0.01 for p in reference.pmc.parameters}, n_samples=500, seed=1))


def spelled_floats(monkeypatch) -> list:
    """The floats that the writer spells from now on, in order."""
    spelled = []

    def spell(value):
        spelled.append(value)
        return float.__repr__(value)

    monkeypatch.setattr(report, "_FLOAT", spell)
    return spelled


def test_repeating_floats_spelled_once_per_column(monkeypatch, zeroconf_record):
    record = zeroconf_record

    def count(value) -> int:
        if isinstance(value, dict):
            return sum(map(count, value.values()))
        if isinstance(value, list):
            return sum(map(count, value))
        return isinstance(value, float)

    spelled = spelled_floats(monkeypatch)
    assert render_json(record) == json.dumps(record, indent=2) + "\n"
    assert 0 < 10 * len(spelled) < count(record)


def test_repeating_rows_written_once_per_distinct_row(monkeypatch, zeroconf_record):
    # Every sample moves each parameter by exactly 0.01, so all distances
    # dicts are one row, and each parameter's assignment takes two vectors.
    samples = zeroconf_record["samples"]
    pids = list(samples[0]["distances"])
    spelled = spelled_floats(monkeypatch)
    assert render_json(zeroconf_record) == json.dumps(zeroconf_record, indent=2) + "\n"
    for column, expected in (
            ([s["distances"] for s in samples],
             [x for row in dict.fromkeys(tuple(s["distances"].values()) for s in samples)
              for x in row]),
            ([s["assignment"] for s in samples],
             [x for pid in pids
              for row in dict.fromkeys(tuple(s["assignment"][pid]) for s in samples)
              for x in row])):
        spelled.clear()
        assert render_json(column) == json.dumps(column, indent=2) + "\n"
        assert spelled == expected
        assert 0 < 100 * len(spelled) < 2 * len(pids) * len(samples)


@pytest.mark.parametrize("n", [2, 8, 32])
def test_model_with_repeating_rows(n):
    # Every concrete row is one full-support distribution, so the file's
    # "concrete" lists are one repeating row column.
    row = np.arange(1.0, n + 1.0) / (n * (n + 1) / 2)
    pmc = Pmc(n=n, initial=np.eye(n)[0], parameters=(),
              concrete_rows={state: row for state in range(1, n + 1)})
    text = render_model(pmc)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert model_digest(parse_model(text).pmc) == model_digest(pmc)



def per_sample_record(run) -> dict:
    """The validation record built one sample at a time, indexing the batch's columns.

    This is the row-by-row construction of the record that
    ``validation_record`` builds column by column; the run statistics are
    checked against the per-sample expressions they were computed by before.
    """
    batch = run.samples
    count = len(batch.labels)
    exact = [float(batch.exact[k]) for k in range(count)]
    distance = [float(batch.distance[k]) for k in range(count)]
    bound = [float(batch.bound[k]) for k in range(count)]
    exceeds = [bool(batch.exceeds[k]) for k in range(count)]
    assert run.empirical_kappa == float(max(
        (abs(exact[k]) / distance[k] for k in range(count) if distance[k] > 0.0), default=0.0))
    assert run.violations == sum(exceeds)
    assert run.max_excess == float(max(
        (abs(exact[k]) - bound[k] for k in range(count) if exceeds[k]), default=0.0))
    problem = run.reference.problem
    return {
        "model_hash": model_digest(run.reference.pmc),
        "problem": {"constraint": sorted(problem.constraint),
                    "destination": sorted(problem.destination)},
        "requested_distances": dict(run.requested),
        "bound": run.bound,
        "analytic_kappa": run.analytic_kappa,
        "kappa_sum": run.reference.kappa_sum,
        "empirical_kappa": run.empirical_kappa,
        "violations": run.violations,
        "max_excess": run.max_excess,
        "slack": run.slack,
        "seed": run.seed,
        "bound_convention": report.BOUND_CONVENTION,
        "samples": [
            {
                "label": batch.labels[k],
                "assignment": {pid: rows[k].tolist() for pid, rows in batch.vectors.items()},
                "distances": {pid: float(column[k]) for pid, column in batch.distances.items()},
                "distance": distance[k],
                "exact": exact[k],
                "linear": float(batch.linear[k]),
                "bound": bound[k],
                "exceeds": exceeds[k],
            }
            for k in range(count)
        ],
    }


def leaf_types(value) -> set:
    if isinstance(value, dict):
        return set().union(*map(leaf_types, value.values()))
    if isinstance(value, list):
        return set().union(*map(leaf_types, value))
    return {type(value)}


def random_model():
    pmc, problem, _ = random_case(np.random.default_rng(31), n=6, n_params=2)
    return pmc, problem


@pytest.mark.parametrize("build, delta, n_samples", [
    (build_zeroconf, 0.01, 500),  # two-entry parameters: repeating floats
    (build_frog, 0.5, 200),  # entries clipped to zero
    (random_model, 0.05, 100),
], ids=["zeroconf", "frog", "random"])
def test_validation_record_from_columns(build, delta, n_samples):
    pmc, problem = build()
    run = validate_bounds(gradient_coefficients(pmc, problem),
                          {p.id: delta for p in pmc.parameters}, n_samples=n_samples, seed=9)
    record = validation_record(run)
    expected = per_sample_record(run)
    # One sample at a time, in JSON, so key order and float spellings count
    # and a failure prints one sample, not a diff of the whole record.
    samples, expected_samples = record.pop("samples"), expected.pop("samples")
    assert json.dumps(record) == json.dumps(expected)
    assert len(samples) == len(expected_samples)
    for sample, expected_sample in zip(samples, expected_samples):
        assert json.dumps(sample) == json.dumps(expected_sample)
    assert leaf_types(samples) == {str, float, bool}
    record["samples"] = samples
    assert render_json(record) == json.dumps(record, indent=2) + "\n"
    if build is build_frog:
        assert any(0.0 in s["assignment"]["hop"] for s in record["samples"])
