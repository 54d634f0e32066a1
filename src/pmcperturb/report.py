"""Report records and rendering.

Every command's result is first assembled into one ordered, JSON-compatible
record. :func:`render_json` and all four ``render_*_table`` functions read
that record and nothing else, so a table can be drawn from ``json.loads`` of
the JSON output and the two views cannot diverge. Tables round to six
significant digits, JSON keeps full double precision.

:func:`render_json` writes exactly the bytes of ``json.dumps(record,
indent=2) + "\n"``. It walks the record by columns, all sibling values at
one nesting level together, in place of the stdlib's pure-Python indenting
encoder, which pays a call and a chain of type tests per value. Floats,
ints and strs of a column are formatted by one C-level ``map``; dicts that
share one key order, and arrays of one length, are encoded once per key or
once for all their items, and their rows are filled into one template.
A column that repeats itself writes each distinct value once: a float
column each distinct float, and a column of float rows (lists or tuples of
one length, or dicts of one key order) each distinct row. The assignments
and per-parameter distances of a ``validate`` record repeat whole rows: a
two-entry parameter moved by Delta takes one of two vectors, and every
parameter moves by exactly Delta. It does so only where that cannot change
a byte: every float exactly a ``float`` (an int, a bool or a float subclass
may equal a float key and spell differently) and no zero (``0.0 == -0.0``).
Every record that the walk does not write (one too deep for it, one that
holds itself, or one with a value or key of another type) is handed to
``json.dumps``, which writes it or raises its own error. Model files
(:func:`modelfile.render_model`) are written by the same function.

The ``reference_tables`` record reproduces the published case-study tables
for the two built-in models (values scaled by 1e3 there, as in the source
tables). The bound convention in all reports: per-parameter
distances ``Delta_i`` bound the exact delta by ``sum_i kappa_i * Delta_i``
(equivalently ``kappa_w * Delta`` for the induced direction); this is an
interpretation of the published single-number convention and is labeled
explicitly rather than collapsed into one figure.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

from .example_models import build_frog, build_zeroconf
from .model import model_digest
from .perturbation import ReferenceSolve, SensitivityReport, gradient_coefficients
from .sampler import ValidationReport, evaluate_assignments

BOUND_CONVENTION = ("per-parameter distances Delta_i bound the exact delta by "
                    "sum_i kappa_i * Delta_i = kappa_w * Delta with "
                    "w(i) = Delta_i / Delta")

_FLOAT = float.__repr__
_INT = int.__repr__
_CONSTANTS = {None: "null", True: "true", False: "false"}
_CONSTANT_TYPES = {type(None), bool}
#: JSON spellings of the ``float.__repr__`` texts that are not finite numbers.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
#: Leading floats of a column that decide whether it writes each distinct
#: float or row once: a column whose rows within its first ``_PREFIX`` floats
#: (a float column's rows are its floats) are at most half distinct repeats
#: them, and one that does not (sampled floats) pays only a ``set`` this
#: long, not a hash per value. Counted in floats, not rows, so a column of
#: rows longer than ``_PREFIX // 2`` (dense vectors) hashes none of them.
_PREFIX = 64
#: Exceeding samples listed by :func:`render_validation_table`.
MAX_TABLE_ROWS = 20


def _fmt(x: float) -> str:
    """Six significant digits for table cells."""
    return f"{x:.6g}"


def _source_record(reference: ReferenceSolve) -> dict:
    """The model hash and the problem, which every record starts with."""
    problem = reference.problem
    return {"model_hash": model_digest(reference.pmc),
            "problem": {"constraint": sorted(problem.constraint),
                        "destination": sorted(problem.destination)}}


def _heading(record: dict) -> str:
    problem = record["problem"]
    return (f"model {record['model_hash']}, problem "
            f"{problem['constraint']} U {problem['destination']}")


def use_color() -> bool:
    """Color only when stdout is a tty and ``NO_COLOR`` is unset."""
    if os.environ.get("NO_COLOR"):
        return False
    return bool(getattr(sys.stdout, "isatty", lambda: False)())


def _mark(text: str, color: bool) -> str:
    return f"\x1b[31m{text}\x1b[0m" if color else text


def render_json(record) -> str:
    """``json.dumps(record, indent=2) + "\\n"``, byte for byte, written column by column.

    A record that the column walk does not write, one nested deeper than
    the walk reaches (one frame per level) or holding a value of a type
    outside its paths, is handed to ``json.dumps`` itself, which writes it
    or raises its own error.
    """
    try:
        return _column([record], "\n")[0] + "\n"
    except (RecursionError, TypeError):
        return json.dumps(record, indent=2) + "\n"


def _column(values, newline: str) -> list[str]:
    """JSON texts of the sibling ``values``; ``newline`` starts each of their lines.

    A column of floats, ints, strs or constants is formatted by one ``map``;
    :func:`_floats` spells each distinct float of a repeating column once.
    Dicts with one key order, all keys exactly ``str``, recurse once per key
    and fill each row into one ``%``-template; lists and tuples of one length
    recurse once over their items chained together and join each row. A
    repeating column of float rows writes each distinct row once. Any other
    column of several values, and a float or str column in which some
    value raises ``TypeError``, is written one value at a time as columns of
    one; a column of one empty dict, list or tuple is ``{}`` or ``[]``.
    Anything else raises ``TypeError``, for :func:`render_json` to hand over.
    A column of one raises only for a value that no column writes, so an
    error from a nested column is not caught here.
    """
    first = type(values[0])
    inner = newline + "  "
    try:
        if issubclass(first, float):  # float.__repr__ raises TypeError on any other type
            return _floats(values)
        if issubclass(first, str):  # as does encode_basestring_ascii
            return list(map(encode_basestring_ascii, values))
    except TypeError:  # a value of another type among them: value by value below
        pass
    kinds = set(map(type, values))
    if kinds == {int}:
        return list(map(_INT, values))
    if kinds <= _CONSTANT_TYPES:
        return list(map(_CONSTANTS.__getitem__, values))
    if kinds == {dict}:
        keys = tuple(values[0])
        if (keys and all(map(keys.__eq__, map(tuple, values)))
                and set(map(type, chain.from_iterable(values))) == {str}):
            rows = list(map(tuple, map(dict.values, values)))
            unique = _distinct(rows, list(chain.from_iterable(rows)))
            columns = []
            for column in zip(*(unique or rows)):
                columns.append(_column(column, inner))
            return _mapped(map(_object(keys, newline).__mod__, zip(*columns)), unique, rows)
    elif kinds <= {list, tuple}:
        lengths = set(map(len, values))
        length = lengths.pop()
        if length and not lengths:
            rows = list(map(tuple, values))
            leaves = list(chain.from_iterable(rows))
            unique = _distinct(rows, leaves)
            if unique is not None:
                leaves = list(chain.from_iterable(unique))
            texts = _column(leaves, inner)
            items = map(("," + inner).join, zip(*[iter(texts)] * length))
            return _mapped(map(("[" + inner + "%s" + newline + "]").__mod__, items),
                           unique, rows)
    if len(values) > 1:
        return [_column([value], newline)[0] for value in values]
    if first in (dict, list, tuple) and not values[0]:
        return ["{}" if first is dict else "[]"]
    raise TypeError(f"no column writes a {first.__name__}")


def _floats(values) -> list[str]:
    """JSON texts of a column led by a float, each distinct float spelled once if it repeats.

    A value that is not a float raises ``TypeError`` from ``float.__repr__``,
    as it does value by value.
    """
    unique = _distinct(values, values)
    return _mapped(_spelled(unique or values), unique, values)


def _distinct(rows, leaves):
    """``dict.fromkeys(rows)`` if the column repeats its rows and may write each once, or None.

    ``rows`` are the column's floats (then ``leaves`` is ``rows`` itself) or
    tuples of its rows' items, ``leaves`` all those items in order. The rows
    that fit in the first :data:`_PREFIX` leaves, at least two, must be at
    most half distinct. ``dict.fromkeys`` keys equal rows together, so each
    distinct row is spelled once only if every leaf is exactly a ``float``
    (``1``, ``True`` or a float subclass equal to a float would take its
    spelling) and no leaf is a zero (``0.0`` and ``-0.0`` are equal). Each
    NaN object stays its own key.
    """
    prefix = rows[:_PREFIX * len(rows) // len(leaves)]
    if (len(prefix) > 1 and set(map(type, leaves[:_PREFIX])) == {float}
            and 2 * len(set(prefix)) <= len(prefix) and set(map(type, leaves)) == {float}):
        unique = dict.fromkeys(rows)
        if 0.0 not in (unique if rows is leaves else chain.from_iterable(unique)):
            return unique
    return None


def _mapped(texts, unique, rows) -> list[str]:
    """The ``texts`` of all ``rows``, or those of the ``unique`` rows mapped onto ``rows``."""
    if unique is None:
        return list(texts)
    return list(map(dict(zip(unique, texts)).__getitem__, rows))


def _spelled(values) -> list[str]:
    """``float.__repr__`` of each of ``values``, with JSON's nan and infinities."""
    texts = list(map(_FLOAT, values))
    if "n" in "".join(texts):  # nan, inf or -inf
        texts = [_NONFINITE.get(text, text) for text in texts]
    return texts


def _object(keys, newline: str) -> str:
    """``%``-template of an object with the str ``keys`` that starts a line with ``newline``."""
    inner = newline + "  "
    members = [encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys]
    return "{" + inner + ("," + inner).join(members) + newline + "}"


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines


# ---------------------------------------------------------------------------
# check and sensitivity

def check_record(reference: ReferenceSolve) -> dict:
    return {**_source_record(reference), "probability": reference.probability}


def render_check_table(record: dict, color: bool = False) -> str:
    return f"{record['probability']:.6f}\n"


def sensitivity_record(report: SensitivityReport) -> dict:
    reference = report.reference
    return {
        **check_record(reference),
        "parameters": [
            {
                "id": pid,
                "kappa": kappa,
                "h": list(map(float, reference.h[pid])),
            }
            for pid, kappa in reference.kappa.items()
        ],
        "direction": dict(report.direction.weights),
        "kappa_directional": report.kappa_directional,
        "kappa_sum": reference.kappa_sum,
        "bound_convention": BOUND_CONVENTION,
    }


def render_sensitivity_table(record: dict, color: bool = False) -> str:
    lines = [
        _heading(record),
        f"referential probability: {record['probability']:.6f}",
        "",
    ]
    rows = [[p["id"], _fmt(p["kappa"]), f"w={_fmt(record['direction'][p['id']])}",
             "[" + ", ".join(map(_fmt, p["h"])) + "]"]
            for p in record["parameters"]]
    lines.extend(_table(["parameter", "kappa_i", "direction", "h"], rows))
    lines.append("")
    lines.append(f"kappa_w   = {_fmt(record['kappa_directional'])}"
                 "  (total budget Delta split by the direction)")
    lines.append(f"kappa_sum = {_fmt(record['kappa_sum'])}"
                 "  (per-parameter distances: bound sum_i kappa_i * Delta_i)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# validation

def validation_record(report: ValidationReport) -> dict:
    """The validation record; its ``samples`` are read from the batch's columns."""
    batch = report.samples
    pids = list(batch.vectors)
    assignments = zip(*[rows.tolist() for rows in batch.vectors.values()])
    distances = zip(*[column.tolist() for column in batch.distances.values()])
    samples = zip(batch.labels, assignments, distances, batch.distance.tolist(),
                  batch.exact.tolist(), batch.linear.tolist(), batch.bound.tolist(),
                  batch.exceeds.tolist())
    return {
        **_source_record(report.reference),
        "requested_distances": dict(report.requested),
        "bound": report.bound,
        "analytic_kappa": report.analytic_kappa,
        "kappa_sum": report.reference.kappa_sum,
        "empirical_kappa": report.empirical_kappa,
        "violations": report.violations,
        "max_excess": report.max_excess,
        "slack": report.slack,
        "seed": report.seed,
        "bound_convention": BOUND_CONVENTION,
        "samples": [
            {
                "label": label,
                "assignment": dict(zip(pids, vectors)),
                "distances": dict(zip(pids, per_parameter)),
                "distance": distance,
                "exact": exact,
                "linear": linear,
                "bound": bound,
                "exceeds": exceeds,
            }
            for label, vectors, per_parameter, distance, exact, linear, bound, exceeds
            in samples
        ],
    }


def render_validation_table(record: dict, color: bool = False) -> str:
    lines = [
        _heading(record),
        f"samples: {len(record['samples'])}  seed: {record['seed']}",
        f"requested distances: "
        + ", ".join(f"{pid}={_fmt(d)}" for pid, d in record["requested_distances"].items()),
        f"bound sum_i kappa_i*Delta_i = {_fmt(record['bound'])}"
        f"  (kappa_w = {_fmt(record['analytic_kappa'])}, "
        f"kappa_sum = {_fmt(record['kappa_sum'])})",
        f"empirical kappa = {_fmt(record['empirical_kappa'])}",
    ]
    if record["violations"]:
        flagged = _mark(f"{record['violations']} sample(s) exceed the bound "
                        f"(max excess {_fmt(record['max_excess'])})", color)
        lines.append(flagged)
        rows = [[s["label"], _fmt(s["distance"]), f"{s['exact']:+.6g}",
                 f"{s['linear']:+.6g}", _fmt(s["bound"])]
                for s in record["samples"] if s["exceeds"]][:MAX_TABLE_ROWS]
        lines.append("")
        lines.extend(_table(["sample", "distance", "exact", "linear", "bound"], rows))
    else:
        lines.append("no sample exceeds the bound")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# published case-study tables

_ZF_PERTURBED = (0.749, 0.752, 0.747)
_FG_PERTURBED = (
    (0.374, 0.124, 0.251, 0.251),
    (0.374, 0.124, 0.250, 0.252),
    (0.377, 0.125, 0.248, 0.250),
    (0.377, 0.125, 0.250, 0.248),
    (0.375, 0.125, 0.248, 0.252),
    (0.375, 0.125, 0.252, 0.248),
)


def reference_tables_record() -> dict:
    """Both case-study tables as one machine-readable record (values x 1e3)."""
    zf = gradient_coefficients(*build_zeroconf(a=0.2, loss_ref=0.25))
    zf_vectors = {p.id: [(back, 1.0 - back) for back in _ZF_PERTURBED]
                  for p in zf.pmc.parameters}
    zf_samples = evaluate_assignments(zf, ["given"] * len(_ZF_PERTURBED), zf_vectors)
    zf_rows = []
    for back, exact, distance, bound, exceeds in zip(
            _ZF_PERTURBED, zf_samples.exact.tolist(),
            zf_samples.distances[zf.pmc.parameters[0].id].tolist(),
            zf_samples.bound.tolist(), zf_samples.exceeds.tolist()):
        zf_rows.append({
            "back_probability_x1e3": back * 1e3,
            "delta_x1e3": exact * 1e3,
            "distance_per_parameter_x1e3": distance * 1e3,
            "range_x1e3": bound * 1e3,
            "exceeds": exceeds,
        })

    fg = gradient_coefficients(*build_frog())
    fg_samples = evaluate_assignments(fg, ["given"] * len(_FG_PERTURBED),
                                      {"hop": _FG_PERTURBED})
    fg_rows = []
    for dist, exact, distance, bound, exceeds in zip(
            _FG_PERTURBED, fg_samples.exact.tolist(), fg_samples.distance.tolist(),
            fg_samples.bound.tolist(), fg_samples.exceeds.tolist()):
        fg_rows.append({
            "distribution_x1e3": [x * 1e3 for x in dist],
            "delta_x1e3": exact * 1e3,
            "distance_x1e3": distance * 1e3,
            "range_x1e3": bound * 1e3,
            "exceeds": exceeds,
        })

    return {
        "scale": "all table values are multiplied by 1e3",
        "bound_convention": BOUND_CONVENTION,
        "zeroconf": {
            **_source_record(zf),
            "probability_x1e3": zf.probability * 1e3,
            "kappa_sum_x1e3": zf.kappa_sum * 1e3,
            "kappa_per_parameter_x1e3": {pid: k * 1e3 for pid, k in zf.kappa.items()},
            "perturbed": zf_rows,
        },
        "frog": {
            **_source_record(fg),
            "probability_x1e3": fg.probability * 1e3,
            "kappa_x1e3": fg.kappa_sum * 1e3,
            "perturbed": fg_rows,
        },
    }


def _perturbed_row(index: int, row: dict, model: str, distance: float,
                   color: bool) -> list[str]:
    """Table cells of the perturbed model ``M<index>``, described by ``model``."""
    flag = " *" if row["exceeds"] else ""
    return [f"M{index}", model, f"{row['delta_x1e3']:+.3f}", f"{distance:.0f}", "-",
            _mark(f"+-{row['range_x1e3']:.3f}{flag}", color and row["exceeds"])]


def render_reference_tables(record: dict, color: bool = False) -> str:
    lines = ["Case-study tables (values x 1e-3)", ""]

    zf = record["zeroconf"]
    lines.append("Noisy address-probing protocol (a = 0.2), problem "
                 f"{zf['problem']['constraint']} U {zf['problem']['destination']}")
    headers = ["Model", "x_i", "Probability", "Distance", "Condition Number",
               "Variation Range"]
    rows = [["ref", "750", f"{zf['probability_x1e3']:.3f}", "-",
             f"{zf['kappa_sum_x1e3']:.3f}", "-"]]
    rows += [_perturbed_row(index, row, f"{row['back_probability_x1e3']:.0f}",
                            row["distance_per_parameter_x1e3"], color)
             for index, row in enumerate(zf["perturbed"], start=1)]
    lines.extend(_table(headers, rows))
    lines.append("")

    fg = record["frog"]
    lines.append("Hopping frog, problem "
                 f"{fg['problem']['constraint']} U {fg['problem']['destination']}")
    headers = ["Model", "Distribution", "Probability", "Distance",
               "Condition Number", "Variation Range"]
    rows = [["ref", "(375, 125, 250, 250)", f"{fg['probability_x1e3']:.3f}", "-",
             f"{fg['kappa_x1e3']:.3f}", "-"]]
    rows += [_perturbed_row(index, row,
                            "(" + ", ".join(f"{x:.0f}" for x in row["distribution_x1e3"]) + ")",
                            row["distance_x1e3"], color)
             for index, row in enumerate(fg["perturbed"], start=1)]
    lines.extend(_table(headers, rows))
    lines.append("")
    lines.append("* exact delta exceeds the first-order variation range")
    lines.append(f"bound convention: {record['bound_convention']}")
    return "\n".join(lines) + "\n"
