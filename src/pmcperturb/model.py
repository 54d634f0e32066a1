"""Parametric Markov chains with distribution parameters.

A parametric Markov chain (PMC) is a discrete-time Markov chain in which
selected rows of the transition matrix are replaced by named *distribution
parameters*: vector variables occupying the non-zero positions of the row,
each shipped with a *reference* distribution describing the idealized
behaviour. Instantiating a PMC at an assignment of concrete distributions
yields an ordinary stochastic matrix.

Vectors are compared against the probability simplex with an absolute
tolerance of ``STOCHASTIC_TOL``; inputs that fail it are rejected rather
than renormalized, since silent renormalization would corrupt distance
computations downstream.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import (
    ArityMismatchError,
    IndexOutOfRangeError,
    MissingParameterError,
    SimplexViolationError,
    UnknownParameterError,
)

#: Absolute tolerance on row sums and entry signs for probability vectors.
STOCHASTIC_TOL = 1e-12


def as_vector(values) -> np.ndarray:
    """Coerce to a read-only 1-D float64 array.

    A read-only 1-D float64 array that owns its data is returned as it is:
    it is not a view of writable memory, so sharing it is safe. Anything
    else is copied.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64 and values.ndim == 1 \
            and values.base is None and not values.flags.writeable:
        return values
    arr = np.array(values, dtype=np.float64).reshape(-1)
    arr.flags.writeable = False
    return arr


def is_distribution(v: np.ndarray) -> bool:
    """True if ``v`` is a probability vector within absolute tolerance ``STOCHASTIC_TOL``.

    For a 2-D ``v`` every row must be one. A NaN entry fails.
    """
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    if v.size == 0:
        return False
    return bool((v.min(axis=-1) >= -STOCHASTIC_TOL).all()
                and (abs(v.sum(axis=-1) - 1.0) <= STOCHASTIC_TOL).all())


def absolute_distance(u, v) -> float:
    """Total-variation style absolute distance ``sum_i |u[i] - v[i]|``.

    Symmetric, zero iff ``u == v``, and at most 2 for probability vectors.

    Raises:
        ArityMismatchError: if the vectors have different lengths.
    """
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if u.size != v.size:
        raise ArityMismatchError(
            f"absolute_distance: vector lengths differ ({u.size} vs {v.size})"
        )
    return float(np.abs(u - v).sum())


@dataclass(frozen=True)
class DistributionParameter:
    """One parameterized transition row.

    Attributes:
        id: parameter identifier, unique within a model.
        row: 1-based index of the state whose outgoing row it occupies.
        support: strictly increasing 1-based column indices where the
            parameter's entries sit; all other columns of the row are zero.
        reference: idealized probability vector, one entry per support column.
    """

    id: str
    row: int
    support: tuple[int, ...]
    reference: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "id", str(self.id))
        object.__setattr__(self, "row", int(self.row))
        object.__setattr__(self, "support", tuple(int(c) for c in self.support))
        object.__setattr__(self, "reference", as_vector(self.reference))

    @property
    def arity(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class Pmc:
    """A parametric Markov chain.

    Every state ``1..n`` owns exactly one outgoing row, either a concrete
    probability vector in ``concrete_rows`` or a single entry of
    ``parameters`` (at most one parameter per row). Construction only
    coerces types; semantic checks live in :func:`validate_pmc` so that
    malformed models can be inspected and reported rather than rejected
    at construction time.
    """

    n: int
    initial: np.ndarray
    concrete_rows: Mapping[int, np.ndarray]
    parameters: tuple[DistributionParameter, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "initial", as_vector(self.initial))
        rows = {int(k): as_vector(v) for k, v in dict(self.concrete_rows).items()}
        object.__setattr__(self, "concrete_rows", rows)
        object.__setattr__(self, "parameters", tuple(self.parameters))

    @property
    def parameter_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.parameters)

    def parameter(self, pid: str) -> DistributionParameter:
        for p in self.parameters:
            if p.id == pid:
                return p
        raise UnknownParameterError(f"no parameter with id {pid!r}")


@dataclass(frozen=True)
class Assignment:
    """Concrete probability vectors for distribution parameters, keyed by id.

    Each vector must lie on its probability simplex (entries >= 0, sum 1,
    tolerance ``STOCHASTIC_TOL``); violations raise at construction.
    """

    vectors: Mapping[str, np.ndarray]

    def __post_init__(self):
        coerced = {}
        for pid, vec in dict(self.vectors).items():
            arr = as_vector(vec)
            if not is_distribution(arr):
                detail = (f"sum {float(arr.sum())!r}, min {float(arr.min())!r}"
                          if arr.size else "no entries")
                raise SimplexViolationError(
                    f"assignment for parameter {pid!r} is not a probability vector ({detail})")
            coerced[str(pid)] = arr
        object.__setattr__(self, "vectors", coerced)

    def __getitem__(self, pid: str) -> np.ndarray:
        try:
            return self.vectors[pid]
        except KeyError:
            raise MissingParameterError(f"assignment misses parameter {pid!r}") from None

    def __eq__(self, other):
        """Same ids and equal vectors; the dataclass ``==`` would ask numpy
        for the truth value of an elementwise comparison, which raises."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vectors.keys() == other.vectors.keys() and all(
            np.array_equal(vec, other.vectors[pid]) for pid, vec in self.vectors.items())


def reference_assignment(pmc: Pmc) -> Assignment:
    """The assignment mapping every parameter to its reference distribution."""
    return Assignment({p.id: p.reference for p in pmc.parameters})


class ViolationKind(str, Enum):
    """Classification of model-validation failures."""

    ROW_NOT_STOCHASTIC = "RowNotStochastic"
    NEGATIVE_ENTRY = "NegativeEntry"
    ARITY_MISMATCH = "ArityMismatch"
    DUPLICATE_PARAMETER_ID = "DuplicateParameterId"
    ROW_MISSING = "RowMissing"
    DUPLICATE_ROW = "DuplicateRow"
    BAD_PLACEMENT = "BadPlacement"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    row: int | None
    detail: str


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple[Violation, ...]


def _check_probability_vector(vec: np.ndarray, row: int | None, what: str,
                              out: list[Violation]) -> None:
    # Written so that a NaN fails both checks: every comparison with NaN is false.
    if vec.size and not vec.min() >= -STOCHASTIC_TOL:
        idx = int(np.argmin(vec))  # the first NaN, if there is one
        sort = "negative" if vec[idx] < 0.0 else "NaN"
        out.append(Violation(ViolationKind.NEGATIVE_ENTRY, row,
                             f"{what} has {sort} entry {float(vec[idx])!r} at position {idx + 1}"))
    if not abs(vec.sum() - 1.0) <= STOCHASTIC_TOL:
        out.append(Violation(ViolationKind.ROW_NOT_STOCHASTIC, row,
                             f"{what} sums to {float(vec.sum())!r}, expected 1"))


def validate_pmc(pmc: Pmc) -> ValidationResult:
    """Check all structural and stochastic invariants of a PMC.

    Returns a :class:`ValidationResult` whose ``violations`` locate each
    failure by row. Never raises for model defects.
    """
    out: list[Violation] = []
    n = pmc.n

    if pmc.initial.size != n:
        out.append(Violation(ViolationKind.ARITY_MISMATCH, None,
                             f"initial distribution has {pmc.initial.size} entries, expected {n}"))
    else:
        _check_probability_vector(pmc.initial, None, "initial distribution", out)

    owner: dict[int, str] = {}
    for row, vec in sorted(pmc.concrete_rows.items()):
        if not 1 <= row <= n:
            out.append(Violation(ViolationKind.BAD_PLACEMENT, row,
                                 f"concrete row index {row} outside 1..{n}"))
            continue
        owner[row] = "concrete"
        if vec.size != n:
            out.append(Violation(ViolationKind.ARITY_MISMATCH, row,
                                 f"row {row} has {vec.size} entries, expected {n}"))
            continue
        _check_probability_vector(vec, row, f"row {row}", out)

    seen_ids: set[str] = set()
    for param in pmc.parameters:
        if param.id in seen_ids:
            out.append(Violation(ViolationKind.DUPLICATE_PARAMETER_ID, param.row,
                                 f"parameter id {param.id!r} used more than once"))
        seen_ids.add(param.id)

        if not 1 <= param.row <= n:
            out.append(Violation(ViolationKind.BAD_PLACEMENT, param.row,
                                 f"parameter {param.id!r} row index {param.row} outside 1..{n}"))
            continue
        if param.row in owner:
            out.append(Violation(ViolationKind.DUPLICATE_ROW, param.row,
                                 f"row {param.row} defined more than once "
                                 f"(parameter {param.id!r} vs {owner[param.row]})"))
        owner[param.row] = f"parameter {param.id!r}"

        if not param.support:
            out.append(Violation(ViolationKind.BAD_PLACEMENT, param.row,
                                 f"parameter {param.id!r} has empty support"))
            continue
        if any(not 1 <= c <= n for c in param.support) or \
                any(b <= a for a, b in zip(param.support, param.support[1:])):
            out.append(Violation(ViolationKind.BAD_PLACEMENT, param.row,
                                 f"parameter {param.id!r} support {param.support} must be "
                                 f"strictly increasing within 1..{n}"))
        if param.reference.size != param.arity:
            out.append(Violation(ViolationKind.ARITY_MISMATCH, param.row,
                                 f"parameter {param.id!r} reference has {param.reference.size} "
                                 f"entries, support has {param.arity}"))
            continue
        _check_probability_vector(param.reference, param.row,
                                  f"reference of parameter {param.id!r}", out)

    for state in range(1, n + 1):
        if state not in owner:
            out.append(Violation(ViolationKind.ROW_MISSING, state,
                                 f"state {state} has no outgoing row"))

    return ValidationResult(ok=not out, violations=tuple(out))


def _checked_vectors(pmc: Pmc, assignment: Assignment | None) -> list[np.ndarray]:
    """Each parameter's vector at ``assignment`` (the references if None), in order.

    Checks first that the rows can be indexed. Raises as :func:`instantiate`.
    """
    n = pmc.n
    for row, vec in pmc.concrete_rows.items():
        if not 1 <= row <= n:
            raise IndexOutOfRangeError(f"concrete row {row} outside 1..{n}")
        if vec.size != n:
            raise ArityMismatchError(f"concrete row {row} has {vec.size} entries, expected {n}")
    vectors = []
    for param in pmc.parameters:
        states = (param.row, *param.support)
        if not (1 <= min(states) and max(states) <= n):
            raise IndexOutOfRangeError(f"parameter {param.id!r}: row {param.row} or support "
                                       f"{param.support} outside 1..{n}")
        vec = param.reference if assignment is None else assignment[param.id]
        if vec.size != param.arity:
            raise ArityMismatchError(f"assignment for {param.id!r} has {vec.size} entries, "
                                     f"support has {param.arity}")
        vectors.append(vec)
    return vectors


def instantiate(pmc: Pmc, assignment: Assignment) -> np.ndarray:
    """Concrete ``n x n`` transition matrix of the PMC at the given assignment.

    Parameterized rows are filled at their support columns and zero
    elsewhere. The assignment must cover every parameter id.

    Raises:
        IndexOutOfRangeError: a row or support index lies outside ``1..n``.
        MissingParameterError: a parameter id is not assigned.
        ArityMismatchError: a row or an assigned vector has the wrong size.
    """
    vectors = _checked_vectors(pmc, assignment)
    matrix = np.zeros((pmc.n, pmc.n), dtype=np.float64)
    for row, vec in pmc.concrete_rows.items():
        matrix[row - 1, :] = vec
    for param, vec in zip(pmc.parameters, vectors):
        matrix[param.row - 1, np.asarray(param.support, dtype=np.intp) - 1] = vec
    return matrix


def model_digest(pmc: Pmc) -> str:
    """Short stable hash of the model's structure and numbers.

    Hashes the prefix ``pmc-digest-v2`` and little-endian int64/float64 bytes,
    never a numpy repr: the state count and initial distribution, then each row
    in state order as (index, kind, id, support, length) ahead of its numbers.
    """
    digest = hashlib.sha256(b"pmc-digest-v2")
    digest.update(np.array([pmc.n, pmc.initial.size], dtype="<i8").tobytes())
    digest.update(np.ascontiguousarray(pmc.initial, dtype="<f8"))
    rows = [(row, 0, b"", (), vec) for row, vec in pmc.concrete_rows.items()]
    rows += [(p.row, 1, p.id.encode("utf-8"), p.support, p.reference) for p in pmc.parameters]
    for row, kind, ident, support, vec in sorted(rows, key=lambda r: r[:2]):
        header = [row, kind, len(ident), len(support), *support, vec.size]
        digest.update(np.array(header, dtype="<i8").tobytes() + ident)
        digest.update(np.ascontiguousarray(vec, dtype="<f8"))  # the row itself, no copy
    return digest.hexdigest()[:12]
