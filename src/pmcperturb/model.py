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
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple

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
#: Entries of dense concrete rows made at once from the CSR store (512 kB).
_DENSE_ENTRIES = 1 << 16


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


class SparseRow(NamedTuple):
    """One row in compact form: its length, and the 0-based columns and values it keeps."""

    size: int
    indices: np.ndarray
    data: np.ndarray


def sparse_row(values) -> SparseRow:
    """The compact form of a row: every entry whose bits are not +0.0.

    ``-0.0`` and NaN entries are kept, so the dense row comes back exactly.
    A row that keeps every entry keeps ``values`` itself (flattened) as its
    ``data``, without a gather.
    """
    vec = np.asarray(values, dtype=np.float64).reshape(-1)
    at = vec.view(np.uint64).nonzero()[0]
    return SparseRow(vec.size, at.astype(np.int32), vec if at.size == vec.size else vec[at])


class ConcreteRows(Mapping):
    """The concrete rows of a PMC, as one read-only CSR store over states.

    ``states`` holds each row's 1-based state, strictly ascending, and
    ``lengths`` its declared length (``n`` in a valid model). Row ``i``
    keeps the entries at the 0-based columns ``indices[indptr[i]:indptr[i + 1]]``,
    ascending, with the values ``data[indptr[i]:indptr[i + 1]]``: every
    entry whose bits are not +0.0 (:func:`sparse_row`), so a dense row is
    recovered bit for bit. :meth:`from_rows` builds the store from dense
    rows. As a ``Mapping[int, ndarray]``, a lookup densifies one row; the
    package reads the arrays, or :meth:`dense_rows` a block at a time.
    """

    __slots__ = ("states", "lengths", "indptr", "indices", "data")

    def __init__(self, states, lengths, indptr, indices, data):
        self.states = np.asarray(states, dtype=np.int64)
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int32)
        self.data = np.asarray(data, dtype=np.float64)
        if not (self.lengths.size == self.states.size == self.indptr.size - 1
                and self.indices.size == self.data.size == self.indptr[-1]
                and (self.states[1:] > self.states[:-1]).all()):
            raise ValueError("ConcreteRows: inconsistent arrays, or states not ascending")
        for array in (self.states, self.lengths, self.indptr, self.indices, self.data):
            array.flags.writeable = False

    @classmethod
    def from_rows(cls, rows) -> ConcreteRows:
        """The store of ``(state, vector)`` pairs, in any order, one pair per state."""
        pairs = sorted(((int(state), sparse_row(vec)) for state, vec in rows),
                       key=lambda pair: pair[0])
        return cls([state for state, _ in pairs], [row.size for _, row in pairs],
                   np.cumsum([0, *(row.data.size for _, row in pairs)]),
                   np.concatenate([np.zeros(0, np.int32), *(row.indices for _, row in pairs)]),
                   np.concatenate([np.zeros(0), *(row.data for _, row in pairs)]))

    @property
    def block_rows(self) -> int:
        """Rows in a block of :meth:`dense_rows`: ``_DENSE_ENTRIES`` numbers, or one row."""
        return max(1, _DENSE_ENTRIES // int(self.lengths.max(initial=1)))

    def dense_rows(self):
        """Each stored row as a read-only vector, in state order.

        The rows are densified a block at a time, of at most
        ``_DENSE_ENTRIES`` numbers (or one row), never all at once. A block
        whose rows store every entry is read from ``data`` as it is.
        """
        width = int(self.lengths.max(initial=1))
        step = self.block_rows
        for start in range(0, len(self), step):
            bounds = self.indptr[start:start + step + 1]
            lo, hi, count = bounds[0], bounds[-1], bounds.size - 1
            if hi - lo == count * width:  # each row stores all of its width columns
                block = self.data[lo:hi].reshape(count, width)
            else:
                block = np.zeros((count, width))
                block[np.repeat(np.arange(count), np.diff(bounds)),
                      self.indices[lo:hi]] = self.data[lo:hi]
                block.flags.writeable = False
            for j, size in enumerate(self.lengths[start:start + step].tolist()):
                yield block[j, :size]

    def __getitem__(self, state) -> np.ndarray:
        """The row of ``state`` as a fresh read-only dense vector."""
        try:
            i = int(np.searchsorted(self.states, operator.index(state)))
        except (TypeError, OverflowError):
            raise KeyError(state) from None
        if i == self.states.size or self.states[i] != state:
            raise KeyError(state)
        lo, hi = self.indptr[i], self.indptr[i + 1]
        vec = np.zeros(self.lengths[i])
        vec[self.indices[lo:hi]] = self.data[lo:hi]
        vec.flags.writeable = False
        return vec

    def __iter__(self):
        return iter(self.states.tolist())

    def __len__(self) -> int:
        return self.states.size


@dataclass(frozen=True)
class Pmc:
    """A parametric Markov chain.

    Every state ``1..n`` owns exactly one outgoing row, either a concrete
    probability vector in ``concrete_rows`` or a single entry of
    ``parameters`` (at most one parameter per row). ``concrete_rows`` may
    be given as any mapping of state to vector; it is kept as one
    :class:`ConcreteRows` store, which holds the rows' stored entries
    only. Construction only coerces types; semantic checks live in
    :func:`validate_pmc` so that malformed models can be inspected and
    reported rather than rejected at construction time.
    """

    n: int
    initial: np.ndarray
    concrete_rows: ConcreteRows
    parameters: tuple[DistributionParameter, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "initial", as_vector(self.initial))
        if not isinstance(self.concrete_rows, ConcreteRows):
            object.__setattr__(self, "concrete_rows",
                               ConcreteRows.from_rows(dict(self.concrete_rows).items()))
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
    with np.errstate(invalid="ignore"):  # inf + -inf sums to NaN, which fails the check
        total = float(vec.sum())
    if not abs(total - 1.0) <= STOCHASTIC_TOL:
        out.append(Violation(ViolationKind.ROW_NOT_STOCHASTIC, row,
                             f"{what} sums to {total!r}, expected 1"))


def _concrete_violations(rows: ConcreteRows, n: int, out: list[Violation]) -> None:
    """The violations of the concrete rows, in state order, by segment reductions.

    Each row's min and sum are reduced over its stored entries (an implicit
    zero fails neither check). Only a failing row is read again, for the
    position of its entry.
    """
    placed = (rows.states >= 1) & (rows.states <= n)
    sized = placed & (rows.lengths == n)
    stored = np.diff(rows.indptr)
    filled = np.flatnonzero(stored)  # reduceat gives an empty segment the next one's entry
    sums, mins = np.zeros(stored.size), np.zeros(stored.size)
    if filled.size:
        starts = rows.indptr[filled]
        with np.errstate(invalid="ignore"):  # inf + -inf sums to NaN, which fails the check
            sums[filled] = np.add.reduceat(rows.data, starts)
        mins[filled] = np.minimum.reduceat(rows.data, starts)
    # Written so that a NaN fails both checks: every comparison with NaN is false.
    negative = sized & ~(mins >= -STOCHASTIC_TOL)
    unstochastic = sized & ~(np.abs(sums - 1.0) <= STOCHASTIC_TOL)
    for i in np.flatnonzero(~sized | negative | unstochastic).tolist():
        row = int(rows.states[i])
        if not placed[i]:
            out.append(Violation(ViolationKind.BAD_PLACEMENT, row,
                                 f"concrete row index {row} outside 1..{n}"))
        elif not sized[i]:
            out.append(Violation(ViolationKind.ARITY_MISMATCH, row,
                                 f"row {row} has {int(rows.lengths[i])} entries, expected {n}"))
        else:
            if negative[i]:
                lo, hi = rows.indptr[i], rows.indptr[i + 1]
                at = lo + int(np.argmin(rows.data[lo:hi]))  # the first NaN, if there is one
                value = float(rows.data[at])
                out.append(Violation(
                    ViolationKind.NEGATIVE_ENTRY, row,
                    f"row {row} has {'negative' if value < 0.0 else 'NaN'} entry "
                    f"{value!r} at position {int(rows.indices[at]) + 1}"))
            if unstochastic[i]:
                out.append(Violation(ViolationKind.ROW_NOT_STOCHASTIC, row,
                                     f"row {row} sums to {float(sums[i])!r}, expected 1"))


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

    rows = pmc.concrete_rows
    _concrete_violations(rows, n, out)
    owned = np.zeros(max(n, 0) + 1, dtype=bool)  # whether each state (1-based) has a row
    owned[rows.states[(rows.states >= 1) & (rows.states <= n)]] = True

    owner: dict[int, str] = {}  # the parameter that owns each row
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
        if owned[param.row]:
            out.append(Violation(ViolationKind.DUPLICATE_ROW, param.row,
                                 f"row {param.row} defined more than once "
                                 f"(parameter {param.id!r} vs "
                                 f"{owner.get(param.row, 'concrete')})"))
        owned[param.row] = True
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

    for state in (np.flatnonzero(~owned[1:]) + 1).tolist():
        out.append(Violation(ViolationKind.ROW_MISSING, state,
                             f"state {state} has no outgoing row"))

    return ValidationResult(ok=not out, violations=tuple(out))


def _checked_vectors(pmc: Pmc, assignment: Assignment | None) -> list[np.ndarray]:
    """Each parameter's vector at ``assignment`` (the references if None), in order.

    Checks first that the rows can be indexed. Raises as :func:`instantiate`.
    """
    n = pmc.n
    rows = pmc.concrete_rows
    bad = np.flatnonzero((rows.states < 1) | (rows.states > n) | (rows.lengths != n))
    if bad.size:
        row, size = int(rows.states[bad[0]]), int(rows.lengths[bad[0]])
        if not 1 <= row <= n:
            raise IndexOutOfRangeError(f"concrete row {row} outside 1..{n}")
        raise ArityMismatchError(f"concrete row {row} has {size} entries, expected {n}")
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
    rows = pmc.concrete_rows
    matrix[np.repeat(rows.states - 1, np.diff(rows.indptr)), rows.indices] = rows.data
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
    dense = pmc.concrete_rows.dense_rows()  # a block of dense rows at a time, in state order
    rows = [(row, 0, b"", (), None) for row in pmc.concrete_rows]
    rows += [(p.row, 1, p.id.encode("utf-8"), p.support, p.reference) for p in pmc.parameters]
    for row, kind, ident, support, vec in sorted(rows, key=lambda r: r[:2]):
        if not kind:
            vec = next(dense)
        header = [row, kind, len(ident), len(support), *support, vec.size]
        digest.update(np.array(header, dtype="<i8").tobytes() + ident)
        digest.update(np.ascontiguousarray(vec, dtype="<f8"))  # the row itself, no copy
    return digest.hexdigest()[:12]
