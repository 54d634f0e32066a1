"""Constrained reachability: canonical problems, system extraction, solving.

A constrained-reachability problem asks for the probability of reaching a
destination state while passing only through constraint states. After
canonicalization (constraint block first, destination block last) the
per-state probabilities ``p`` solve

    p = A p + b

where ``A`` is the constraint-block submatrix of the transition matrix and
``b[i]`` collects the one-step mass from constraint state ``i`` into the
destination block. ``p`` is the least fixed point; it equals the limit of
the non-decreasing partial sums ``sum_j A^j b``.

The solver first restricts the system to constraint states with a positive
probability of reaching the destination (a path along positive ``A``
entries to a state with ``b > 0``; explicit zeros are not edges); on that
block ``I - A`` is non-singular, and all other states get probability
exactly zero. :class:`Factor` is the one solver interface: built from
``A`` and that mask, it factors ``I - A`` on the mask once, then gives
``t = N b`` and, transposed, the visit weights ``s = iota_c N``
(``N = (I - A)^{-1}``), both zero off the mask, with ``t`` held to the
residual ceiling ``RESIDUAL_HARD`` on the whole system and clipped to
[0, 1]. An exactly singular block raises :class:`SingularSystemError`. The
kernel follows the form of ``A``; no caller branches on it:

* A dense ``A`` (:class:`LinearSystem`, from :func:`extract_system`): the
  mask comes from a frontier search, and LAPACK ``getrf``/``getrs`` factor
  and solve, called as ``scipy.linalg.lu_factor``/``lu_solve`` call them
  but without their per-call input checks, so results keep their bits. The
  gathered block is kept, and a sampled system is factored from a copy of
  it (:meth:`Factor.patcher`).
* A CSR ``A`` (:class:`SparseSystem`), read straight from the model rows
  without an ``n x n`` matrix: the mask comes from one breadth-first search
  from a virtual state joined to every state with ``b > 0``, and SuperLU
  (``scipy.sparse.linalg.splu``) factors and solves.

``_reference_system`` is the one place that picks the form, for the
reference solve (kept, with its factor, as ``perturbation.ReferenceSolve``);
every sampled re-solve (``sampler``) patches a copy of the reference ``A``
and keeps its form. The sparse form is chosen when the constraint block has
at least ``SPARSE_MIN_STATES`` states
and its bandwidth in canonical order (the largest ``|i - j|`` over stored
entries) is at most its size over ``SPARSE_BANDWIDTH_DIVISOR``. Fill-in of
the LU factors grows with the bandwidth, and at these bounds SuperLU beat
the dense LU at every size measured even on a full band; a random sparse
pattern of the same size has a bandwidth near ``n`` and fills in far more,
so it stays dense. Below ``SPARSE_MIN_STATES`` a dense factorization costs
a few milliseconds at most. ``scipy.sparse`` is imported inside the sparse
branch only: it is a noticeable import, and a model that stays dense never
pays for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ArityMismatchError,
    EmptyDestinationError,
    IndexOutOfRangeError,
    SingularSystemError,
)
from .model import Assignment, Pmc, as_vector, instantiate, reference_assignment

#: Hard ceiling on the fixed-point residual of any returned solution.
RESIDUAL_HARD = 1e-10

#: Smallest constraint block that the sparse kernel is chosen for.
SPARSE_MIN_STATES = 512
#: The sparse kernel needs a bandwidth of at most the block size over this.
SPARSE_BANDWIDTH_DIVISOR = 32
#: Entries of concrete rows scanned at once by the sparse extraction (512 kB).
_SCAN_ENTRIES = 1 << 16

_getrf, _getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)


@dataclass(frozen=True)
class ReachabilityProblem:
    """Constraint set (may be passed through) and destination set (to reach)."""

    constraint: frozenset[int]
    destination: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "constraint", frozenset(int(s) for s in self.constraint))
        object.__setattr__(self, "destination", frozenset(int(s) for s in self.destination))


@dataclass(frozen=True)
class CanonicalProblem:
    """A state reordering placing constraint states first, destination last.

    Attributes:
        order: ``order[k]`` is the original 1-based state at canonical
            position ``k + 1`` (the inverse mapping, for reporting).
        permutation: ``permutation[i - 1]`` is the canonical position of
            original state ``i`` (1-based).
        n_constraint: size of the constraint block (block occupies
            canonical positions ``1..n_constraint``).
        destination_start: first canonical position of the destination
            block (block occupies ``destination_start..n``).
        n: state count.
    """

    order: tuple[int, ...]
    permutation: tuple[int, ...]
    n_constraint: int
    destination_start: int
    n: int

    @property
    def constraint_states(self) -> tuple[int, ...]:
        """Original labels of the constraint block, in canonical order."""
        return self.order[: self.n_constraint]

    @property
    def destination_states(self) -> tuple[int, ...]:
        """Original labels of the destination block, in canonical order."""
        return self.order[self.destination_start - 1:]


def canonicalize(pmc: Pmc, problem: ReachabilityProblem) -> CanonicalProblem:
    """Normalize a reachability problem for system extraction.

    States appearing in both sets are treated as destination only (the
    constraint set is replaced by ``constraint \\ destination``). Within each
    block states keep ascending original order, so the permutation is
    deterministic.

    Raises:
        EmptyDestinationError: the destination set is empty.
        IndexOutOfRangeError: a state index lies outside ``1..n``.
    """
    n = pmc.n
    if not problem.destination:
        raise EmptyDestinationError("destination set must not be empty")
    for s in sorted(problem.constraint | problem.destination):
        if not 1 <= s <= n:
            raise IndexOutOfRangeError(f"state {s} outside 1..{n}")

    destination = sorted(problem.destination)
    constraint = sorted(problem.constraint - problem.destination)
    middle = sorted(set(range(1, n + 1)) - set(constraint) - set(destination))
    order = tuple(constraint + middle + destination)
    permutation = [0] * n
    for pos, state in enumerate(order, start=1):
        permutation[state - 1] = pos
    return CanonicalProblem(
        order=order,
        permutation=tuple(permutation),
        n_constraint=len(constraint),
        destination_start=n - len(destination) + 1,
        n=n,
    )


@dataclass(frozen=True)
class LinearSystem:
    """The pair ``(A, b)`` of a canonical problem."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = self.a
        # The rule of ``as_vector``: a read-only float64 array that owns its
        # data is shared; anything else, a writable array included, is copied.
        if not (isinstance(a, np.ndarray) and a.dtype == np.float64
                and a.base is None and not a.flags.writeable):
            a = np.array(a, dtype=np.float64)
            a.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", as_vector(self.b))


@dataclass(frozen=True)
class SparseSystem:
    """The pair ``(A, b)`` of a canonical problem, ``A`` in CSR form.

    ``a`` is a read-only ``scipy.sparse.csr_matrix`` with sorted column
    indices and no duplicates. It stores the non-zero entries of the concrete
    rows and every support position of a parameter row inside the constraint
    block, reference zeros included, so that an assignment only overwrites
    stored entries.
    """

    a: object
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", as_vector(self.b))


def extract_system(pmc: Pmc, cp: CanonicalProblem,
                   assignment: Assignment | None = None) -> LinearSystem:
    """Extract ``(A, b)`` for a canonical problem.

    ``A`` is the constraint-block submatrix of the instantiated transition
    matrix (at the references unless ``assignment`` is given) and
    ``b[i]`` sums row ``i``'s mass over the destination block.
    """
    if assignment is None:
        assignment = reference_assignment(pmc)
    matrix = instantiate(pmc, assignment)
    constraint = np.asarray(cp.constraint_states, dtype=np.intp) - 1
    destination = np.asarray(cp.destination_states, dtype=np.intp) - 1
    a = matrix[np.ix_(constraint, constraint)]
    a.flags.writeable = False  # fresh, so LinearSystem keeps it without a copy
    return LinearSystem(a=a, b=matrix[np.ix_(constraint, destination)].sum(axis=1))


def _destination_mass(values: np.ndarray, cols: np.ndarray, cp: CanonicalProblem) -> np.ndarray:
    """Each row's mass in the destination block; ``cols`` are the canonical positions of a row.

    Sums the whole destination-ordered segment of the row, zeros included,
    as :func:`extract_system` sums a row of the instantiated matrix, so the
    result has the same bits.
    """
    d0 = cp.destination_start - 1
    outer = cols >= d0
    segment = np.zeros((values.shape[0], cp.n - d0))
    segment[:, cols[outer] - d0] = values[:, outer]
    return segment.sum(axis=1)


def _constraint_entries(pmc: Pmc, cp: CanonicalProblem):
    """The reference ``A`` as canonical ``(rows, cols, values)`` entries, and ``b``.

    Read from the model rows without instantiating the chain: the non-zero
    entries of each concrete constraint row, scanned a block of rows at a
    time, and every support position of each parameter row of the
    constraint block, reference zeros included. Destination entries are
    summed into ``b``, in column order for a concrete row and by
    :func:`_destination_mass` for a parameter row; middle-block entries drop out.

    Raises:
        ArityMismatchError: a concrete row does not have ``n`` entries.
    """
    n, nq = cp.n, cp.n_constraint
    pos = np.asarray(cp.permutation, dtype=np.intp) - 1
    states = [s for s in cp.constraint_states if s in pmc.concrete_rows]
    canonical = pos[np.asarray(states, dtype=np.intp) - 1]
    for state in states:
        if pmc.concrete_rows[state].size != n:
            raise ArityMismatchError(f"concrete row {state} has "
                                     f"{pmc.concrete_rows[state].size} entries, expected {n}")
    rows, cols, values = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0)]
    step = max(1, _SCAN_ENTRIES // n)
    for start in range(0, len(states), step):
        block = np.concatenate([pmc.concrete_rows[s] for s in states[start:start + step]])
        index = np.flatnonzero(block != 0.0)
        rows.append(canonical[start + index // n])
        cols.append(pos[index % n])
        values.append(block[index])
    rows, cols, values = np.concatenate(rows), np.concatenate(cols), np.concatenate(values)
    outer = cols >= cp.destination_start - 1
    # astype: with no destination entries at all, bincount returns integers
    b = np.bincount(rows[outer], weights=values[outer], minlength=nq).astype(np.float64)
    inner = cols < nq
    rows, cols, values = [rows[inner]], [cols[inner]], [values[inner]]
    for param in pmc.parameters:
        row = pos[param.row - 1]
        if row < nq:
            support = pos[np.asarray(param.support, dtype=np.intp) - 1]
            b[row] = _destination_mass(param.reference[None, :], support, cp)[0]
            inner = support < nq
            rows.append(np.full(int(inner.sum()), row))
            cols.append(support[inner])
            values.append(param.reference[inner])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(values), b


def _reference_system(pmc: Pmc, cp: CanonicalProblem) -> LinearSystem | SparseSystem:
    """The reference ``(A, b)``, dense or sparse: the one place that picks the kernel.

    Sparse when the constraint block has at least ``SPARSE_MIN_STATES``
    states and a bandwidth of at most its size over
    ``SPARSE_BANDWIDTH_DIVISOR`` (module docstring); :func:`extract_system`
    otherwise.
    """
    nq = cp.n_constraint
    if nq >= SPARSE_MIN_STATES:
        rows, cols, values, b = _constraint_entries(pmc, cp)
        if np.abs(rows - cols).max(initial=0) * SPARSE_BANDWIDTH_DIVISOR <= nq:
            from scipy.sparse import csr_matrix

            order = np.lexsort((cols, rows))
            indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=nq))])
            a = csr_matrix((values[order], cols[order], indptr), shape=(nq, nq))
            for array in (a.data, a.indices, a.indptr):
                array.flags.writeable = False
            return SparseSystem(a=a, b=b)
    return extract_system(pmc, cp)


def reach_positive_mask(a, b: np.ndarray) -> np.ndarray:
    """Boolean mask of states with a path along positive ``A`` entries to some ``b[i] > 0``.

    A dense ``a`` is searched one frontier at a time; a CSR ``a`` (of a
    :class:`SparseSystem`) by one breadth-first search over the reversed
    edges from a virtual state joined to every state with ``b > 0``.
    """
    if not isinstance(a, np.ndarray):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import breadth_first_order

        n = b.size
        edge = a.data > 0.0
        sources = np.flatnonzero(b > 0.0)
        heads = np.concatenate([a.indices[edge], np.full(sources.size, n)])
        tails = np.concatenate([np.repeat(np.arange(n), np.diff(a.indptr))[edge], sources])
        graph = csr_matrix((np.ones(heads.size), (heads, tails)), shape=(n + 1, n + 1))
        reached = np.zeros(n + 1, dtype=bool)
        reached[breadth_first_order(graph, n, return_predecessors=False)] = True
        return reached[:n]
    adjacency = a > 0.0
    reached = b > 0.0
    frontier = reached.copy()
    while frontier.any():
        frontier = adjacency[:, frontier].any(axis=1) & ~reached
        reached |= frontier
    return reached


class Factor:
    """``I - A`` on the ``mask`` states, factored once (module docstring).

    A dense ``a`` is factored by ``getrf``, and its gathered block kept,
    read-only, for :meth:`patcher`; a CSR ``a`` by SuperLU. ``block`` (from
    :meth:`patcher` only) is a dense block already gathered, factored in
    place and not kept.

    Raises:
        SingularSystemError: the block is exactly singular.
    """

    def __init__(self, a, mask: np.ndarray, block: np.ndarray | None = None):
        self.mask, self._block, self._apply = mask, None, None
        dense = isinstance(a, np.ndarray)
        if block is None and dense and mask.any():
            block = np.subtract(np.eye(int(mask.sum())), a[np.ix_(mask, mask)], order="F")
            block.flags.writeable = False
            self._block = block
        if block is not None:
            # getrf copies the kept, read-only block and overwrites a patched one
            lu, piv, info = _getrf(block, overwrite_a=block.flags.writeable)
            if info > 0:
                raise SingularSystemError(f"dense LU failed: pivot U[{info}, {info}] "
                                          f"of the reach-positive block is exactly 0")
            self._apply = lambda rhs, trans: _getrs(lu, piv, rhs, trans=trans)[0]
        elif not dense and mask.any():
            from scipy.sparse import csc_matrix, identity
            from scipy.sparse.linalg import splu

            try:
                lu = splu(csc_matrix(identity(int(mask.sum())) - a[mask][:, mask]))
            except RuntimeError as exc:  # SuperLU reports an exactly singular factor
                raise SingularSystemError(f"sparse LU failed: {exc}") from None
            self._apply = lambda rhs, trans: lu.solve(rhs, trans="NT"[trans])

    def solve(self, a, b: np.ndarray, weights: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray | None]:
        """``t`` with ``(I - A) t = b`` and, given ``weights``, ``s`` with ``s (I - A) = weights``.

        ``(a, b)`` is the system whose ``A`` was factored. ``t`` and ``s``
        are zero off the mask; ``t`` goes through :func:`_checked`.
        """
        t = np.zeros(b.size)
        s = None if weights is None else np.zeros(b.size)
        if self._apply is not None:
            t[self.mask] = self._apply(b[self.mask], 0)
            if s is not None:
                s[self.mask] = self._apply(weights[self.mask], 1)
        return _checked(a, b, t), s

    def patcher(self, rows: np.ndarray, cols: np.ndarray):
        """A function from a system's ``a`` to its :class:`Factor` on this mask.

        ``a`` may differ from the factored ``A`` only at ``(rows, cols)``. A
        dense factor copies its kept block and writes ``eye - a`` at the
        positions inside it, found once here (1.0 on the diagonal, 0.0 off
        it: the bits of a fresh gather). Without a kept block (sparse, or
        itself patched), ``a`` is gathered again.
        """
        mask = self.mask
        if self._block is None:
            return lambda a: Factor(a, mask)
        inside = mask[rows] & mask[cols]
        rows, cols = rows[inside], cols[inside]
        order = np.cumsum(mask) - 1
        at, eye = (order[rows], order[cols]), np.where(rows == cols, 1.0, 0.0)
        flat = rows * mask.size + cols  # into the C-ordered square ``a``

        def patched(a) -> Factor:
            block = self._block.copy(order="F")
            block[at] = eye - a.take(flat)
            return Factor(a, mask, block)
        return patched


def _checked(a, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``t`` held to ``RESIDUAL_HARD`` on the whole system, clipped to [0, 1], read-only."""
    residual = float(np.abs(t - (a @ t + b)).max(initial=0.0))
    if not residual <= RESIDUAL_HARD:  # a NaN residual (NaN entry, say) fails too
        raise SingularSystemError(
            f"direct solve residual {residual:.3e} exceeds {RESIDUAL_HARD:.0e}")
    t = t.clip(0.0, 1.0)
    t.flags.writeable = False
    return t


def solve_reachability(system: LinearSystem | SparseSystem) -> np.ndarray:
    """Per-state constrained-reachability probabilities ``p`` with ``p = Ap + b``.

    The system is restricted to reach-positive states and ``(I - A) p = b``
    is solved there; states that cannot reach the destination get exactly 0.

    Raises:
        SingularSystemError: the block is exactly singular, or the solve
            violated the residual ceiling (a NaN entry, or an internal error
            the restriction should prevent).
    """
    a, b = system.a, system.b
    return Factor(a, reach_positive_mask(a, b)).solve(a, b)[0]


def constrained_initial(pmc: Pmc, cp: CanonicalProblem) -> np.ndarray:
    """Initial distribution restricted to the canonical constraint block."""
    idx = np.asarray(cp.order[: cp.n_constraint], dtype=np.intp) - 1
    return as_vector(pmc.initial[idx])


def total_probability(initial, p: np.ndarray, cp: CanonicalProblem) -> float:
    """Combine per-state probabilities with the initial distribution.

    Constraint states contribute ``initial[i] * p[i]``, destination states
    contribute their initial mass with probability 1, and remaining states
    contribute 0.

    Raises:
        ArityMismatchError: ``initial`` or ``p`` has the wrong length.
    """
    initial = np.asarray(initial, dtype=np.float64).reshape(-1)
    if initial.size != cp.n:
        raise ArityMismatchError(
            f"initial distribution has {initial.size} entries, expected {cp.n}")
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    if p.size != cp.n_constraint:
        raise ArityMismatchError(
            f"probability vector has {p.size} entries, expected {cp.n_constraint}")
    idx = np.asarray(cp.order, dtype=np.intp) - 1
    canon_initial = initial[idx]
    value = canon_initial[: cp.n_constraint] @ p \
        + canon_initial[cp.destination_start - 1:].sum()
    return float(min(max(value, 0.0), 1.0))
