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
``A`` and that mask, it holds ``I - A`` on the mask and gives ``t = N b``
and, transposed, the visit weights ``s = iota_c N`` (``N = (I - A)^{-1}``),
both zero off the mask, with ``t`` held to the residual ceiling
``RESIDUAL_HARD`` on the whole system and clipped to [0, 1]. An exactly
singular block raises :class:`SingularSystemError`. The kernel follows
the form of ``A``; no caller branches on it:

* A dense ``A``: the mask comes from a frontier search. The gathered block
  is kept, read-only, and LAPACK ``gesv`` (``numpy.linalg.solve``) solves
  it for ``t`` and, transposed, for ``s``: one LU per right-hand side,
  since numpy keeps no factor. The sampled systems on the same mask are
  patched into stacked copies of the system and of the block, one
  ``gesv`` call and one residual check per chunk.
* A CSR ``A``: the mask comes from one breadth-first search from a virtual
  state joined to every state with ``b > 0``, and SuperLU
  (``scipy.sparse.linalg.splu``) factors once and solves.

:func:`extract_system` is the one extraction and the one place that picks
the form; it reads both forms from the model rows, never through the
``n x n`` transition matrix, into one :class:`LinearSystem` whose ``slots``
record where each parameter row writes. The reference is kept, with its
factor, as ``perturbation.ReferenceSolve``; its ``h`` gather and every
sampled re-solve (``sampler``, on a copy by :func:`_sample_solutions`)
read those slots. The sparse form
is chosen when the constraint block has at least ``SPARSE_MIN_STATES``
states and its bandwidth in canonical order (the largest ``|i - j|`` over
stored entries) is at most its size over ``SPARSE_BANDWIDTH_DIVISOR``.
Fill-in of the LU factors grows with the bandwidth, and at these bounds
SuperLU beat the dense LU at every size measured even on a full band; a
random sparse pattern of the same size has a bandwidth near ``n`` and
fills in far more, so it stays dense. Below ``SPARSE_MIN_STATES`` a dense
factorization costs a few milliseconds at most. scipy is imported inside
the sparse branches only: it is the largest import of the program, and a
model that stays dense never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ArityMismatchError,
    EmptyDestinationError,
    IndexOutOfRangeError,
    SingularSystemError,
)
from .model import Assignment, Pmc, _checked_vectors, as_vector

#: Hard ceiling on the fixed-point residual of any returned solution.
RESIDUAL_HARD = 1e-10

#: Smallest constraint block that the sparse kernel is chosen for.
SPARSE_MIN_STATES = 512
#: The sparse kernel needs a bandwidth of at most the block size over this.
SPARSE_BANDWIDTH_DIVISOR = 32
#: Entries of destination segments summed at once by the extraction (512 kB).
_MASS_ENTRIES = 1 << 16
#: Entries of sampled dense systems ``A`` stacked into one chunk (512 kB).
_SOLVE_ENTRIES = 1 << 16


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
    """``(A, b)`` of a canonical problem, and where each parameter row writes.

    ``a`` is dense, under the rule of ``as_vector`` (a read-only float64
    array that owns its data is shared; anything else is copied), or CSR:
    a CSR matrix is kept as given and any other ``scipy.sparse`` matrix is
    converted by ``tocsr()``, since the sparse kernel reads CSR row pointers.
    :func:`extract_system`'s CSR stores every support position, reference
    zeros included. ``slots`` holds each parameter's canonical
    ``(row, support)``, 0-based and read-only, in model order.
    """

    a: object
    b: np.ndarray
    slots: tuple[tuple[int, np.ndarray], ...] = ()

    def __post_init__(self):
        a = self.a
        if hasattr(a, "tocsr"):
            a = a.tocsr()
        elif not (isinstance(a, np.ndarray) and a.dtype == np.float64
                  and a.base is None and not a.flags.writeable):
            a = np.array(a, dtype=np.float64)
            a.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", as_vector(self.b))


def extract_system(pmc: Pmc, cp: CanonicalProblem,
                   assignment: Assignment | None = None) -> LinearSystem:
    """``(A, b)`` of a canonical problem, at ``assignment`` (the references if None).

    The one extraction and kernel dispatch (module docstring): the entries
    that :func:`_constraint_entries` reads from the model rows, packed into
    a CSR ``a`` for a large banded block and scattered into a fresh dense
    one otherwise. A bad index, size or parameter id raises as
    ``model._checked_vectors`` says, before :func:`_parameter_slots` runs.
    """
    nq = cp.n_constraint
    vectors = _checked_vectors(pmc, assignment)
    slots = _parameter_slots(pmc, cp)
    rows, cols, values, b = _constraint_entries(pmc, cp, vectors, slots)
    if nq >= SPARSE_MIN_STATES \
            and np.abs(rows - cols).max(initial=0) * SPARSE_BANDWIDTH_DIVISOR <= nq:
        from scipy.sparse import csr_matrix

        order = np.lexsort((cols, rows))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=nq))])
        a = csr_matrix((values[order], cols[order], indptr), shape=(nq, nq))
        for array in (a.data, a.indices, a.indptr):
            array.flags.writeable = False
        return LinearSystem(a=a, b=b, slots=slots)
    a = np.zeros((nq, nq))
    a[rows, cols] = values
    a.flags.writeable = False  # fresh, so LinearSystem keeps it without a copy
    return LinearSystem(a=a, b=b, slots=slots)


def _parameter_slots(pmc: Pmc, cp: CanonicalProblem) -> tuple[tuple[int, np.ndarray], ...]:
    """``LinearSystem.slots``: the one map of parameter rows to canonical positions."""
    pos = np.asarray(cp.permutation, dtype=np.intp) - 1
    slots = tuple((int(pos[p.row - 1]), pos[np.asarray(p.support, dtype=np.intp) - 1])
                  for p in pmc.parameters)
    for _, support in slots:
        support.flags.writeable = False
    return slots


def _destination_mass(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, count: int,
                      cp: CanonicalProblem) -> np.ndarray:
    """Each of ``count`` rows' mass in the destination block, from its entries there.

    ``rows``, ``cols`` (canonical positions in the destination block) and
    ``values`` broadcast together. Sums the whole destination-ordered
    segment of each row, zeros included, for concrete and parameter rows
    alike, so the result has the bits of the same sum over a row of the
    ``n x n`` transition matrix.
    """
    d0 = cp.destination_start - 1
    segment = np.zeros((count, cp.n - d0))
    segment[rows, cols - d0] = values
    return segment.sum(axis=1)


def _constraint_entries(pmc: Pmc, cp: CanonicalProblem, vectors, slots):
    """``A`` as canonical ``(rows, cols, values)`` entries, and ``b``, at ``vectors``.

    Read from the model rows for both kernels, without an ``n x n`` matrix:
    the stored entries of the concrete constraint rows, read from the CSR
    store (``model.ConcreteRows``) in one pass, then the parameter rows'
    entries by :func:`_parameter_entries`, a batch of one. Middle-block
    entries and zeros drop out of ``A``, and each output array is written
    once. ``b`` sums each row by :func:`_destination_mass`, at most
    ``_MASS_ENTRIES`` segment entries at a time; a row with no stored entry
    in the destination block keeps 0.
    """
    nq, d0 = cp.n_constraint, cp.destination_start - 1
    store = pmc.concrete_rows
    pos = np.asarray(cp.permutation, dtype=np.intp) - 1
    row = np.repeat(pos[store.states - 1], np.diff(store.indptr))
    col = pos[store.indices]
    inside = row < nq  # whether each entry's row lies in the constraint block

    b = np.zeros(nq)
    outer = np.flatnonzero(inside & (col >= d0))
    if outer.size:
        # the rows with entries in the destination block, numbered in store order
        local = np.cumsum(np.diff(row[outer], prepend=-1) != 0) - 1
        targets = row[outer][np.diff(local, prepend=-1) != 0]
        step = max(1, _MASS_ENTRIES // (cp.n - d0))
        for start in range(0, targets.size, step):
            lo, hi = np.searchsorted(local, (start, start + step))
            part = outer[lo:hi]
            b[targets[start:start + step]] = _destination_mass(
                local[lo:hi] - start, col[part], store.data[part],
                min(step, targets.size - start), cp)
    del outer

    p_row, p_col, p_value, b_rows, b_mass = _parameter_entries(
        cp, slots, [v[None] for v in vectors], 1)
    b[b_rows] = b_mass[0]
    keep = np.flatnonzero(inside & (col < nq) & (store.data != 0.0))
    del inside

    def pack(whole, tail):  # whole[keep] then tail, with no copy of either between
        out = np.empty(keep.size + tail.size, whole.dtype)
        np.take(whole, keep, out=out[:keep.size], mode="clip")  # "clip" takes no buffer
        out[keep.size:] = tail
        return out

    rows = pack(row, p_row)
    del row
    cols = pack(col, p_col)
    del col
    return rows, cols, pack(store.data, p_value[0]), b


def _parameter_entries(cp: CanonicalProblem, slots, vectors, count: int):
    """The ``A`` and ``b`` entries of the parameter rows in the constraint block.

    ``vectors`` holds each parameter's ``count`` vectors as rows, in the
    order of ``slots``; the values come one row per vector, ``b`` summed by
    :func:`_destination_mass`.
    """
    nq, d0 = cp.n_constraint, cp.destination_start - 1
    rows, cols, b_rows = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], []
    values, mass = [np.empty((count, 0))], [np.empty((count, 0))]
    for (row, support), vec in zip(slots, vectors):
        if row < nq:
            inner, outer = support < nq, support >= d0
            rows.append(np.full(int(inner.sum()), row))
            cols.append(support[inner])
            values.append(vec[:, inner])
            b_rows.append(row)
            mass.append(_destination_mass(np.arange(count)[:, None], support[outer],
                                          vec[:, outer], count, cp)[:, None])
    return (np.concatenate(rows), np.concatenate(cols), np.hstack(values),
            np.array(b_rows, dtype=np.intp), np.hstack(mass))


def reach_positive_mask(a, b: np.ndarray) -> np.ndarray:
    """Boolean mask of states with a path along positive ``A`` entries to some ``b[i] > 0``.

    A dense ``a`` is searched one frontier at a time; a CSR ``a`` by one
    breadth-first search over the reversed edges from a virtual state
    joined to every state with ``b > 0``.
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
    """``I - A`` on the ``mask`` states, ready to solve (module docstring).

    A dense ``a`` keeps its gathered block, read-only, which each
    :meth:`solve` hands to LAPACK ``gesv`` and :func:`_sample_solutions`
    patches into stacked copies; a CSR ``a`` is factored once by SuperLU.

    Raises:
        SingularSystemError: the CSR block is exactly singular.
    """

    def __init__(self, a, mask: np.ndarray):
        self.mask, self._block, self._lu = mask, None, None
        if not mask.any():
            return
        if isinstance(a, np.ndarray):
            self._block = np.eye(int(mask.sum())) - a[np.ix_(mask, mask)]
            self._block.flags.writeable = False
        else:
            from scipy.sparse import csc_matrix, identity
            from scipy.sparse.linalg import splu

            try:
                self._lu = splu(csc_matrix(identity(int(mask.sum())) - a[mask][:, mask]))
            except RuntimeError as exc:  # SuperLU reports an exactly singular factor
                raise SingularSystemError(f"sparse LU failed: {exc}") from None

    def solve(self, a, b: np.ndarray, weights: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray | None]:
        """``t`` with ``(I - A) t = b`` and, given ``weights``, ``s`` with ``s (I - A) = weights``.

        ``(a, b)`` is the system whose ``A`` was gathered. ``t`` and ``s``
        are zero off the mask; ``t`` goes through :func:`_checked`. A dense
        block is solved once for ``t`` and, transposed, once for ``s``.

        Raises:
            SingularSystemError: the dense block is exactly singular, or
                ``t`` fails :func:`_checked`.
        """
        mask = self.mask
        t = np.zeros(b.size)
        s = None if weights is None else np.zeros(b.size)
        if self._block is not None:
            t[mask] = _gesv(self._block, b[mask])
            if s is not None:
                s[mask] = _gesv(self._block.T, weights[mask])
        elif self._lu is not None:
            t[mask] = self._lu.solve(b[mask])
            if s is not None:
                s[mask] = self._lu.solve(weights[mask], trans="T")
        return _checked(a, b, t), s


def _gesv(blocks: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """LAPACK ``gesv`` (``numpy.linalg.solve``) on one block or a stack of blocks.

    Raises:
        SingularSystemError: a block, or a block of the stack, is exactly singular.
    """
    try:
        return np.linalg.solve(blocks, rhs)
    except np.linalg.LinAlgError:
        raise SingularSystemError(
            "dense LU failed: the reach-positive block is exactly singular") from None


def _sample_solutions(cp: CanonicalProblem, system: LinearSystem, factor: Factor,
                      vectors, count: int):
    """Each sample's checked ``t``, a chunk at a time: never a ``count x nq`` array.

    ``system`` and ``factor`` are the reference's; ``vectors`` go to the
    ``system.slots`` as :func:`_parameter_entries` says, into a copy of the
    reference ``(A, b)``, which stores every support position, so the
    patched system is ``extract_system``'s at the sample, bit for bit. Only
    a positive/zero pattern other than the references' costs a reach search,
    and a sample whose search finds another mask gets a fresh
    :class:`Factor`. A CSR system, or a reference with nothing
    reach-positive, is patched and solved one sample at a time.

    On a dense block, the chunk's samples go into stacked copies of
    ``(A, b)`` and of the kept block, made once per call: each chunk
    rewrites only the parameter positions, with ``eye`` less the values in
    the block (1.0 on the diagonal, 0.0 off it: the bits of a fresh
    gather). The samples that keep the reference mask are solved by one
    :func:`_gesv` and go through :func:`_checked` together, on their own
    patched systems, so each ``t`` equals a :func:`solve_reachability`
    re-solve. A chunk stacks at most ``_SOLVE_ENTRIES`` entries of ``A``,
    so a large system is solved alone.
    """
    rows, cols, values, b_rows, b_values = _parameter_entries(cp, system.slots, vectors, count)
    # A CSR ``a`` gives a 1 x k matrix, and a sparse one for k = 0
    reference = np.asarray(system.a[rows, cols]).reshape(-1) if rows.size else np.zeros(0)
    same_pattern = (((values > 0.0) == (reference > 0.0)).all(axis=1)
                    & ((b_values > 0.0) == (system.b[b_rows] > 0.0)).all(axis=1))
    mask, kept = factor.mask, factor._block
    if kept is None:
        a, b = system.a.copy(), np.array(system.b)
        for k in range(count):
            a[rows, cols] = values[k]
            b[b_rows] = b_values[k]
            yield Factor(a, mask if same_pattern[k] else reach_positive_mask(a, b)).solve(a, b)[0]
        return

    step = max(1, min(count, _SOLVE_ENTRIES // system.a.size))
    a, b, blocks = (np.repeat(x[None], step, axis=0) for x in (system.a, system.b, kept))
    inside = mask[rows] & mask[cols]
    r, c = rows[inside], cols[inside]
    order = np.cumsum(mask) - 1
    at, eye = (order[r], order[c]), np.where(r == c, 1.0, 0.0)
    for start in range(0, count, step):
        n = min(step, count - start)
        a[:n, rows, cols] = values[start:start + n]
        b[:n, b_rows] = b_values[start:start + n]
        others = {}  # the chunk's samples whose reach search finds another mask
        for j in np.flatnonzero(~same_pattern[start:start + n]).tolist():
            sample_mask = reach_positive_mask(a[j], b[j])
            if not np.array_equal(sample_mask, mask):
                others[j] = sample_mask
        stack = slice(n) if not others else [j for j in range(n) if j not in others]
        kept_values, kept_b = values[start:start + n][stack], b[stack]
        blocks[:len(kept_b), at[0], at[1]] = eye - kept_values[:, inside]
        t = np.zeros(kept_b.shape)
        t[:, mask] = _gesv(blocks[:len(kept_b)], kept_b[:, mask, None])[..., 0]
        solved = iter(_checked(a[stack], kept_b, t))
        for j in range(n):
            yield Factor(a[j], others[j]).solve(a[j], b[j])[0] if j in others else next(solved)


def _checked(a, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``t`` held to ``RESIDUAL_HARD`` on the whole system, clipped to [0, 1], read-only.

    ``a``, ``b`` and ``t`` may carry a leading stack axis, one system per
    row of ``t``: every row is checked at once, and the first that fails is
    named.
    """
    residual = np.abs(t - ((a @ t[..., None])[..., 0] + b)).max(axis=-1, initial=0.0)
    failed = np.flatnonzero(~(residual <= RESIDUAL_HARD))  # a NaN residual fails too
    if failed.size:
        raise SingularSystemError(
            f"direct solve residual {float(residual.flat[failed[0]]):.3e} "
            f"exceeds {RESIDUAL_HARD:.0e}")
    t = t.clip(0.0, 1.0)
    t.flags.writeable = False
    return t


def solve_reachability(system: LinearSystem) -> np.ndarray:
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
