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
probability of reaching the destination (a path in the ``A``-graph to a
state with ``b > 0``); on that block ``I - A`` is non-singular, and all
other states get probability exactly zero. The mask comes from one reverse
frontier search. One kernel, :func:`_solve_block`, factors the block with
LAPACK ``getrf`` and solves with ``getrs``: ``t = N b`` and, transposed, the
visit weights ``s = iota_c N`` (``N = (I - A)^{-1}``). It calls the two
routines that ``scipy.linalg.lu_factor`` and ``lu_solve`` wrap, without
their per-call input checks, so results keep their bits. The reference
solve and every sampled re-solve (``sampler``) go through it; a sample that
keeps the reference mask patches a copy of the reference block instead of
gathering a new one.
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
        a = np.array(self.a, dtype=np.float64)
        a.flags.writeable = False
        object.__setattr__(self, "a", a)
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
    return LinearSystem(a=matrix[np.ix_(constraint, constraint)],
                        b=matrix[np.ix_(constraint, destination)].sum(axis=1))


def reach_positive_mask(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean mask of states with an ``A``-graph path to some ``b[i] > 0``."""
    adjacency = a > 0.0
    reached = b > 0.0
    frontier = reached.copy()
    while frontier.any():
        frontier = adjacency[:, frontier].any(axis=1) & ~reached
        reached |= frontier
    return reached


def _reach_block(a: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``I - A`` on the ``mask`` states, gathered from ``A``."""
    return np.eye(int(mask.sum())) - a[np.ix_(mask, mask)]


def _solve_block(a: np.ndarray, b: np.ndarray, mask: np.ndarray, block: np.ndarray,
                 weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """``t`` with ``(I - A) t = b`` and, given ``weights``, ``s`` with ``s (I - A) = weights``.

    ``block`` must hold ``I - A`` on the ``mask`` states, as
    :func:`_reach_block` gathers it. It is factored once, in place when it
    is Fortran-ordered, and ``t`` and ``s`` are zero off the mask. ``t``
    must meet ``RESIDUAL_HARD`` on the whole system and is clipped to [0, 1].
    """
    t = np.zeros(b.size)
    s = None if weights is None else np.zeros(b.size)
    if mask.any():
        lu, piv, _ = _getrf(block, overwrite_a=True)
        t[mask] = _getrs(lu, piv, b[mask])[0]
        if s is not None:
            s[mask] = _getrs(lu, piv, weights[mask], trans=1)[0]
    residual = float(np.abs(t - (a @ t + b)).max(initial=0.0))
    if not residual <= RESIDUAL_HARD:  # a NaN residual (singular block, NaN entry) fails too
        raise SingularSystemError(
            f"direct solve residual {residual:.3e} exceeds {RESIDUAL_HARD:.0e}")
    t = t.clip(0.0, 1.0)
    t.flags.writeable = False
    return t, s


def _solve_direct(a: np.ndarray, b: np.ndarray, weights: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """:func:`_solve_block` on the reach-positive mask; returns ``t``, ``s`` and the mask."""
    mask = reach_positive_mask(a, b)
    t, s = _solve_block(a, b, mask, _reach_block(a, mask), weights)
    return t, s, mask


def solve_reachability(system: LinearSystem) -> np.ndarray:
    """Per-state constrained-reachability probabilities ``p`` with ``p = Ap + b``.

    The system is restricted to reach-positive states and ``(I - A) p = b``
    is solved there; states that cannot reach the destination get exactly 0.

    Raises:
        SingularSystemError: the solve violated the residual ceiling
            (a NaN entry, or an internal error the restriction should prevent).
    """
    return _solve_direct(system.a, system.b)[0]


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
