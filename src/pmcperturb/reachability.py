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

The direct solver first restricts the system to constraint states with a
positive probability of reaching the destination (a path in the ``A``-graph
to a state with ``b > 0``); on that block ``I - A`` is non-singular, and all
other states get probability exactly zero. The mask comes from one reverse
frontier search; one LU factorization of that block gives both ``t = N b``
and, transposed, the visit weights ``s = iota_c N`` (``N = (I - A)^{-1}``).
The truncated-series solver is kept for reproducing reference results.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np
import scipy.linalg

from .errors import (
    ArityMismatchError,
    EmptyDestinationError,
    IndexOutOfRangeError,
    NonConvergenceError,
    SingularSystemError,
)
from .model import Assignment, Pmc, as_vector, instantiate, reference_assignment

#: Residual the solvers aim for.
RESIDUAL_TARGET = 1e-12
#: Hard ceiling on the fixed-point residual of any returned solution.
RESIDUAL_HARD = 1e-10
#: Series truncation used for reference-result reproduction.
SERIES_TRUNCATION_DEFAULT = 100


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


class Role(Enum):
    """Where one variable of a parameter lands in the extracted system."""

    CONSTRAINT_COLUMN = "constraint"
    DESTINATION_SUM = "destination"
    DROPPED = "dropped"


@dataclass(frozen=True)
class VariablePlacement:
    role: Role
    column: int | None = None  # canonical column in 1..n_constraint for CONSTRAINT_COLUMN


@dataclass(frozen=True)
class ParameterPlacement:
    """Positions of a parameter's variables within ``(A, b)``.

    ``row`` is the parameter's canonical row if it lies in the constraint
    block, else ``None``; in the latter case the variable list is empty
    because none of its entries appear in the system.
    """

    row: int | None
    variables: tuple[VariablePlacement, ...]


@dataclass(frozen=True)
class LinearSystem:
    """The pair ``(A, b)`` with per-parameter variable placements."""

    a: np.ndarray
    b: np.ndarray
    placements: Mapping[str, ParameterPlacement]

    def __post_init__(self):
        a = np.array(self.a, dtype=np.float64)
        a.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", as_vector(self.b))
        object.__setattr__(self, "placements", dict(self.placements))


def extract_system(pmc: Pmc, cp: CanonicalProblem,
                   assignment: Assignment | None = None) -> LinearSystem:
    """Extract ``(A, b)`` for a canonical problem, plus variable placements.

    ``A`` is the constraint-block submatrix of the instantiated transition
    matrix (at the references unless ``assignment`` is given) and
    ``b[i]`` sums row ``i``'s mass over the destination block. The
    placements record, for every parameter and support position, whether
    the variable lands in a column of ``A``, in the destination sum of
    ``b``, or nowhere.
    """
    if assignment is None:
        assignment = reference_assignment(pmc)
    matrix = instantiate(pmc, assignment)
    idx = np.asarray(cp.order, dtype=np.intp) - 1
    canon = matrix[np.ix_(idx, idx)]
    nq = cp.n_constraint
    a = canon[:nq, :nq]
    b = canon[:nq, cp.destination_start - 1:].sum(axis=1) if nq else np.zeros(0)

    placements: dict[str, ParameterPlacement] = {}
    for param in pmc.parameters:
        row_pos = cp.permutation[param.row - 1]
        if row_pos > nq:
            placements[param.id] = ParameterPlacement(row=None, variables=())
            continue
        variables = []
        for col in param.support:
            col_pos = cp.permutation[col - 1]
            if col_pos <= nq:
                variables.append(VariablePlacement(Role.CONSTRAINT_COLUMN, col_pos))
            elif col_pos >= cp.destination_start:
                variables.append(VariablePlacement(Role.DESTINATION_SUM))
            else:
                variables.append(VariablePlacement(Role.DROPPED))
        placements[param.id] = ParameterPlacement(row=row_pos, variables=tuple(variables))

    return LinearSystem(a=a, b=b, placements=placements)


def reach_positive_mask(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean mask of states with an ``A``-graph path to some ``b[i] > 0``."""
    adjacency = a > 0.0
    reached = b > 0.0
    frontier = reached.copy()
    while frontier.any():
        frontier = adjacency[:, frontier].any(axis=1) & ~reached
        reached |= frontier
    return reached


def _solve_direct(a: np.ndarray, b: np.ndarray,
                  weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """``t`` with ``(I - A) t = b`` and, given ``weights``, ``s`` with ``s (I - A) = weights``.

    Both come from one LU factorization of the reach-positive block and are
    zero elsewhere. ``t`` must meet ``RESIDUAL_HARD`` and is clipped to [0, 1].
    """
    mask = reach_positive_mask(a, b)
    t = np.zeros(b.size)
    s = None if weights is None else np.zeros(b.size)
    if mask.any():
        lu = scipy.linalg.lu_factor(np.eye(int(mask.sum())) - a[np.ix_(mask, mask)])
        t[mask] = scipy.linalg.lu_solve(lu, b[mask])
        if s is not None:
            s[mask] = scipy.linalg.lu_solve(lu, weights[mask], trans=1)
    residual = float(np.max(np.abs(t - (a @ t + b)), initial=0.0))
    if not residual <= RESIDUAL_HARD:  # a NaN residual (singular block) fails too
        raise SingularSystemError(
            f"direct solve residual {residual:.3e} exceeds {RESIDUAL_HARD:.0e}")
    return as_vector(np.clip(t, 0.0, 1.0)), s


def solve_reachability(system: LinearSystem, method: str = "direct",
                       truncation: int = SERIES_TRUNCATION_DEFAULT) -> np.ndarray:
    """Per-state constrained-reachability probabilities ``p`` with ``p = Ap + b``.

    Parameters
    ----------
    system:
        Extracted linear system.
    method:
        ``"direct"`` restricts to reach-positive states and solves
        ``(I - A) p = b`` there (states that cannot reach the destination
        get exactly 0). ``"series"`` evaluates the truncated partial sum
        ``sum_{j<=truncation} A^j b``.
    truncation:
        Number of series terms (series method only).

    Raises:
        SingularSystemError: the direct solve violated the residual ceiling
            (internal error; the restriction should prevent it).
        NonConvergenceError: the truncated series left a residual above
            ``RESIDUAL_HARD``; the achieved residual is attached.
    """
    a, b = system.a, system.b
    if method == "direct":
        return _solve_direct(a, b)[0]
    if method == "series":
        if truncation < 0:
            raise ValueError("truncation must be non-negative")
        p = b.copy()
        term = b.copy()
        for _ in range(truncation):
            term = a @ term
            p += term
            # Row sums of A are <= 1, so the sup norm of the terms is
            # non-increasing; once negligible, further terms cannot change p.
            if term.max(initial=0.0) < 1e-30:
                break
        residual = float(np.max(np.abs(p - (a @ p + b)), initial=0.0))
        if residual > RESIDUAL_HARD:
            raise NonConvergenceError(
                f"series residual {residual:.3e} after {truncation} terms "
                f"exceeds {RESIDUAL_HARD:.0e}", residual=residual)
        return as_vector(np.clip(p, 0.0, 1.0))
    raise ValueError(f"unknown method {method!r}; expected 'direct' or 'series'")


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
