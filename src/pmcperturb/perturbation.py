"""Perturbation analysis: linear coefficients and condition numbers.

For a PMC and a canonical problem, the perturbation value of an assignment
is the exact change of the combined reachability probability relative to
the references (``sampler`` measures it by re-solving). Near the
references that change is differentiable with a closed-form linear
coefficient vector ``h_i`` per parameter, from which absolute condition
numbers follow:

  * ``kappa_i = (max(h_i) - min(h_i)) / 2`` bounds the effect of moving
    parameter ``i`` alone by (absolute) distance ``Delta_i``,
  * ``kappa_w = sum_i w(i) * kappa_i`` bounds a total budget ``Delta``
    split across parameters with weights ``w``,
  * the two are linked by ``sum_i kappa_i Delta_i = kappa_w Delta`` for
    ``w(i) = Delta_i / Delta``.

With ``N = (I - A)^{-1}`` on the reach-positive block, ``s = iota_c N``
(expected visits weighted by the initial distribution) and ``t = N b``
(the per-state reachability solution), let ``x`` hold, over canonical
positions, ``t`` on the constraint block, 1 on the destination block and 0
on the states in between. The coefficient vector of parameter ``i`` (row
``row_i``, support ``support_i``) is the gather

    h_i[j] = s[row_i] * x[support_i[j]],

so a variable in constraint column ``c`` gets ``s[row_i] * t[c]``, one that
feeds the destination sum of ``b`` gets ``s[row_i]``, and one in the middle
block, like every variable of a parameter whose row lies outside the
constraint block, gets exactly ``+0.0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    ArityMismatchError,
    DirectionMismatchError,
    EmptyVectorError,
    NonpositiveDeltaError,
    UnknownParameterError,
    WeightsNotNormalizedError,
)
from .model import (
    Assignment,
    Pmc,
    STOCHASTIC_TOL,
    as_vector,
    model_digest,
)
from .reachability import (
    CanonicalProblem,
    ReachabilityProblem,
    _solve_direct,
    canonicalize,
    constrained_initial,
    extract_system,
    total_probability,
)


@dataclass(frozen=True)
class GradientSet:
    """Linear coefficients of the perturbation value at the references.

    ``h`` maps each parameter id to its coefficient vector (one entry per
    support position; exactly zero at middle-block positions and for
    parameters whose row lies outside the constraint block). ``s`` and
    ``t`` are the cached visit weights and per-state solution described in
    the module docstring; ``t`` equals the reachability solution of the
    same system. ``mask`` marks the reach-positive constraint states, the
    block that was factored.
    """

    h: Mapping[str, np.ndarray]
    s: np.ndarray
    t: np.ndarray
    mask: np.ndarray
    references: Mapping[str, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "h", {k: as_vector(v) for k, v in dict(self.h).items()})
        object.__setattr__(self, "s", as_vector(self.s))
        object.__setattr__(self, "t", as_vector(self.t))
        mask = np.array(self.mask, dtype=bool)
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "references",
                           {k: as_vector(v) for k, v in dict(self.references).items()})

    @property
    def parameter_ids(self) -> tuple[str, ...]:
        return tuple(self.h)


@dataclass(frozen=True)
class Direction:
    """Normalized weights splitting a perturbation budget across parameters.

    A model without parameters has one direction, the empty one.
    """

    weights: Mapping[str, float]

    def __post_init__(self):
        weights = {str(k): float(v) for k, v in dict(self.weights).items()}
        # Written so that a NaN weight fails: every comparison with NaN is false.
        if not all(0.0 <= w <= 1.0 + STOCHASTIC_TOL for w in weights.values()):
            raise WeightsNotNormalizedError(f"direction weights outside [0, 1]: {weights}")
        total = sum(weights.values())
        if weights and not abs(total - 1.0) <= STOCHASTIC_TOL:
            raise WeightsNotNormalizedError(
                f"direction weights sum to {total!r}, expected 1")
        object.__setattr__(self, "weights", weights)

    @classmethod
    def uniform(cls, ids) -> "Direction":
        ids = list(ids)
        return cls({pid: 1.0 / len(ids) for pid in ids})


@dataclass(frozen=True)
class SensitivityReport:
    """Referential probability plus all condition-number views of one model.

    ``kappa_directional`` applies to a total budget split by ``direction``;
    ``kappa_sum`` is the coefficient of per-parameter distances in the
    bound ``sum_i kappa_i * Delta_i``. Both are derived from the same
    per-parameter ``kappa`` values and are reported separately because a
    single unlabeled number would be ambiguous.
    """

    probability: float
    gradients: GradientSet
    kappa_by_parameter: Mapping[str, float]
    direction: Direction
    kappa_directional: float
    kappa_sum: float
    problem: ReachabilityProblem
    model_hash: str

    def __post_init__(self):
        object.__setattr__(self, "kappa_by_parameter", dict(self.kappa_by_parameter))


def gradient_coefficients(pmc: Pmc, cp: CanonicalProblem) -> GradientSet:
    """Closed-form linear coefficients ``h_i`` for every parameter.

    The reach-positive mask comes from one frontier search, and one LU
    factorization of the restricted ``I - A`` gives both ``t`` (equal to
    the reachability solution) and, by the transposed solve, the visit
    weights ``s``; both are zero outside the reach-positive states. Each
    ``h_i`` is then one gather over canonical positions (module docstring).
    """
    system = extract_system(pmc, cp)
    t, s, mask = _solve_direct(system.a, system.b, constrained_initial(pmc, cp))

    nq, d0 = cp.n_constraint, cp.destination_start - 1
    pos = np.asarray(cp.permutation, dtype=np.intp) - 1
    x = np.zeros(cp.n)
    x[:nq] = t
    x[d0:] = 1.0
    visits = np.zeros(cp.n)
    visits[:nq] = s
    h: dict[str, np.ndarray] = {}
    for param in pmc.parameters:
        row = pos[param.row - 1]
        cols = pos[np.asarray(param.support, dtype=np.intp) - 1]
        # Select, not multiply by x == 0: s can be a rounding-level negative,
        # and a position outside the system must read +0.0, not -0.0.
        in_system = (row < nq) & ((cols < nq) | (cols >= d0))
        h[param.id] = np.where(in_system, visits[row] * x[cols], 0.0)

    return GradientSet(h=h, s=s, t=t, mask=mask,
                       references={p.id: p.reference for p in pmc.parameters})


def condition_number_basic(h) -> float:
    """Condition number ``(max(h) - min(h)) / 2`` of one coefficient vector.

    Invariant under constant shifts of ``h``; zero for single-entry vectors
    (a one-point distribution cannot be perturbed within the simplex).

    Raises:
        EmptyVectorError: ``h`` has no entries.
    """
    h = np.asarray(h, dtype=np.float64).reshape(-1)
    if h.size == 0:
        raise EmptyVectorError("condition number of an empty coefficient vector")
    return float(0.5 * (h.max() - h.min()))


def condition_number_directional(gradients: GradientSet, direction: Direction) -> float:
    """Directional condition number ``sum_i w(i) * kappa_i``.

    Raises:
        DirectionMismatchError: the direction's ids differ from the
            gradient set's.
    """
    if set(direction.weights) != set(gradients.h):
        raise DirectionMismatchError(
            f"direction covers {sorted(direction.weights)}, "
            f"gradients cover {sorted(gradients.h)}")
    return float(sum(w * condition_number_basic(gradients.h[pid])
                     for pid, w in direction.weights.items()))


def condition_number_parameterwise(gradients: GradientSet, pid: str) -> float:
    """Condition number of a single parameter (direction concentrated on it).

    Raises:
        UnknownParameterError: ``pid`` is not in the gradient set.
    """
    if pid not in gradients.h:
        raise UnknownParameterError(f"no gradient for parameter {pid!r}")
    return condition_number_basic(gradients.h[pid])


@dataclass(frozen=True)
class LinkIdentityCheck:
    """Both sides of ``sum_i kappa_i Delta_i = kappa_w Delta`` and their gap."""

    lhs: float
    rhs: float
    discrepancy: float


def link_identity_check(gradients: GradientSet,
                        deltas: Mapping[str, float]) -> LinkIdentityCheck:
    """Evaluate the parameter-wise/directional bound identity.

    ``lhs = sum_i kappa_i Delta_i`` and ``rhs = kappa_w * sum_i Delta_i``
    with ``w(i) = Delta_i / sum_j Delta_j``; the two agree exactly up to
    rounding.

    Raises:
        NonpositiveDeltaError: some ``Delta_i <= 0``.
        DirectionMismatchError: ids do not match the gradient set.
    """
    deltas = {str(k): float(v) for k, v in dict(deltas).items()}
    if any(d <= 0.0 for d in deltas.values()):
        raise NonpositiveDeltaError(f"all distances must be positive: {deltas}")
    if set(deltas) != set(gradients.h):
        raise DirectionMismatchError(
            f"distances cover {sorted(deltas)}, gradients cover {sorted(gradients.h)}")
    total = sum(deltas.values())
    lhs = sum(condition_number_basic(gradients.h[pid]) * d for pid, d in deltas.items())
    direction = Direction({pid: d / total for pid, d in deltas.items()})
    rhs = condition_number_directional(gradients, direction) * total
    return LinkIdentityCheck(lhs=float(lhs), rhs=float(rhs),
                             discrepancy=float(abs(lhs - rhs)))


def linear_estimate(gradients: GradientSet, assignment: Assignment) -> float:
    """First-order estimate ``sum_i h_i . (v_i - r_i)`` of the perturbation value.

    Raises:
        MissingParameterError: the assignment misses a parameter.
        ArityMismatchError: an assigned vector has the wrong length.
    """
    total = 0.0
    for pid, h in gradients.h.items():
        v = assignment[pid]
        r = gradients.references[pid]
        if v.size != r.size:
            raise ArityMismatchError(
                f"assignment for {pid!r} has {v.size} entries, expected {r.size}")
        total += float(h @ (v - r))
    return total


def analyze(pmc: Pmc, problem: ReachabilityProblem,
            direction: Direction | None = None) -> SensitivityReport:
    """Full sensitivity report for a model and problem.

    Uses the uniform direction when none is given.
    """
    cp = canonicalize(pmc, problem)
    gradients = gradient_coefficients(pmc, cp)
    kappas = {p.id: condition_number_basic(gradients.h[p.id]) for p in pmc.parameters}
    if direction is None:
        direction = Direction.uniform(kappas)
    kappa_w = condition_number_directional(gradients, direction)
    probability = total_probability(pmc.initial, gradients.t, cp)
    return SensitivityReport(
        probability=probability,
        gradients=gradients,
        kappa_by_parameter=kappas,
        direction=direction,
        kappa_directional=kappa_w,
        kappa_sum=float(sum(kappas.values())),
        problem=problem,
        model_hash=model_digest(pmc),
    )
