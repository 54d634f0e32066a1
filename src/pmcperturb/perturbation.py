"""Perturbation analysis: linear coefficients and condition numbers.

For a PMC and a reachability problem, the perturbation value of an assignment
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

:func:`gradient_coefficients` extracts and solves the reference system once
per ``(pmc, problem)`` and returns it, with ``h`` and ``kappa``, as one
:class:`ReferenceSolve`; every other function here takes that object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    ArityMismatchError,
    DirectionMismatchError,
    EmptyVectorError,
    WeightsNotNormalizedError,
)
from .model import Assignment, Pmc, STOCHASTIC_TOL, as_vector
from .reachability import (
    CanonicalProblem,
    Factor,
    LinearSystem,
    ReachabilityProblem,
    canonicalize,
    constrained_initial,
    extract_system,
    reach_positive_mask,
    total_probability,
)


@dataclass(frozen=True)
class ReferenceSolve:
    """The reference chain of one ``(pmc, problem)``, extracted and solved once.

    :func:`gradient_coefficients` builds it; ``check``, :func:`analyze`,
    the sampler and the paper tables all read from it.

    Attributes:
        pmc, problem, cp: the model, its problem and the canonical problem.
        system: the read-only reference :class:`LinearSystem`, with its ``slots``.
        factor: the :class:`Factor` of ``I - A`` on the reach-positive
            constraint states (``factor.mask``, read-only), kept for sampling.
        t, s: ``N b`` and ``iota_c N`` (module docstring) by ``factor``, zero
            off its mask; ``t`` is the reachability solution.
        iota_c: the initial distribution on the constraint block.
        h: each parameter's coefficient vector, one entry per support position
            (exactly zero at middle-block positions and for parameters whose
            row lies outside the constraint block).
        kappa: each parameter's condition number.
        probability: the combined reachability probability.
    """

    pmc: Pmc
    problem: ReachabilityProblem
    cp: CanonicalProblem
    system: LinearSystem
    factor: Factor
    t: np.ndarray
    s: np.ndarray
    iota_c: np.ndarray
    h: Mapping[str, np.ndarray]
    kappa: Mapping[str, float]
    probability: float

    @property
    def kappa_sum(self) -> float:
        """``sum_i kappa_i``, the coefficient of per-parameter distances in the bound."""
        return float(sum(self.kappa.values()))


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
    ``reference.kappa_sum`` is the coefficient of per-parameter distances in
    the bound ``sum_i kappa_i * Delta_i``. Both are derived from the same
    per-parameter ``kappa`` values and are reported separately because a
    single unlabeled number would be ambiguous.
    """

    reference: ReferenceSolve
    direction: Direction
    kappa_directional: float


def gradient_coefficients(pmc: Pmc, problem: ReachabilityProblem) -> ReferenceSolve:
    """The :class:`ReferenceSolve` of ``pmc`` and ``problem``.

    The problem is canonicalized and ``(A, b)`` read from the model rows
    once, dense or sparse as :func:`extract_system` chooses. The
    reach-positive mask comes from one search, and the one :class:`Factor`
    of the restricted ``I - A`` gives both ``t`` (equal to the reachability
    solution) and, by the transposed solve, the visit weights ``s``; both
    are zero outside the reach-positive states. Each ``h_i`` is then one
    gather over its ``system.slots`` positions (module docstring).
    """
    cp = canonicalize(pmc, problem)
    system = extract_system(pmc, cp)
    iota_c = constrained_initial(pmc, cp)
    factor = Factor(system.a, reach_positive_mask(system.a, system.b))
    t, s = factor.solve(system.a, system.b, iota_c)
    s.flags.writeable = factor.mask.flags.writeable = False

    nq, d0 = cp.n_constraint, cp.destination_start - 1
    x = np.zeros(cp.n)
    x[:nq] = t
    x[d0:] = 1.0
    visits = np.zeros(cp.n)
    visits[:nq] = s
    h = {}
    for param, (row, cols) in zip(pmc.parameters, system.slots):
        # Select, not multiply by x == 0: s can be a rounding-level negative,
        # and a position outside the system must read +0.0, not -0.0.
        in_system = (row < nq) & ((cols < nq) | (cols >= d0))
        h[param.id] = as_vector(np.where(in_system, visits[row] * x[cols], 0.0))

    return ReferenceSolve(
        pmc=pmc, problem=problem, cp=cp, system=system, factor=factor, t=t, s=s,
        iota_c=iota_c, h=h,
        kappa={pid: condition_number_basic(v) for pid, v in h.items()},
        probability=total_probability(pmc.initial, t, cp))


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


def condition_number_directional(reference: ReferenceSolve, direction: Direction) -> float:
    """Directional condition number ``sum_i w(i) * kappa_i``.

    Raises:
        DirectionMismatchError: the direction's ids differ from the model's
            parameter ids.
    """
    if set(direction.weights) != set(reference.kappa):
        raise DirectionMismatchError(
            f"direction covers {sorted(direction.weights)}, "
            f"parameters are {sorted(reference.kappa)}")
    return float(sum(w * reference.kappa[pid] for pid, w in direction.weights.items()))


def linear_estimate(reference: ReferenceSolve, assignment: Assignment) -> float:
    """First-order estimate ``sum_i h_i . (v_i - r_i)`` of the perturbation value.

    Raises:
        MissingParameterError: the assignment misses a parameter.
        ArityMismatchError: an assigned vector has the wrong length.
    """
    total = 0.0
    for param in reference.pmc.parameters:
        v = assignment[param.id]
        if v.size != param.arity:
            raise ArityMismatchError(
                f"assignment for {param.id!r} has {v.size} entries, expected {param.arity}")
        total += float(reference.h[param.id] @ (v - param.reference))
    return total


def analyze(reference: ReferenceSolve,
            direction: Direction | None = None) -> SensitivityReport:
    """Full sensitivity report of a reference solve.

    Uses the uniform direction when none is given.
    """
    if direction is None:
        direction = Direction.uniform(reference.kappa)
    return SensitivityReport(
        reference=reference,
        direction=direction,
        kappa_directional=condition_number_directional(reference, direction),
    )
