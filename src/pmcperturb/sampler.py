"""Sampling perturbed chains at controlled distance and validating bounds.

Random perturbations of a reference distribution are drawn by splitting the
support into a random bipartition, spreading ``+Delta/2`` mass over one
side and ``-Delta/2`` over the other, then clipping to ``[0, 1]`` and
rescaling both sides to the largest common feasible mass. When every entry
of the reference is at least ``Delta/2`` from the simplex boundary no
clipping occurs and the achieved distance is exactly ``Delta``; otherwise
it may fall short, never above.

Extremal perturbations move ``+Delta/2`` onto the support position with the
largest linear coefficient and ``-Delta/2`` off the smallest (lowest index
on ties); they realize the condition-number bound up to a quadratic
remainder and are always injected into validation runs so the empirical
supremum is not an underestimate by sampling luck.

Randomness for sample ``k`` of a run derives from ``(seed, k)``, so results
do not depend on evaluation order and identical seeds give bit-identical
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BadIndicesError,
    DomainError,
    EmptyVectorError,
    InfeasibleDistanceError,
    MissingParameterError,
    NonpositiveDeltaError,
    SimplexViolationError,
)
from .model import Assignment, Pmc, absolute_distance, as_vector, reference_assignment
from .perturbation import GradientSet, condition_number_basic, gradient_coefficients, linear_estimate
from .reachability import (
    CanonicalProblem,
    constrained_initial,
    extract_system,
    solve_reachability,
)

#: Fraction by which observed deltas may exceed the first-order bound before
#: a validation run is considered inconsistent (the bound is asymptotic, not
#: rigorous, so small excesses at finite distance are expected and reported).
VIOLATION_SLACK = 0.05


@dataclass(frozen=True)
class PerturbationSample:
    """One perturbed assignment with its measured effect and bound.

    ``distances`` holds the achieved per-parameter distances, ``distance``
    their total, ``bound`` the first-order range ``sum_i kappa_i * Delta_i``
    at those distances, and ``exceeds`` whether ``|exact| > bound``.
    """

    label: str
    assignment: Assignment
    distances: Mapping[str, float]
    distance: float
    exact: float
    linear: float
    bound: float
    exceeds: bool

    def __post_init__(self):
        object.__setattr__(self, "distances", dict(self.distances))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an empirical bound-validation run.

    ``bound`` and ``analytic_kappa`` refer to the requested per-parameter
    distances (``analytic_kappa`` is the directional condition number for
    the direction those distances induce); ``empirical_kappa`` is the
    largest observed ``|exact| / distance`` over all samples.
    """

    samples: tuple[PerturbationSample, ...]
    requested: Mapping[str, float]
    bound: float
    analytic_kappa: float
    kappa_sum: float
    empirical_kappa: float
    violations: int
    max_excess: float
    slack: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        object.__setattr__(self, "requested", dict(self.requested))


def extremal_perturbation(reference, delta: float, i1: int, i2: int) -> np.ndarray:
    """Move ``delta/2`` mass onto entry ``i1`` and off entry ``i2`` (1-based).

    The result stays on the simplex and sits at absolute distance exactly
    ``delta`` from the reference.

    Raises:
        BadIndicesError: indices equal or out of range.
        DomainError: ``delta`` is not positive.
        SimplexViolationError: the move would leave ``[0, 1]``.
    """
    r = np.asarray(reference, dtype=np.float64).reshape(-1)
    k = r.size
    if not (1 <= i1 <= k and 1 <= i2 <= k) or i1 == i2:
        raise BadIndicesError(f"invalid entry indices ({i1}, {i2}) for arity {k}")
    if delta <= 0.0:
        raise DomainError(f"perturbation distance must be positive, got {delta!r}")
    half = delta / 2.0
    if r[i1 - 1] + half > 1.0:
        raise SimplexViolationError(
            f"entry {i1} at {r[i1 - 1]!r} cannot absorb +{half!r}")
    if r[i2 - 1] - half < 0.0:
        raise SimplexViolationError(
            f"entry {i2} at {r[i2 - 1]!r} cannot yield -{half!r}")
    v = r.copy()
    v[i1 - 1] += half
    v[i2 - 1] -= half
    return as_vector(v)


def sample_on_simplex(reference, delta: float, rng: np.random.Generator) -> np.ndarray:
    """Random simplex vector at absolute distance ``delta`` from ``reference``.

    Exact distance whenever every entry is at least ``delta/2`` from the
    boundary; with entries closer than that the draw is clipped and the
    distance may come out smaller. Single-entry references cannot move and
    are returned unchanged. Deterministic given the generator state.

    Raises:
        DomainError: ``delta`` is not positive.
        InfeasibleDistanceError: ``delta`` exceeds 2, the diameter of the
            simplex in this distance.
    """
    if delta <= 0.0:
        raise DomainError(f"perturbation distance must be positive, got {delta!r}")
    if delta > 2.0:
        raise InfeasibleDistanceError(f"no probability vectors at distance {delta!r} > 2")
    r = np.asarray(reference, dtype=np.float64).reshape(-1)
    k = r.size
    if k < 2:
        return as_vector(r)

    half = delta / 2.0
    perm = rng.permutation(k)
    cut = int(rng.integers(1, k))
    gain, lose = perm[:cut], perm[cut:]
    add = np.zeros(k)
    sub = np.zeros(k)
    add[gain] = rng.dirichlet(np.ones(gain.size)) * half
    sub[lose] = rng.dirichlet(np.ones(lose.size)) * half
    add = np.minimum(add, 1.0 - r)
    sub = np.minimum(sub, r)
    mass = min(add.sum(), sub.sum())
    if mass <= 0.0:
        return as_vector(r)
    v = r + add * (mass / add.sum()) - sub * (mass / sub.sum())
    return as_vector(np.clip(v, 0.0, 1.0))


def _extremal_indices(h: np.ndarray) -> tuple[int, int]:
    """1-based (argmax, argmin) of the coefficient vector, lowest index on ties."""
    return int(np.argmax(h)) + 1, int(np.argmin(h)) + 1


def _extremal_assignments(pmc: Pmc, gradients: GradientSet,
                          deltas: Mapping[str, float]) -> list[tuple[str, Assignment]]:
    """The two joint extremal assignments (+ and -), skipping infeasible moves.

    Parameters absent from ``deltas`` keep their references.
    """
    out = []
    for label, swap in (("extremal+", False), ("extremal-", True)):
        vectors = {}
        for param in pmc.parameters:
            vectors[param.id] = param.reference
            if param.arity < 2 or param.id not in deltas:
                continue
            i1, i2 = _extremal_indices(gradients.h[param.id])
            if i1 == i2:
                continue
            if swap:
                i1, i2 = i2, i1
            try:
                vectors[param.id] = extremal_perturbation(
                    param.reference, deltas[param.id], i1, i2)
            except SimplexViolationError:
                pass
        out.append((label, Assignment(vectors)))
    return out


class _ExactDelta:
    """Perturbation values against the reference solution held by ``gradients``."""

    def __init__(self, pmc: Pmc, cp: CanonicalProblem, gradients: GradientSet):
        self.pmc = pmc
        self.cp = cp
        self.iota_c = constrained_initial(pmc, cp)
        self.reference_value = float(self.iota_c @ gradients.t)

    def __call__(self, assignment: Assignment) -> float:
        p = solve_reachability(extract_system(self.pmc, self.cp, assignment))
        return float(self.iota_c @ p) - self.reference_value


def _check_run(pmc: Pmc, n_samples: int) -> None:
    """Reject a run with no parameter to perturb or a negative sample count."""
    if not pmc.parameters:
        raise EmptyVectorError("the model has no distribution parameters to perturb")
    if n_samples < 0:
        raise DomainError(f"sample count must be non-negative, got {n_samples!r}")


def empirical_kappa(pmc: Pmc, cp: CanonicalProblem, delta: float,
                    n_samples: int, seed: int) -> float:
    """Empirical supremum of ``|exact delta| / delta`` at distance ``delta``.

    Each random sample perturbs one parameter (cycling through them) by the
    full distance; the two extremal moves of every parameter are always
    evaluated in addition, so the result realizes the analytic condition
    number up to a quadratic remainder.

    Raises:
        EmptyVectorError: the model has no distribution parameters.
        DomainError: ``delta`` is not positive or ``n_samples`` is negative.
    """
    _check_run(pmc, n_samples)
    if delta <= 0.0:
        raise DomainError(f"perturbation distance must be positive, got {delta!r}")
    gradients = gradient_coefficients(pmc, cp)
    exact = _ExactDelta(pmc, cp, gradients)
    references = reference_assignment(pmc)
    params = pmc.parameters

    best = 0.0
    for param in params:
        for _, assignment in _extremal_assignments(pmc, gradients, {param.id: delta}):
            best = max(best, abs(exact(assignment)) / delta)
    for index in range(n_samples):
        param = params[index % len(params)]
        rng = np.random.default_rng([seed, index])
        v = sample_on_simplex(param.reference, delta, rng)
        vectors = dict(references.vectors)
        vectors[param.id] = v
        best = max(best, abs(exact(Assignment(vectors))) / delta)
    return best


def validate_bounds(pmc: Pmc, cp: CanonicalProblem, deltas: Mapping[str, float],
                    n_samples: int, seed: int, *,
                    assignments: Sequence[Assignment] = (),
                    slack: float = VIOLATION_SLACK,
                    inject_extremal: bool = True) -> ValidationReport:
    """Empirically validate the first-order bound at given per-parameter distances.

    Draws ``n_samples`` assignments moving every parameter ``i`` by (up to)
    ``deltas[i]``, evaluates the exact delta, the linear estimate and the
    bound ``sum_i kappa_i * Delta_i`` at each sample's achieved distances,
    and reports samples whose exact delta exceeds the bound. Explicit
    ``assignments`` are evaluated alongside; extremal moves are injected
    unless disabled. Violations are reported, never raised.

    Raises:
        EmptyVectorError: the model has no distribution parameters.
        DomainError: ``n_samples`` is negative.
        NonpositiveDeltaError: a requested distance is not positive.
        MissingParameterError: ``deltas`` does not cover every parameter.
    """
    _check_run(pmc, n_samples)
    requested = {str(k): float(v) for k, v in dict(deltas).items()}
    for param in pmc.parameters:
        if param.id not in requested:
            raise MissingParameterError(f"no distance requested for parameter {param.id!r}")
    if any(d <= 0.0 for d in requested.values()):
        raise NonpositiveDeltaError(f"requested distances must be positive: {requested}")

    gradients = gradient_coefficients(pmc, cp)
    kappas = {p.id: condition_number_basic(gradients.h[p.id]) for p in pmc.parameters}
    requested_bound = sum(kappas[pid] * requested[pid] for pid in kappas)
    requested_total = sum(requested.values())
    exact = _ExactDelta(pmc, cp, gradients)

    runs: list[tuple[str, Assignment]] = []
    if inject_extremal:
        runs.extend(_extremal_assignments(pmc, gradients, requested))
    runs.extend(("given", a) for a in assignments)
    for index in range(n_samples):
        rng = np.random.default_rng([seed, index])
        vectors = {p.id: sample_on_simplex(p.reference, requested[p.id], rng)
                   for p in pmc.parameters}
        runs.append(("random", Assignment(vectors)))

    samples: list[PerturbationSample] = []
    empirical = 0.0
    violations = 0
    max_excess = 0.0
    for label, assignment in runs:
        distances = {p.id: absolute_distance(assignment[p.id], p.reference)
                     for p in pmc.parameters}
        total = sum(distances.values())
        value = exact(assignment)
        linear = linear_estimate(gradients, assignment)
        bound = sum(kappas[pid] * d for pid, d in distances.items())
        exceeds = abs(value) > bound
        if exceeds:
            violations += 1
            max_excess = max(max_excess, abs(value) - bound)
        if total > 0.0:
            empirical = max(empirical, abs(value) / total)
        samples.append(PerturbationSample(
            label=label, assignment=assignment, distances=distances,
            distance=total, exact=value, linear=linear, bound=bound,
            exceeds=exceeds))

    return ValidationReport(
        samples=tuple(samples),
        requested=requested,
        bound=float(requested_bound),
        analytic_kappa=float(requested_bound / requested_total),
        kappa_sum=float(sum(kappas.values())),
        empirical_kappa=float(empirical),
        violations=violations,
        max_excess=float(max_excess),
        slack=float(slack),
        seed=int(seed),
    )
