"""Sampling perturbed chains at controlled distance and validating bounds.

Random perturbations of a reference distribution are drawn by splitting the
support into a random bipartition, spreading ``+Delta/2`` mass over one
side and ``-Delta/2`` over the other, then clipping to ``[0, 1]`` and
rescaling both sides to the largest common feasible mass. When every entry
of the reference is at least ``Delta/2`` from the simplex boundary no
clipping occurs and the achieved distance is exactly ``Delta``; otherwise
it may fall short, never above.

One draw takes three vector calls on the generator: uniform keys, whose
ranks give the bipartition (the lowest ``cut`` ranks gain mass), the
``cut`` from ``integers(1, arity)``, and standard exponentials, which
normalise over each side to a Dirichlet(1) split of ``Delta/2``. A
validation run draws every parameter of one arity with those three calls
per sample, then clips and rescales all samples as one array;
:func:`sample_on_simplex` is the same move for a batch of one. This is the
same distribution as an earlier per-vector draw (``permutation``,
``integers``, two ``dirichlet`` calls), but a given seed gives different
vectors than that draw did.

Extremal perturbations move ``+Delta/2`` onto the support position with the
largest linear coefficient and ``-Delta/2`` off the smallest (lowest index
on ties); they realize the condition-number bound up to a quadratic
remainder and are always injected into validation runs so the empirical
supremum is not an underestimate by sampling luck.

Every evaluated assignment, sampled, extremal or given by the caller (the
published perturbed models), goes through :func:`evaluate_assignments`,
which takes them as one batch per parameter and measures them against the
model's :class:`~pmcperturb.perturbation.ReferenceSolve`, reading its
reference ``(A, b)``, positions, ``t`` and ``kappa``. Requested distances
must lie in ``(0, 2]``, the diameter of the simplex in this distance;
others are rejected before anything is sampled.

Randomness for sample ``k`` of a run derives from ``(seed, k)``, so results
do not depend on evaluation order or run size, and identical seeds give
bit-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ArityMismatchError,
    BadIndicesError,
    DomainError,
    EmptyVectorError,
    InfeasibleDistanceError,
    MissingParameterError,
    NonpositiveDeltaError,
    SimplexViolationError,
)
from .model import Assignment, DistributionParameter, Pmc, as_vector, is_distribution
from .perturbation import ReferenceSolve
from .reachability import Factor, _destination_mass, reach_positive_mask

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
    """Outcome of an empirical bound-validation run against ``reference``.

    ``bound`` and ``analytic_kappa`` refer to the requested per-parameter
    distances (``analytic_kappa`` is the directional condition number for
    the direction those distances induce); ``empirical_kappa`` is the
    largest observed ``|exact| / distance`` over all samples.
    """

    reference: ReferenceSolve
    samples: tuple[PerturbationSample, ...]
    requested: Mapping[str, float]
    bound: float
    analytic_kappa: float
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


def _draw(rng: np.random.Generator, count: int, arity: int):
    """Keys, cuts and exponentials for ``count`` vectors of one arity (three calls)."""
    return (rng.random((count, arity)), rng.integers(1, arity, size=count),
            rng.standard_exponential((count, arity)))


def _spread(reference, half, keys, cuts, exps) -> np.ndarray:
    """Clip-and-rescale move over ``(..., arity)`` arrays (module docstring).

    The ``cuts`` lowest-ranked ``keys`` of a row gain mass and the rest lose
    it; ``exps`` split ``half`` over each side. A row whose common feasible
    mass is not positive keeps the reference.
    """
    gain = np.argsort(np.argsort(keys, axis=-1), axis=-1) < cuts[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        add = np.where(gain, exps, 0.0)
        sub = np.where(gain, 0.0, exps)
        add = np.minimum(add / add.sum(axis=-1, keepdims=True) * half, 1.0 - reference)
        sub = np.minimum(sub / sub.sum(axis=-1, keepdims=True) * half, reference)
        add_mass = add.sum(axis=-1, keepdims=True)
        sub_mass = sub.sum(axis=-1, keepdims=True)
        mass = np.minimum(add_mass, sub_mass)
        moved = reference + add * (mass / add_mass) - sub * (mass / sub_mass)
    return np.where(mass > 0.0, np.clip(moved, 0.0, 1.0), reference)


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
    if r.size < 2:
        return as_vector(r)
    return as_vector(_spread(r, delta / 2.0, *_draw(rng, 1, r.size))[0])


def _random_rows(params: Sequence[DistributionParameter], deltas: Mapping[str, float],
                 seed: int, indices: Iterable[int]) -> dict[str, np.ndarray]:
    """Random vectors of ``params``, one row per sample index ``k``.

    Sample ``k`` draws from the generator keyed ``[seed, k]``: all parameters
    of one arity at once, in ascending arity. Each parameter moves by its
    distance in ``deltas``; single-entry parameters keep their references.
    """
    indices = list(indices)
    groups: dict[int, list[DistributionParameter]] = {}
    for param in params:
        groups.setdefault(param.arity, []).append(param)
    moving = sorted(arity for arity in groups if arity >= 2)
    keys = {a: np.empty((len(indices), len(groups[a]), a)) for a in moving}
    cuts = {a: np.empty((len(indices), len(groups[a])), dtype=np.int64) for a in moving}
    exps = {a: np.empty((len(indices), len(groups[a]), a)) for a in moving}
    for i, k in enumerate(indices):
        rng = np.random.default_rng([seed, k])
        for a in moving:
            keys[a][i], cuts[a][i], exps[a][i] = _draw(rng, len(groups[a]), a)

    out = {p.id: np.tile(p.reference, (len(indices), 1)) for p in groups.get(1, ())}
    for a in moving:
        members = groups[a]
        references = np.stack([p.reference for p in members])
        half = np.array([deltas[p.id] / 2.0 for p in members])[:, None]
        moved = _spread(references, half, keys[a], cuts[a], exps[a])
        out.update((p.id, moved[:, j]) for j, p in enumerate(members))
    return out


def _extremal_rows(param: DistributionParameter, h: np.ndarray, delta: float) -> np.ndarray:
    """The ``+`` and ``-`` extremal moves of one parameter, as two rows.

    A move that would leave the simplex, or that has nowhere to go, keeps
    the reference.
    """
    rows = [param.reference, param.reference]
    i1, i2 = int(np.argmax(h)) + 1, int(np.argmin(h)) + 1  # lowest index on ties
    if i1 != i2:
        for k, (gain, lose) in enumerate(((i1, i2), (i2, i1))):
            try:
                rows[k] = extremal_perturbation(param.reference, delta, gain, lose)
            except SimplexViolationError:
                pass
    return np.stack(rows)


def _check_run(pmc: Pmc, n_samples: int, seed: int) -> None:
    """Reject a run with no parameter to perturb, a negative sample count or seed."""
    if not pmc.parameters:
        raise EmptyVectorError("the model has no distribution parameters to perturb")
    if n_samples < 0:
        raise DomainError(f"sample count must be non-negative, got {n_samples!r}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed!r}")


def empirical_kappa(reference: ReferenceSolve, delta: float,
                    n_samples: int, seed: int) -> float:
    """Empirical supremum of ``|exact delta| / delta`` at distance ``delta``.

    Each random sample perturbs one parameter (cycling through them) by the
    full distance; the two extremal moves of every parameter are always
    evaluated in addition, so the result realizes the analytic condition
    number up to a quadratic remainder.

    Raises:
        EmptyVectorError: the model has no distribution parameters.
        DomainError: ``delta`` is not positive (or NaN), or ``n_samples`` or
            ``seed`` is negative.
        InfeasibleDistanceError: ``delta`` exceeds 2 or is infinite.
    """
    _check_run(reference.pmc, n_samples, seed)
    if not delta > 0.0:
        raise DomainError(f"perturbation distance must be positive, got {delta!r}")
    if delta > 2.0:
        raise InfeasibleDistanceError(f"no probability vectors at distance {delta!r} > 2")
    params = reference.pmc.parameters
    count = len(params)
    labels = ["extremal+", "extremal-"] * count + ["random"] * n_samples
    vectors = {}
    for j, param in enumerate(params):
        rows = np.tile(param.reference, (len(labels), 1))
        rows[2 * j:2 * j + 2] = _extremal_rows(param, reference.h[param.id], delta)
        drawn = _random_rows([param], {param.id: delta}, seed, range(j, n_samples, count))
        rows[2 * count + j::count] = drawn[param.id]
        vectors[param.id] = rows
    samples = evaluate_assignments(reference, labels, vectors)
    return max(abs(x.exact) / delta for x in samples)


def _exact_deltas(reference: ReferenceSolve, batch: Mapping[str, np.ndarray],
                  count: int) -> list[float]:
    """Exact delta of every sample, by one re-solve of the patched reference system.

    Only the parameter rows of the constraint block change between samples:
    their entries are overwritten in a copy of the reference ``A``, which
    stores every support position in either form, and their ``b`` entries
    rebuilt by ``reachability._destination_mass``, so each patched system
    is the one ``extract_system(pmc, cp, assignment)`` gives.

    The reach-positive mask depends only on which entries are positive, so a
    sample with the reference's positive/zero pattern on the patched entries
    keeps the reference mask, and only another pattern costs a reach search.
    A sample on the reference mask is factored by ``reference.factor``'s
    ``patcher``, one on another mask by a fresh ``reachability.Factor``.
    Either way it is solved with the residual check and clip of every solve,
    so each exact delta equals a ``solve_reachability`` re-solve of the
    patched system.
    """
    cp = reference.cp
    nq = cp.n_constraint
    system, factor = reference.system, reference.factor
    a_rows, a_cols, b_rows = [], [], []
    a_values, b_values = [np.empty((count, 0))], [np.empty((count, 0))]
    same_pattern = np.ones(count, dtype=bool)
    for param in reference.pmc.parameters:
        row, cols = reference.rows[param.id], reference.columns[param.id]
        if row >= nq:
            continue
        rows = batch[param.id]
        inner = cols < nq
        mass = _destination_mass(rows, cols, cp)
        same_pattern &= ((rows > 0.0) == (param.reference > 0.0))[:, inner].all(axis=1)
        same_pattern &= (mass > 0.0) == (system.b[row] > 0.0)
        a_rows += [row] * int(inner.sum())
        a_cols += cols[inner].tolist()
        a_values.append(rows[:, inner])
        b_rows.append(row)
        b_values.append(mass[:, None])
    a_rows, a_cols = np.array(a_rows, dtype=np.intp), np.array(a_cols, dtype=np.intp)
    b_index = np.array(b_rows, dtype=np.intp)
    a_values, b_values = np.hstack(a_values), np.hstack(b_values)

    a, b = system.a.copy(), np.array(system.b)
    patched = factor.patcher(a_rows, a_cols)
    reference_value = float(reference.iota_c @ reference.t)
    exact = []
    for k in range(count):
        a[a_rows, a_cols] = a_values[k]
        b[b_index] = b_values[k]
        mask = None if same_pattern[k] else reach_positive_mask(a, b)
        same = mask is None or np.array_equal(mask, factor.mask)
        t, _ = (patched(a) if same else Factor(a, mask)).solve(a, b)
        exact.append(float(reference.iota_c @ t) - reference_value)
    return exact


def evaluate_assignments(reference: ReferenceSolve, labels: Sequence[str],
                         vectors: Mapping[str, object]) -> list[PerturbationSample]:
    """Measure a batch of labelled assignments against ``reference``.

    ``vectors[pid]`` holds one row per label: the vector assigned to
    parameter ``pid`` in that sample. Each parameter's rows are checked on
    the simplex once, as a batch. For each sample the result holds the
    achieved per-parameter distances, the exact delta (one re-solve), the
    linear estimate and the bound ``sum_i kappa_i * Delta_i`` at those
    distances.

    Raises:
        MissingParameterError: ``vectors`` misses a parameter.
        ArityMismatchError: a parameter's rows are not ``len(labels)`` by its
            arity, or are ragged.
        SimplexViolationError: some row is not a probability vector, or has
            an entry that is not a number.
    """
    labels = list(labels)
    count = len(labels)
    if not count:
        return []
    params = reference.pmc.parameters
    batch = {}
    for param in params:
        if param.id not in vectors:
            raise MissingParameterError(f"assignments miss parameter {param.id!r}")
        try:
            rows = np.array(vectors[param.id], dtype=np.float64)
        except (TypeError, ValueError):  # ragged rows, or an entry that is not a number
            try:
                rows = np.array(vectors[param.id], dtype=object)
            except ValueError:  # nested arrays of unequal shapes
                rows = np.empty(0, dtype=object)
        if rows.shape != (count, param.arity):
            raise ArityMismatchError(
                f"assignments for {param.id!r} have shape {rows.shape}, "
                f"expected {(count, param.arity)}")
        if rows.dtype != np.float64 or not is_distribution(rows):
            raise SimplexViolationError(
                f"an assignment for parameter {param.id!r} is not a probability vector")
        rows.flags.writeable = False
        batch[param.id] = rows

    # Reductions over the batch, accumulated over parameters in model order
    # as the per-sample sums did, so distances and bounds keep their bits.
    distances = {}
    distance = np.zeros(count)
    bound = np.zeros(count)
    linear = np.zeros(count)
    for param in params:
        rows = batch[param.id]
        distances[param.id] = np.abs(rows - param.reference).sum(axis=1)
        distance = distance + distances[param.id]
        bound = bound + reference.kappa[param.id] * distances[param.id]
        linear = linear + (rows - param.reference) @ reference.h[param.id]
    exact = _exact_deltas(reference, batch, count)

    distances = {pid: d.tolist() for pid, d in distances.items()}
    return [
        PerturbationSample(
            label=label,
            assignment=Assignment._checked({pid: rows[k] for pid, rows in batch.items()}),
            distances={pid: d[k] for pid, d in distances.items()},
            distance=total, exact=value, linear=estimate, bound=limit,
            exceeds=abs(value) > limit)
        for k, (label, total, value, estimate, limit) in enumerate(
            zip(labels, distance.tolist(), exact, linear.tolist(), bound.tolist()))
    ]


def validate_bounds(reference: ReferenceSolve, deltas: Mapping[str, float],
                    n_samples: int, seed: int) -> ValidationReport:
    """Empirically validate the first-order bound at given per-parameter distances.

    Evaluates the two joint extremal moves and then ``n_samples`` random
    assignments moving every parameter ``i`` by (up to) ``deltas[i]``, all
    in one :func:`evaluate_assignments` batch against ``reference``, and
    reports samples whose exact delta exceeds the bound. Violations are
    reported, never raised; ``slack`` is :data:`VIOLATION_SLACK`.

    Raises:
        EmptyVectorError: the model has no distribution parameters.
        DomainError: ``n_samples`` or ``seed`` is negative.
        MissingParameterError: ``deltas`` does not cover every parameter.
        NonpositiveDeltaError: a requested distance is not positive (or NaN).
        InfeasibleDistanceError: a requested distance exceeds 2 or is infinite.
    """
    params = reference.pmc.parameters
    _check_run(reference.pmc, n_samples, seed)
    requested = {str(k): float(v) for k, v in dict(deltas).items()}
    for param in params:
        if param.id not in requested:
            raise MissingParameterError(f"no distance requested for parameter {param.id!r}")
    if not all(d > 0.0 for d in requested.values()):
        raise NonpositiveDeltaError(f"requested distances must be positive: {requested}")
    if any(d > 2.0 for d in requested.values()):
        raise InfeasibleDistanceError(
            f"requested distances must not exceed 2, the diameter of the simplex: "
            f"{requested}")

    drawn = _random_rows(params, requested, seed, range(n_samples))
    vectors = {p.id: np.concatenate([_extremal_rows(p, reference.h[p.id], requested[p.id]),
                                     drawn[p.id]])
               for p in params}
    labels = ["extremal+", "extremal-"] + ["random"] * n_samples
    samples = evaluate_assignments(reference, labels, vectors)

    requested_bound = sum(reference.kappa[pid] * requested[pid] for pid in reference.kappa)
    return ValidationReport(
        reference=reference,
        samples=tuple(samples),
        requested=requested,
        bound=float(requested_bound),
        analytic_kappa=float(requested_bound / sum(requested.values())),
        empirical_kappa=float(max((abs(x.exact) / x.distance for x in samples
                                   if x.distance > 0.0), default=0.0)),
        violations=sum(x.exceeds for x in samples),
        max_excess=float(max((abs(x.exact) - x.bound for x in samples if x.exceeds),
                             default=0.0)),
        slack=VIOLATION_SLACK,
        seed=int(seed),
    )
