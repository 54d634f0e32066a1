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
normalise over each side to a Dirichlet(1) split of ``Delta/2``. For arity
2 the cut is always 1 and ``integers(1, 2)`` draws no bits, so that call is
skipped and the stream is the same. A validation run draws every parameter
of one arity with those calls per sample, then clips and rescales all
samples as one array; :func:`sample_on_simplex` is the same move for a
batch of one. This is the same distribution as an earlier per-vector draw
(``permutation``, ``integers``, two ``dirichlet`` calls), but a given seed
gives different vectors than that draw did.

Extremal perturbations move ``+Delta/2`` onto the support position with the
largest linear coefficient and ``-Delta/2`` off the smallest (lowest index
on ties); they realize the condition-number bound up to a quadratic
remainder and are always injected into validation runs so the empirical
supremum is not an underestimate by sampling luck.

Every evaluated assignment, sampled, extremal or given by the caller (the
published perturbed models), goes through :func:`evaluate_assignments`,
which takes them as one batch per parameter and measures them against the
model's :class:`~pmcperturb.perturbation.ReferenceSolve`, reading its ``t``,
``h`` and ``kappa``; ``reachability`` re-solves the samples. The result is
one :class:`SampleBatch` of columns, which the report reads as columns; a
:class:`PerturbationSample` of one sample is built only when it is read.
Requested distances must lie in ``(0, 2]``, the diameter of the simplex in
this distance; others are rejected before anything is sampled.

Randomness for sample ``k`` of a run derives from ``(seed, k)``, so results
do not depend on evaluation order or run size, and identical seeds give
bit-identical reports.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import reachability
from .errors import (
    ArityMismatchError,
    BadIndicesError,
    DomainError,
    EmptyVectorError,
    InfeasibleDistanceError,
    MissingParameterError,
    NonpositiveDeltaError,
    SimplexViolationError,
    UnknownParameterError,
)
from .model import Assignment, DistributionParameter, Pmc, as_vector, is_distribution
from .perturbation import ReferenceSolve

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


@dataclass(frozen=True, eq=False)
class SampleBatch(Sequence):
    """Evaluated samples as read-only columns, one entry per sample.

    ``vectors[pid]`` holds the ``(count, arity)`` rows assigned to parameter
    ``pid`` and ``distances[pid]`` their ``(count,)`` achieved distances, in
    model order; ``distance``, ``exact``, ``linear`` and ``bound`` are
    float64 columns and ``exceeds`` a bool column, with the meanings of the
    :class:`PerturbationSample` fields. ``len``, indexing and iteration give
    :class:`PerturbationSample` views, built on access; a slice is a batch.
    """

    labels: tuple[str, ...]
    vectors: Mapping[str, np.ndarray]
    distances: Mapping[str, np.ndarray]
    distance: np.ndarray
    exact: np.ndarray
    linear: np.ndarray
    bound: np.ndarray
    exceeds: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return SampleBatch(self.labels[k], {pid: v[k] for pid, v in self.vectors.items()},
                               {pid: d[k] for pid, d in self.distances.items()},
                               self.distance[k], self.exact[k], self.linear[k], self.bound[k],
                               self.exceeds[k])
        label = self.labels[k]  # raises IndexError and TypeError as a tuple does
        return PerturbationSample(
            label=label,
            assignment=Assignment._checked({pid: v[k] for pid, v in self.vectors.items()}),
            distances={pid: float(d[k]) for pid, d in self.distances.items()},
            distance=float(self.distance[k]), exact=float(self.exact[k]),
            linear=float(self.linear[k]), bound=float(self.bound[k]),
            exceeds=bool(self.exceeds[k]))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an empirical bound-validation run against ``reference``.

    ``samples`` is the :class:`SampleBatch` of the run: the two extremal
    moves, then the random samples. ``bound`` and ``analytic_kappa`` refer
    to the requested per-parameter distances (``analytic_kappa`` is the
    directional condition number for the direction those distances induce);
    ``empirical_kappa`` is the largest observed ``|exact| / distance`` over
    all samples.
    """

    reference: ReferenceSolve
    samples: SampleBatch
    requested: Mapping[str, float]
    bound: float
    analytic_kappa: float
    empirical_kappa: float
    violations: int
    max_excess: float
    slack: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "requested", dict(self.requested))


def extremal_perturbation(reference, delta: float, i1: int, i2: int) -> np.ndarray:
    """Move ``delta/2`` mass onto entry ``i1`` and off entry ``i2`` (1-based).

    The result stays on the simplex and sits at absolute distance exactly
    ``delta`` from the reference.

    Raises:
        BadIndicesError: indices not integers, equal or out of range.
        DomainError: ``delta`` is not positive.
        SimplexViolationError: the move would leave ``[0, 1]``.
    """
    r = np.asarray(reference, dtype=np.float64).reshape(-1)
    k = r.size
    try:
        valid = 1 <= operator.index(i1) <= k and 1 <= operator.index(i2) <= k and i1 != i2
    except TypeError:
        valid = False
    if not valid:
        raise BadIndicesError(f"invalid entry indices ({i1}, {i2}) for arity {k}")
    if not delta > 0.0:
        raise DomainError(f"perturbation distance must be positive, got {float(delta)!r}")
    half = delta / 2.0
    if r[i1 - 1] + half > 1.0:
        raise SimplexViolationError(
            f"entry {i1} at {float(r[i1 - 1])!r} cannot absorb +{float(half)!r}")
    if r[i2 - 1] - half < 0.0:
        raise SimplexViolationError(
            f"entry {i2} at {float(r[i2 - 1])!r} cannot yield -{float(half)!r}")
    v = r.copy()
    v[i1 - 1] += half
    v[i2 - 1] -= half
    return as_vector(v)


def _draw(rng: np.random.Generator, count: int, arity: int):
    """Keys, cuts and exponentials for ``count`` vectors of one arity (module docstring)."""
    keys = rng.random((count, arity))
    cuts = np.ones(count, dtype=np.int64) if arity == 2 else rng.integers(1, arity, size=count)
    return keys, cuts, rng.standard_exponential((count, arity))


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
    if not delta > 0.0:
        raise DomainError(f"perturbation distance must be positive, got {float(delta)!r}")
    if delta > 2.0:
        raise InfeasibleDistanceError(f"no probability vectors at distance {float(delta)!r} > 2")
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
    """Reject a run with no parameter to perturb, or a count or seed not an integer >= 0."""
    if not pmc.parameters:
        raise EmptyVectorError("the model has no distribution parameters to perturb")
    for name, value in (("sample count", n_samples), ("seed", seed)):
        try:
            value = operator.index(value)
        except TypeError:
            raise DomainError(f"{name} must be an integer, got {value!r}") from None
        if value < 0:
            raise DomainError(f"{name} must be non-negative, got {value!r}")


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
            ``seed`` is not a non-negative integer.
        InfeasibleDistanceError: ``delta`` exceeds 2 or is infinite.
    """
    _check_run(reference.pmc, n_samples, seed)
    if not delta > 0.0:
        raise DomainError(f"perturbation distance must be positive, got {float(delta)!r}")
    if delta > 2.0:
        raise InfeasibleDistanceError(f"no probability vectors at distance {float(delta)!r} > 2")
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
    exact = evaluate_assignments(reference, labels, vectors).exact.tolist()
    return max(abs(x) / delta for x in exact)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def evaluate_assignments(reference: ReferenceSolve, labels: Sequence[str],
                         vectors: Mapping[str, object]) -> SampleBatch:
    """Measure a batch of labelled assignments against ``reference``.

    ``vectors[pid]`` holds one row per label: the vector assigned to
    parameter ``pid`` in that sample. Each parameter's rows are checked on
    the simplex once, as a batch. The result is one :class:`SampleBatch`
    whose columns hold, per sample, the achieved per-parameter distances,
    the exact delta (one re-solve by ``reachability``), the linear estimate
    and the bound ``sum_i kappa_i * Delta_i`` at those distances.

    Raises:
        MissingParameterError: ``vectors`` misses a parameter.
        ArityMismatchError: a parameter's rows are not ``len(labels)`` by its
            arity, or are ragged.
        SimplexViolationError: some row is not a probability vector, or has
            an entry that is not a number.
    """
    labels = tuple(labels)
    count = len(labels)
    params = reference.pmc.parameters
    if not count:
        empty = _read_only(np.empty(0))
        return SampleBatch((), {p.id: _read_only(np.empty((0, p.arity))) for p in params},
                           {p.id: empty for p in params}, empty, empty, empty, empty,
                           _read_only(np.empty(0, dtype=bool)))
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
        batch[param.id] = _read_only(rows)

    # Reductions over the batch, accumulated over parameters in model order
    # as the per-sample sums did, so distances and bounds keep their bits.
    distances = {}
    distance = np.zeros(count)
    bound = np.zeros(count)
    linear = np.zeros(count)
    for param in params:
        rows = batch[param.id]
        distances[param.id] = _read_only(np.abs(rows - param.reference).sum(axis=1))
        distance = distance + distances[param.id]
        bound = bound + reference.kappa[param.id] * distances[param.id]
        linear = linear + (rows - param.reference) @ reference.h[param.id]
    solutions = reachability._sample_solutions(reference.cp, reference.system, reference.factor,
                                               [batch[p.id] for p in params], count)
    reference_value = float(reference.iota_c @ reference.t)
    exact = np.array([float(reference.iota_c @ t) - reference_value for t in solutions])
    return SampleBatch(labels, batch, distances, _read_only(distance), _read_only(exact),
                       _read_only(linear), _read_only(bound),
                       _read_only(np.abs(exact) > bound))


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
        DomainError: ``n_samples`` or ``seed`` is not a non-negative integer.
        MissingParameterError: ``deltas`` does not cover every parameter.
        UnknownParameterError: ``deltas`` names an id that is not a parameter.
        NonpositiveDeltaError: a requested distance is not positive (or NaN).
        InfeasibleDistanceError: a requested distance exceeds 2 or is infinite.
    """
    params = reference.pmc.parameters
    _check_run(reference.pmc, n_samples, seed)
    requested = {str(k): float(v) for k, v in dict(deltas).items()}
    for param in params:
        if param.id not in requested:
            raise MissingParameterError(f"no distance requested for parameter {param.id!r}")
    unknown = [pid for pid in requested if pid not in reference.kappa]
    if unknown:
        raise UnknownParameterError(f"distances requested for unknown parameters {unknown}")
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
    exact, distance = samples.exact.tolist(), samples.distance.tolist()
    bound, exceeds = samples.bound.tolist(), samples.exceeds.tolist()

    requested_bound = sum(reference.kappa[pid] * requested[pid] for pid in reference.kappa)
    return ValidationReport(
        reference=reference,
        samples=samples,
        requested=requested,
        bound=float(requested_bound),
        analytic_kappa=float(requested_bound / sum(requested.values())),
        empirical_kappa=float(max((abs(x) / d for x, d in zip(exact, distance) if d > 0.0),
                                  default=0.0)),
        violations=sum(exceeds),
        max_excess=float(max((abs(x) - b for x, b, e in zip(exact, bound, exceeds) if e),
                             default=0.0)),
        slack=VIOLATION_SLACK,
        seed=int(seed),
    )
