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
batch of one.

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
one :class:`SampleBatch` of columns, which the report reads as columns.
Requested distances must lie in ``(0, 2]``, the diameter of the simplex in
this distance; others are rejected before anything is sampled.

Randomness for sample ``k`` of a run derives from ``(seed, k)``, so results
do not depend on evaluation order or run size, and identical seeds give
bit-identical reports. Sample ``k`` draws the stream of
``np.random.default_rng([seed, k])``; the starting states of a run's
streams are computed together, in one array pass, and set on one
generator in turn, rather than seeding a generator per sample.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

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
from .model import DistributionParameter, as_vector, is_distribution
from .perturbation import Direction, ReferenceSolve, condition_number_directional

#: Fraction by which observed deltas may exceed the first-order bound before
#: a validation run is considered inconsistent (the bound is asymptotic, not
#: rigorous, so small excesses at finite distance are expected and reported).
VIOLATION_SLACK = 0.05


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Evaluated samples as read-only columns, one entry per sample.

    ``labels`` names each sample. ``vectors[pid]`` holds the
    ``(count, arity)`` rows assigned to parameter ``pid`` and
    ``distances[pid]`` their ``(count,)`` achieved distances, in model
    order. ``distance`` is their total, ``exact`` the re-solved change of
    the probability, ``linear`` its first-order estimate and ``bound`` the
    range ``sum_i kappa_i * Delta_i`` at those distances, all float64
    columns; ``exceeds`` is the bool column ``|exact| > bound``. ``len``
    gives the sample count.
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


def _uint32_words(n: int) -> list[int]:
    """``n >= 0`` as little-endian 32-bit words, as numpy's ``SeedSequence`` reads an integer."""
    n = operator.index(n)
    return [n >> shift & 0xFFFFFFFF for shift in range(0, max(n.bit_length(), 1), 32)]


def _streams(seed: int, indices: Sequence[int]) -> Iterator[np.random.Generator]:
    """The stream of ``np.random.default_rng([seed, k])`` for each ``k`` of ``indices``, in order.

    One generator is yielded for every ``k``, its state set before each
    yield, so a caller draws from it before advancing. The starting states
    are computed in one pass. numpy's ``SeedSequence`` mixes the entropy
    words ``[seed words..., k words...]`` into a pool of four words; its
    hash constants do not depend on the data, so the mixing runs as uint32
    array arithmetic over every index of one word count at once, followed
    by ``generate_state(4, uint64)``. PCG64's seeding step
    (``inc = 2 * initseq + 1``, two LCG steps) then runs in Python ints.
    Both are fixed by numpy's RNG policy (NEP 19), so each stream is the
    ``default_rng`` one bit for bit, for any seed and index width.
    """
    mask32, mask128 = 0xFFFFFFFF, (1 << 128) - 1
    pcg64_multiplier = 0x2360ED051FC65DA44385DF649FCCF645
    seed_words = _uint32_words(seed)
    by_width: dict[int, list[int]] = {}
    for i, k in enumerate(indices):
        by_width.setdefault(1 if k <= mask32 else len(_uint32_words(k)), []).append(i)
    states = [(0, 0)] * len(indices)
    for width, members in by_width.items():
        entropy = np.empty((len(members), len(seed_words) + width), dtype=np.uint32)
        entropy[:, :len(seed_words)] = seed_words
        entropy[:, len(seed_words):] = [_uint32_words(indices[i]) for i in members] \
            if width > 1 else [[indices[i]] for i in members]
        hash_const = 0x43B0D7E5

        def hashmix(value, multiplier=0x931E8875):
            nonlocal hash_const
            value = value ^ np.uint32(hash_const)
            hash_const = hash_const * multiplier & mask32
            value = value * np.uint32(hash_const)
            return value ^ value >> 16

        def mix(x, y):
            value = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
            return value ^ value >> 16

        zeros = np.zeros(len(members), dtype=np.uint32)
        pool = [hashmix(entropy[:, i] if i < entropy.shape[1] else zeros) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for src in range(4, entropy.shape[1]):
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
        hash_const = 0x8B51F9DD  # generate_state's hash: hashmix's, with its own constants
        words = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
        # uint64 word j is (words[2j + 1], words[2j]); PCG64 reads 128-bit
        # initstate = (word 0, word 1) and initseq = (word 2, word 3), high first
        high, low, seq_high, seq_low = (
            (words[2 * j + 1].astype(np.uint64) << 32 | words[2 * j]).tolist() for j in range(4))
        for i, hi, lo, seq_hi, seq_lo in zip(members, high, low, seq_high, seq_low):
            inc = (seq_hi << 65 | seq_lo << 1 | 1) & mask128
            states[i] = ((inc + (hi << 64 | lo)) * pcg64_multiplier + inc) & mask128, inc
    rng = np.random.Generator(np.random.PCG64())
    for state, inc in states:
        rng.bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        yield rng


def _random_rows(params: Sequence[DistributionParameter], deltas: Mapping[str, float],
                 seed: int, indices: Iterable[int]) -> dict[str, np.ndarray]:
    """Random vectors of ``params``, one row per sample index ``k``.

    Sample ``k`` draws from the stream of ``np.random.default_rng([seed, k])``,
    reached through :func:`_streams`: all parameters of one arity at once,
    in ascending arity. Each parameter moves by its distance in ``deltas``;
    single-entry parameters keep their references.
    """
    indices = list(indices)
    groups: dict[int, list[DistributionParameter]] = {}
    for param in params:
        groups.setdefault(param.arity, []).append(param)
    moving = sorted(arity for arity in groups if arity >= 2)
    keys = {a: np.empty((len(indices), len(groups[a]), a)) for a in moving}
    cuts = {a: np.empty((len(indices), len(groups[a])), dtype=np.int64) for a in moving}
    exps = {a: np.empty((len(indices), len(groups[a]), a)) for a in moving}
    for i, rng in enumerate(_streams(seed, indices)):
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
        UnknownParameterError: ``vectors`` names an id that is not a parameter.
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
    unknown = [pid for pid in vectors if pid not in batch]
    if unknown:
        raise UnknownParameterError(f"assignments for unknown parameters {unknown}")

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
    if not params:
        raise EmptyVectorError("the model has no distribution parameters to perturb")
    for name, value in (("sample count", n_samples), ("seed", seed)):
        try:
            value = operator.index(value)
        except TypeError:
            raise DomainError(f"{name} must be an integer, got {value!r}") from None
        if value < 0:
            raise DomainError(f"{name} must be non-negative, got {value!r}")
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
    # kappa_w from the induced weights: dividing the bound by the total
    # distance loses precision once the bound is subnormal.
    total = sum(requested.values())
    direction = Direction({pid: d / total for pid, d in requested.items()})
    return ValidationReport(
        reference=reference,
        samples=samples,
        requested=requested,
        bound=float(requested_bound),
        analytic_kappa=condition_number_directional(reference, direction),
        empirical_kappa=float(max((abs(x) / d for x, d in zip(exact, distance) if d > 0.0),
                                  default=0.0)),
        violations=sum(exceeds),
        max_excess=float(max((abs(x) - b for x, b, e in zip(exact, bound, exceeds) if e),
                             default=0.0)),
        slack=VIOLATION_SLACK,
        seed=int(seed),
    )
