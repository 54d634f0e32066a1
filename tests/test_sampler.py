"""Simplex sampling, extremal moves, empirical condition numbers, bound checks."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import (
    count_calls,
    direct_resolve,
    random_case,
    random_pmc,
    random_problem,
    random_sparse_pmc,
)

from pmcperturb import (
    ArityMismatchError,
    Assignment,
    BadIndicesError,
    DomainError,
    EmptyVectorError,
    InfeasibleDistanceError,
    MissingParameterError,
    NonpositiveDeltaError,
    PerturbationSample,
    Pmc,
    ReachabilityProblem,
    SimplexViolationError,
    UnknownParameterError,
    absolute_distance,
    canonicalize,
    condition_number_basic,
    empirical_kappa,
    evaluate_assignments,
    extract_system,
    extremal_perturbation,
    gradient_coefficients,
    linear_estimate,
    reach_positive_mask,
    sample_on_simplex,
    validate_bounds,
)

FROG_REFERENCE = (0.375, 0.125, 0.25, 0.25)
FROG_KAPPA = 0.3125


class TestExtremal:
    def test_frog_published_model(self):
        v = extremal_perturbation(FROG_REFERENCE, 0.004, i1=4, i2=3)
        np.testing.assert_allclose(v, (0.375, 0.125, 0.248, 0.252))
        assert absolute_distance(v, FROG_REFERENCE) == pytest.approx(0.004, abs=1e-15)

    def test_two_entries(self):
        np.testing.assert_allclose(extremal_perturbation((0.5, 0.5), 0.2, 1, 2),
                                   (0.6, 0.4))

    def test_zero_delta_rejected(self):
        for delta in (0.0, float("nan")):
            with pytest.raises(DomainError):
                extremal_perturbation((0.5, 0.25, 0.25), delta, 1, 2)

    def test_simplex_violations(self):
        with pytest.raises(SimplexViolationError):
            extremal_perturbation((0.9, 0.1), 0.3, 1, 2)  # entry 1 would exceed 1
        with pytest.raises(SimplexViolationError):
            extremal_perturbation((0.2, 0.3, 0.5), 0.5, 3, 1)  # entry 1 would go negative

    def test_simplex_violation_messages_print_plain_floats(self):
        with pytest.raises(SimplexViolationError, match=r"^entry 1 at 0\.9 cannot absorb \+0\.15$"):
            extremal_perturbation((0.9, 0.1), 0.3, 1, 2)
        with pytest.raises(SimplexViolationError, match=r"^entry 1 at 0\.2 cannot yield -0\.25$"):
            extremal_perturbation((0.2, 0.3, 0.5), np.float64(0.5), 3, 1)

    def test_bad_indices(self):
        with pytest.raises(BadIndicesError):
            extremal_perturbation((0.5, 0.5), 0.1, 1, 1)
        with pytest.raises(BadIndicesError):
            extremal_perturbation((0.5, 0.5), 0.1, 0, 2)
        with pytest.raises(BadIndicesError):
            extremal_perturbation((0.5, 0.5), 0.1, 1, 3)

    @pytest.mark.parametrize("i1, i2", [(1.0, 2), (1, 2.5), ("1", 2), (None, 2)])
    def test_non_integer_indices(self, i1, i2):
        with pytest.raises(BadIndicesError, match="invalid entry indices"):
            extremal_perturbation((0.5, 0.5), 0.1, i1, i2)
        # numpy integers are indices
        np.testing.assert_array_equal(
            extremal_perturbation((0.5, 0.5), 0.2, np.int64(1), np.int32(2)), (0.6, 0.4))

    def test_distance_messages_print_plain_floats(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError, match=r"got 0\.0$"):
            extremal_perturbation((0.5, 0.5), np.float64(0.0), 1, 2)
        with pytest.raises(DomainError, match=r"got -0\.5$"):
            sample_on_simplex((0.5, 0.5), np.float64(-0.5), rng)
        with pytest.raises(InfeasibleDistanceError, match=r"at distance 3\.0 > 2$"):
            sample_on_simplex((0.5, 0.5), np.float64(3.0), rng)


class TestSampleOnSimplex:
    def test_interior_distance_exact(self):
        rng = np.random.default_rng(42)
        delta = 0.004
        for _ in range(10_000):
            v = sample_on_simplex(FROG_REFERENCE, delta, rng)
            assert v.min() >= 0.0 and abs(v.sum() - 1.0) <= 1e-12
            d = absolute_distance(v, FROG_REFERENCE)
            assert 0.0 < d <= delta * (1 + 1e-12)
            assert d == pytest.approx(delta, rel=1e-9)

    def test_clipping_near_boundary(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            v = sample_on_simplex((0.999, 0.001), 0.1, rng)
            assert v.min() >= 0.0 and abs(v.sum() - 1.0) <= 1e-12
            assert absolute_distance(v, (0.999, 0.001)) <= 0.1 * (1 + 1e-12)

    def test_small_delta_stays_close(self):
        rng = np.random.default_rng(2)
        v = sample_on_simplex(FROG_REFERENCE, 1e-12, rng)
        assert absolute_distance(v, FROG_REFERENCE) <= 1e-12 * (1 + 1e-9)

    def test_deterministic(self):
        a = sample_on_simplex(FROG_REFERENCE, 0.01, np.random.default_rng(42))
        b = sample_on_simplex(FROG_REFERENCE, 0.01, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_single_entry(self):
        np.testing.assert_array_equal(sample_on_simplex((1.0,), 0.5,
                                                        np.random.default_rng(0)), (1.0,))

    def test_infeasible(self):
        with pytest.raises(InfeasibleDistanceError):
            sample_on_simplex((0.5, 0.5), 2.5, np.random.default_rng(0))
        for delta in (-0.1, float("nan")):
            with pytest.raises(DomainError):
                sample_on_simplex((0.5, 0.5), delta, np.random.default_rng(0))

    @pytest.mark.parametrize("arity", [2, 3, 4, 5])
    def test_draw_is_the_three_call_draw(self, arity):
        # For arity 2 the draw skips integers(1, 2), which returns ones and
        # takes no bits: outputs and the generator state must not tell.
        from pmcperturb.sampler import _draw

        rng, three_calls = np.random.default_rng([3, arity]), np.random.default_rng([3, arity])
        drawn = _draw(rng, 7, arity)
        expected = (three_calls.random((7, arity)), three_calls.integers(1, arity, size=7),
                    three_calls.standard_exponential((7, arity)))
        for got, want in zip(drawn, expected):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert rng.bit_generator.state == three_calls.bit_generator.state


class TestEmpiricalKappa:
    def test_frog_small_delta_sandwich(self, frog):
        pmc, problem, _ = frog
        reference = gradient_coefficients(pmc, problem)
        value = empirical_kappa(reference, delta=1e-4, n_samples=20, seed=3)
        assert value >= 0.99 * FROG_KAPPA
        assert value <= 1.01 * FROG_KAPPA + 1e-9

    def test_frog_published_distance(self, frog):
        pmc, problem, _ = frog
        reference = gradient_coefficients(pmc, problem)
        value = empirical_kappa(reference, delta=0.004, n_samples=10_000, seed=4)
        assert value <= FROG_KAPPA * 1.05

    def test_insensitive_chain(self):
        # the single parameter sits outside the constraint block, so h = 0
        # and any measured effect is pure higher-order remainder (here: none)
        from pmcperturb import DistributionParameter, Pmc, ReachabilityProblem

        pmc = Pmc(n=3, initial=(0.5, 0.5, 0.0),
                  concrete_rows={1: (0.2, 0.4, 0.4), 2: (0.3, 0.3, 0.4)},
                  parameters=(DistributionParameter("q", 3, (1, 2), (0.5, 0.5)),))
        reference = gradient_coefficients(
            pmc, ReachabilityProblem(frozenset({1}), frozenset({2})))
        assert empirical_kappa(reference, delta=1e-3, n_samples=50, seed=5) <= 1e-12

    def test_rejects_parameter_free_model_and_negative_samples(self, frog):
        pmc, problem, _ = frog
        reference = gradient_coefficients(pmc, problem)
        fixed = Pmc(n=pmc.n, initial=pmc.initial,
                    concrete_rows={**pmc.concrete_rows, 1: pmc.parameters[0].reference},
                    parameters=())
        fixed_reference = gradient_coefficients(fixed, problem)
        with pytest.raises(EmptyVectorError):
            empirical_kappa(fixed_reference, delta=1e-3, n_samples=5, seed=0)
        with pytest.raises(EmptyVectorError):
            validate_bounds(fixed_reference, {}, n_samples=5, seed=0)
        with pytest.raises(DomainError):
            empirical_kappa(reference, delta=1e-3, n_samples=-1, seed=0)
        with pytest.raises(DomainError):
            validate_bounds(reference, {"hop": 1e-3}, n_samples=-1, seed=0)

    def test_distance_messages_print_plain_floats(self, frog):
        reference = gradient_coefficients(*frog[:2])
        with pytest.raises(DomainError, match=r"got 0\.0$"):
            empirical_kappa(reference, delta=np.float64(0.0), n_samples=1, seed=0)
        with pytest.raises(InfeasibleDistanceError, match=r"at distance 3\.0 > 2$"):
            empirical_kappa(reference, delta=np.float64(3.0), n_samples=1, seed=0)

    @pytest.mark.parametrize("n_samples, seed, message", [
        (2.5, 0, "sample count must be an integer, got 2.5"),
        (5.0, 0, "sample count must be an integer, got 5.0"),
        ("5", 0, "sample count must be an integer, got '5'"),
        (5, 3.5, "seed must be an integer, got 3.5"),
        (5, None, "seed must be an integer, got None"),
    ])
    def test_rejects_non_integer_count_and_seed(self, frog, n_samples, seed, message):
        reference = gradient_coefficients(*frog[:2])
        with pytest.raises(DomainError, match=f"^{message}$"):
            empirical_kappa(reference, delta=0.01, n_samples=n_samples, seed=seed)
        with pytest.raises(DomainError, match=f"^{message}$"):
            validate_bounds(reference, {"hop": 0.01}, n_samples=n_samples, seed=seed)

    def test_numpy_integer_count_and_seed(self, frog):
        reference = gradient_coefficients(*frog[:2])
        given = validate_bounds(reference, {"hop": 0.01}, n_samples=np.int64(3), seed=np.int32(2))
        plain = validate_bounds(reference, {"hop": 0.01}, n_samples=3, seed=2)
        assert [x.exact for x in given.samples] == [x.exact for x in plain.samples]
        with pytest.raises(DomainError, match="^seed must be non-negative, got -1$"):
            validate_bounds(reference, {"hop": 0.01}, n_samples=3, seed=np.int64(-1))

    @pytest.mark.parametrize("n_samples", [0, 3])
    def test_rejects_negative_seed(self, frog, n_samples):
        pmc, problem, _ = frog
        reference = gradient_coefficients(pmc, problem)
        with pytest.raises(DomainError, match="seed must be non-negative, got -1"):
            empirical_kappa(reference, delta=1e-3, n_samples=n_samples, seed=-1)
        with pytest.raises(DomainError, match="seed must be non-negative, got -1"):
            validate_bounds(reference, {"hop": 1e-3}, n_samples=n_samples, seed=-1)


class TestValidateBounds:
    def test_zeroconf_published_violation(self, zeroconf):
        pmc, problem, _ = zeroconf
        reference = gradient_coefficients(pmc, problem)
        [sample] = evaluate_assignments(reference, ["given"],
                                        {p.id: [(0.747, 0.253)] for p in pmc.parameters})
        assert sample.label == "given"
        assert sample.exact == pytest.approx(-4.763017175250e-05, abs=1e-11)
        assert sample.bound == pytest.approx(4.6783581202e-05, abs=1e-12)
        assert sample.exceeds

    def test_small_distances_no_hard_violations(self, zeroconf):
        pmc, problem, _ = zeroconf
        reference = gradient_coefficients(pmc, problem)
        report = validate_bounds(reference, {p.id: 1e-5 for p in pmc.parameters},
                                 n_samples=100, seed=6)
        for sample in report.samples:
            assert abs(sample.exact) <= sample.bound * (1.0 + report.slack)

    def test_linear_never_exceeds_bound(self, zeroconf):
        pmc, problem, _ = zeroconf
        reference = gradient_coefficients(pmc, problem)
        report = validate_bounds(reference, {p.id: 0.004 for p in pmc.parameters},
                                 n_samples=200, seed=7)
        for sample in report.samples:
            assert abs(sample.linear) <= sample.bound + 1e-15
            for pid, vec in sample.assignment.vectors.items():
                assert vec.min() >= 0.0 and abs(vec.sum() - 1.0) <= 1e-12

    def test_sample_distances_recorded(self, zeroconf):
        pmc, problem, _ = zeroconf
        reference = gradient_coefficients(pmc, problem)
        report = validate_bounds(reference, {p.id: 0.002 for p in pmc.parameters},
                                 n_samples=20, seed=8)
        for sample in report.samples:
            for p in pmc.parameters:
                assert sample.distances[p.id] == pytest.approx(
                    absolute_distance(sample.assignment[p.id], p.reference), abs=1e-15)
            assert sample.distance == pytest.approx(sum(sample.distances.values()),
                                                    abs=1e-15)

    def test_reproducible(self, zeroconf):
        pmc, problem, _ = zeroconf
        reference = gradient_coefficients(pmc, problem)
        deltas = {p.id: 0.003 for p in pmc.parameters}
        first = validate_bounds(reference, deltas, n_samples=50, seed=99)
        second = validate_bounds(reference, deltas, n_samples=50, seed=99)
        assert first.empirical_kappa == second.empirical_kappa
        assert first.violations == second.violations
        for a, b in zip(first.samples, second.samples):
            assert a.exact == b.exact and a.linear == b.linear
            for pid in a.assignment.vectors:
                np.testing.assert_array_equal(a.assignment[pid], b.assignment[pid])

    def test_samples_indexed_by_seed(self, zeroconf):
        # sample k's randomness depends only on (seed, k), not on the run size
        pmc, problem, _ = zeroconf
        reference = gradient_coefficients(pmc, problem)
        deltas = {p.id: 0.003 for p in pmc.parameters}
        long = validate_bounds(reference, deltas, n_samples=30, seed=12)
        short = validate_bounds(reference, deltas, n_samples=5, seed=12)
        for a, b in zip(short.samples, long.samples):
            for pid in a.assignment.vectors:
                np.testing.assert_array_equal(a.assignment[pid], b.assignment[pid])

    def test_errors(self, zeroconf, frog):
        pmc, problem, _ = zeroconf
        reference = gradient_coefficients(pmc, problem)
        with pytest.raises(NonpositiveDeltaError):
            validate_bounds(reference, {p.id: 0.0 for p in pmc.parameters},
                            n_samples=1, seed=0)
        with pytest.raises(MissingParameterError):
            validate_bounds(reference, {"probe1": 0.01}, n_samples=1, seed=0)
        # an id that is not a parameter is named, not taken into the bound
        pmc, problem, _ = frog
        with pytest.raises(UnknownParameterError, match="typo"):
            validate_bounds(gradient_coefficients(pmc, problem), {"hop": 0.02, "typo": 0.5},
                            n_samples=5, seed=1)

    @pytest.mark.parametrize("n_samples", [0, 3])
    def test_distance_outside_simplex_diameter(self, zeroconf, n_samples):
        # rejected before any sampling, whatever the sample count
        pmc, problem, _ = zeroconf
        reference = gradient_coefficients(pmc, problem)
        for bad, error in ((float("nan"), NonpositiveDeltaError),
                           (-0.5, NonpositiveDeltaError),
                           (float("inf"), InfeasibleDistanceError),
                           (2.5, InfeasibleDistanceError)):
            deltas = {p.id: 0.01 for p in pmc.parameters}
            deltas["probe3"] = bad
            with pytest.raises(error, match="probe3"):
                validate_bounds(reference, deltas, n_samples=n_samples, seed=0)
            with pytest.raises(DomainError if error is NonpositiveDeltaError else error):
                empirical_kappa(reference, delta=bad, n_samples=n_samples, seed=0)
        # the diameter itself is a feasible distance
        validate_bounds(reference, {p.id: 2.0 for p in pmc.parameters}, n_samples=1, seed=0)

    def test_one_reference_solve_and_one_evaluation(self, zeroconf, monkeypatch):
        # The caller's reference solve is the only one: validate_bounds
        # builds none of its own and evaluates every sample in one batch.
        pmc, problem, _ = zeroconf
        reference = gradient_coefficients(pmc, problem)
        calls = {"gradient_coefficients": 0, "evaluate_assignments": 0}
        count_calls(monkeypatch, calls)
        report = validate_bounds(reference, {p.id: 0.01 for p in pmc.parameters},
                                 n_samples=7, seed=3)
        assert calls == {"gradient_coefficients": 0, "evaluate_assignments": 1}
        assert report.reference is reference
        assert [s.label for s in report.samples] == ["extremal+", "extremal-"] + ["random"] * 7

    def test_random_case_consistency(self):
        rng = np.random.default_rng(31)
        pmc, problem, _ = random_case(rng, n=6, n_params=2)
        g = gradient_coefficients(pmc, problem)
        kappa_sum = sum(condition_number_basic(h) for h in g.h.values())
        report = validate_bounds(g, {p.id: 1e-4 for p in pmc.parameters},
                                 n_samples=50, seed=13)
        assert report.reference.kappa_sum == pytest.approx(kappa_sum, abs=1e-15)
        assert report.empirical_kappa <= kappa_sum * (1 + report.slack) + 1e-12


def assert_sample_matches_direct_resolve(pmc, cp, gradients, sample):
    assignment = Assignment(sample.assignment.vectors)
    distances = {p.id: absolute_distance(assignment[p.id], p.reference)
                 for p in pmc.parameters}
    kappas = {pid: condition_number_basic(h) for pid, h in gradients.h.items()}
    assert sample.exact == direct_resolve(pmc, cp, assignment)
    assert sample.distances == distances
    assert sample.distance == sum(distances.values())
    assert sample.bound == sum(kappas[pid] * d for pid, d in distances.items())
    assert abs(sample.linear - linear_estimate(gradients, assignment)) <= 1e-15


def support_moves(rng, reference):
    """A zero-reference entry moved off 0, and a positive entry cleared to 0.

    Either is ``None`` when the reference has no such entries.
    """
    positive = np.flatnonzero(reference > 0.0)
    zero = np.flatnonzero(reference == 0.0)
    raised = cleared = None
    if zero.size:
        raised = reference.copy()
        i, j = rng.choice(positive), rng.choice(zero)
        mass = reference[i] * rng.uniform(0.1, 1.0)
        raised[i] -= mass
        raised[j] += mass
    if positive.size >= 2:
        cleared = reference.copy()
        i, j = rng.choice(positive, size=2, replace=False)
        cleared[j] += cleared[i]
        cleared[i] = 0.0
    return raised, cleared


def pattern_keeping_move(rng, reference):
    """Mass moved between two positive entries; zero entries stay zero.

    The reference itself when it has fewer than two positive entries.
    """
    moved = reference.copy()
    positive = np.flatnonzero(reference > 0.0)
    if positive.size >= 2:
        i, j = rng.choice(positive, size=2, replace=False)
        mass = reference[i] * rng.uniform(0.05, 0.5)
        moved[i] -= mass
        moved[j] += mass
    return moved


class TestBatchEvaluation:
    def test_published_models_match_direct_resolve(self, frog, zeroconf):
        for pmc, problem, cp in (frog, zeroconf):
            gradients = gradient_coefficients(pmc, problem)
            report = validate_bounds(gradients, {p.id: 0.02 for p in pmc.parameters},
                                     n_samples=40, seed=17)
            for sample in report.samples:
                assert_sample_matches_direct_resolve(pmc, cp, gradients, sample)

    def test_sparse_models_match_direct_resolve(self):
        # Random sparse models: zero entries, absorbing and dead-end states, and
        # samples that move a reference-zero entry off 0 or clear a positive
        # entry, both of which can change the reach-positive mask.
        rng = np.random.default_rng(1304)
        mask_changes = {"raised": 0, "cleared": 0}
        for draw in range(200):
            n = int(rng.integers(3, 9)) if draw % 4 else int(rng.integers(12, 25))
            pmc = random_sparse_pmc(rng, n, int(rng.integers(1, min(n, 4) + 1)))
            problem = random_problem(rng, n)
            if not draw % 4:
                # many destination states, so b sums long row segments
                states = rng.permutation(n) + 1
                problem = ReachabilityProblem(frozenset(states[:n // 2].tolist()),
                                              frozenset(states[n // 2:].tolist()))
            cp = canonicalize(pmc, problem)
            gradients = gradient_coefficients(pmc, problem)
            reference = extract_system(pmc, cp)
            reference_mask = reach_positive_mask(reference.a, reference.b)
            report = validate_bounds(gradients, {p.id: 0.1 for p in pmc.parameters},
                                     n_samples=3, seed=draw)
            samples = list(report.samples)
            for param in pmc.parameters:
                for kind, moved in zip(("raised", "cleared"),
                                       support_moves(rng, param.reference)):
                    if moved is None:
                        continue
                    vectors = {p.id: [moved if p is param else p.reference]
                               for p in pmc.parameters}
                    [sample] = evaluate_assignments(gradients, [kind], vectors)
                    samples.append(sample)
                    system = extract_system(pmc, cp, Assignment(sample.assignment.vectors))
                    if (reach_positive_mask(system.a, system.b) != reference_mask).any():
                        mask_changes[kind] += 1
            for sample in samples:
                assert_sample_matches_direct_resolve(pmc, cp, gradients, sample)
        assert min(mask_changes.values()) >= 10, mask_changes

    def test_mixed_batch_matches_direct_resolve(self, frog):
        # Samples with the reference's positive/zero pattern before and after a
        # "raised" and a "cleared" sample, all in one batch: a reference mask or
        # block left changed by an earlier sample would show in a later one.
        rng = np.random.default_rng(7614)
        cases = [frog]
        for _ in range(150):
            n = int(rng.integers(3, 12))
            pmc = random_sparse_pmc(rng, n, int(rng.integers(1, min(n, 4) + 1)))
            problem = random_problem(rng, n)
            cases.append((pmc, problem, canonicalize(pmc, problem)))
        labels = ["keep"] * 3 + ["raised", "cleared"] + ["keep"] * 3
        mask_changes = 0
        for pmc, problem, cp in cases:
            gradients = gradient_coefficients(pmc, problem)
            vectors = {}
            for param in pmc.parameters:
                raised, cleared = support_moves(rng, param.reference)
                rows = [pattern_keeping_move(rng, param.reference) for _ in labels]
                rows[3] = rows[3] if raised is None else raised
                rows[4] = rows[4] if cleared is None else cleared
                vectors[param.id] = rows
            samples = evaluate_assignments(gradients, labels, vectors)
            reference_mask = gradients.factor.mask
            for sample in samples:
                assert_sample_matches_direct_resolve(pmc, cp, gradients, sample)
                system = extract_system(pmc, cp, Assignment(sample.assignment.vectors))
                changed = (reach_positive_mask(system.a, system.b) != reference_mask).any()
                assert not (changed and sample.label == "keep")
                mask_changes += bool(changed)
        assert mask_changes >= 20, mask_changes

    def test_clipped_samples_patch_the_reference_block(self, monkeypatch):
        # The traffic of a validate run on a dense chain with small entries:
        # samples clip an entry to 0, so each runs a reach search, but keep
        # the reference mask. Each is then factored once, from a copy of the
        # reference block with its parameter entries rewritten: no sample
        # gathers its own I - A block.
        import pmcperturb.reachability as reachability

        rng = np.random.default_rng(0)
        pmc = random_pmc(rng, 12, 3, min_entry=0.001)
        problem = ReachabilityProblem(frozenset(range(1, 12)), frozenset({12}))
        cp = canonicalize(pmc, problem)
        reference = gradient_coefficients(pmc, problem)
        gathers = []
        init = reachability.Factor.__init__

        def spy(self, a, mask, block=None):
            gathers.append(block is None)
            init(self, a, mask, block)
        monkeypatch.setattr(reachability.Factor, "__init__", spy)
        calls = {"reach_positive_mask": 0, "_getrf": 0}
        count_calls(monkeypatch, calls, reachability)
        report = validate_bounds(reference, {p.id: 0.05 for p in pmc.parameters},
                                 n_samples=8, seed=0)
        monkeypatch.undo()

        clipped = sum(any((sample.assignment[p.id] == 0.0).any() for p in pmc.parameters)
                      for sample in report.samples)
        assert clipped >= len(report.samples) // 2
        assert calls == {"reach_positive_mask": clipped, "_getrf": len(report.samples)}
        assert gathers == [False] * len(report.samples)
        for sample in report.samples:
            assert_sample_matches_direct_resolve(pmc, cp, reference, sample)
            system = extract_system(pmc, cp, Assignment(sample.assignment.vectors))
            np.testing.assert_array_equal(reach_positive_mask(system.a, system.b),
                                          reference.factor.mask)

    def test_batch_checks(self, frog):
        pmc, problem, _ = frog
        gradients = gradient_coefficients(pmc, problem)
        with pytest.raises(MissingParameterError):
            evaluate_assignments(gradients, ["given"], {})
        with pytest.raises(ArityMismatchError):
            evaluate_assignments(gradients, ["given"], {"hop": [(0.5, 0.5)]})
        with pytest.raises(ArityMismatchError, match="hop"):  # ragged rows
            evaluate_assignments(gradients, ["ok", "short"], {"hop": [FROG_REFERENCE, (0.5, 0.5)]})
        with pytest.raises(ArityMismatchError, match="hop"):  # rows of nested arrays
            evaluate_assignments(gradients, ["a", "b"],
                                 {"hop": [np.zeros((2, 2)), np.zeros((2, 3))]})
        with pytest.raises(SimplexViolationError, match="hop"):  # an entry that is no number
            evaluate_assignments(gradients, ["word"], {"hop": [(0.375, "x", 0.25, 0.25)]})
        with pytest.raises(SimplexViolationError, match="hop"):
            evaluate_assignments(gradients, ["ok", "bad"],
                                 {"hop": [FROG_REFERENCE, (0.5, 0.5, 0.5, -0.5)]})
        with pytest.raises(SimplexViolationError, match="hop"):
            evaluate_assignments(gradients, ["nan"],
                                 {"hop": [(0.375, 0.125, 0.25, float("nan"))]})
        assert list(evaluate_assignments(gradients, [], {})) == []

    def test_per_vector_work_does_not_grow_with_samples(self, zeroconf, monkeypatch):
        import pmcperturb.model as model
        import pmcperturb.sampler as sampler

        calls = {"is_distribution": 0, "absolute_distance": 0, "sample_on_simplex": 0}
        for name in calls:
            fn = getattr(model, name, None) or getattr(sampler, name)

            def wrapper(*args, _name=name, _fn=fn, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            for module in (model, sampler):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)

        pmc, problem, _ = zeroconf
        reference = gradient_coefficients(pmc, problem)
        counts = []
        for n_samples in (5, 50):
            for name in calls:
                calls[name] = 0
            validate_bounds(reference, {p.id: 0.01 for p in pmc.parameters},
                            n_samples=n_samples, seed=1)
            counts.append(dict(calls))
        assert counts[0] == counts[1]

    def test_sample_on_simplex_is_the_batch_of_one(self, frog):
        # With one parameter, the batched draw of sample k equals
        # sample_on_simplex on the generator keyed (seed, k), bit for bit.
        pmc, problem, _ = frog
        reference = gradient_coefficients(pmc, problem)
        [param] = pmc.parameters
        report = validate_bounds(reference, {param.id: 0.1}, n_samples=20, seed=5)
        for k, sample in enumerate(report.samples[2:]):
            expected = sample_on_simplex(param.reference, 0.1, np.random.default_rng([5, k]))
            np.testing.assert_array_equal(sample.assignment[param.id], expected)


class TestSampleBatch:
    @pytest.fixture
    def report(self, zeroconf):
        pmc, problem, _ = zeroconf
        reference = gradient_coefficients(pmc, problem)
        return validate_bounds(reference, {p.id: 0.05 for p in pmc.parameters},
                               n_samples=6, seed=4)

    def test_views_read_the_columns(self, report):
        batch = report.samples
        assert len(batch) == 8 and batch.labels == ("extremal+", "extremal-") + ("random",) * 6
        for k, sample in enumerate(batch):
            assert isinstance(sample, PerturbationSample)
            assert sample.label == batch.labels[k]
            for pid, rows in batch.vectors.items():
                np.testing.assert_array_equal(sample.assignment[pid], rows[k])
                assert sample.distances[pid] == batch.distances[pid][k]
            for field in ("distance", "exact", "linear", "bound"):
                value = getattr(sample, field)
                assert type(value) is float and value == getattr(batch, field)[k]
            assert sample.exceeds is bool(batch.exceeds[k])

    def test_indexing(self, report):
        batch = report.samples
        assert [s.exact for s in batch] == [batch[k].exact for k in range(len(batch))]
        assert batch[-1].exact == batch[len(batch) - 1].exact
        assert batch[-len(batch)].label == "extremal+"
        for k in (len(batch), -len(batch) - 1):
            with pytest.raises(IndexError):
                batch[k]
        with pytest.raises(TypeError):
            batch["random"]
        tail = batch[2::2]
        assert len(tail) == 3 and [s.exact for s in tail] == [s.exact for s in list(batch)[2::2]]
        assert list(batch[8:]) == []

    def test_columns_are_read_only(self, report):
        batch = report.samples
        columns = [*batch.vectors.values(), *batch.distances.values(), batch.distance,
                   batch.exact, batch.linear, batch.bound, batch.exceeds]
        assert not any(column.flags.writeable for column in columns)
        assert not batch[0].assignment[next(iter(batch.vectors))].flags.writeable
        assert batch.exact.dtype == np.float64 and batch.exceeds.dtype == bool
