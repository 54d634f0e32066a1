"""Simplex sampling, extremal moves, empirical condition numbers, bound checks."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import random_case

from pmcperturb import (
    Assignment,
    BadIndicesError,
    DomainError,
    EmptyVectorError,
    InfeasibleDistanceError,
    MissingParameterError,
    NonpositiveDeltaError,
    Pmc,
    SimplexViolationError,
    absolute_distance,
    build_zeroconf,
    condition_number_basic,
    empirical_kappa,
    extremal_perturbation,
    gradient_coefficients,
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
        with pytest.raises(DomainError):
            extremal_perturbation((0.5, 0.5), 0.0, 1, 2)

    def test_simplex_violations(self):
        with pytest.raises(SimplexViolationError):
            extremal_perturbation((0.9, 0.1), 0.3, 1, 2)  # entry 1 would exceed 1
        with pytest.raises(SimplexViolationError):
            extremal_perturbation((0.2, 0.3, 0.5), 0.5, 3, 1)  # entry 1 would go negative

    def test_bad_indices(self):
        with pytest.raises(BadIndicesError):
            extremal_perturbation((0.5, 0.5), 0.1, 1, 1)
        with pytest.raises(BadIndicesError):
            extremal_perturbation((0.5, 0.5), 0.1, 0, 2)
        with pytest.raises(BadIndicesError):
            extremal_perturbation((0.5, 0.5), 0.1, 1, 3)


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
        with pytest.raises(DomainError):
            sample_on_simplex((0.5, 0.5), -0.1, np.random.default_rng(0))


class TestEmpiricalKappa:
    def test_frog_small_delta_sandwich(self, frog):
        pmc, _, cp = frog
        value = empirical_kappa(pmc, cp, delta=1e-4, n_samples=20, seed=3)
        assert value >= 0.99 * FROG_KAPPA
        assert value <= 1.01 * FROG_KAPPA + 1e-9

    def test_frog_published_distance(self, frog):
        pmc, _, cp = frog
        value = empirical_kappa(pmc, cp, delta=0.004, n_samples=10_000, seed=4)
        assert value <= FROG_KAPPA * 1.05

    def test_insensitive_chain(self):
        # the single parameter sits outside the constraint block, so h = 0
        # and any measured effect is pure higher-order remainder (here: none)
        from pmcperturb import DistributionParameter, Pmc, ReachabilityProblem, canonicalize

        pmc = Pmc(n=3, initial=(0.5, 0.5, 0.0),
                  concrete_rows={1: (0.2, 0.4, 0.4), 2: (0.3, 0.3, 0.4)},
                  parameters=(DistributionParameter("q", 3, (1, 2), (0.5, 0.5)),))
        cp = canonicalize(pmc, ReachabilityProblem(frozenset({1}), frozenset({2})))
        assert empirical_kappa(pmc, cp, delta=1e-3, n_samples=50, seed=5) <= 1e-12

    def test_rejects_parameter_free_model_and_negative_samples(self, frog):
        pmc, _, cp = frog
        fixed = Pmc(n=pmc.n, initial=pmc.initial,
                    concrete_rows={**pmc.concrete_rows, 1: pmc.parameters[0].reference},
                    parameters=())
        with pytest.raises(EmptyVectorError):
            empirical_kappa(fixed, cp, delta=1e-3, n_samples=5, seed=0)
        with pytest.raises(EmptyVectorError):
            validate_bounds(fixed, cp, {}, n_samples=5, seed=0)
        with pytest.raises(DomainError):
            empirical_kappa(pmc, cp, delta=1e-3, n_samples=-1, seed=0)
        with pytest.raises(DomainError):
            validate_bounds(pmc, cp, {"hop": 1e-3}, n_samples=-1, seed=0)


class TestValidateBounds:
    def test_zeroconf_published_violation(self, zeroconf):
        pmc, _, cp = zeroconf
        assignment = Assignment({p.id: (0.747, 0.253) for p in pmc.parameters})
        report = validate_bounds(pmc, cp, {p.id: 0.006 for p in pmc.parameters},
                                 n_samples=0, seed=0, assignments=[assignment],
                                 inject_extremal=False)
        sample = report.samples[0]
        assert sample.label == "given"
        assert sample.exact == pytest.approx(-4.763017175250e-05, abs=1e-11)
        assert sample.bound == pytest.approx(4.6783581202e-05, abs=1e-12)
        assert sample.exceeds

    def test_small_distances_no_hard_violations(self, zeroconf):
        pmc, _, cp = zeroconf
        report = validate_bounds(pmc, cp, {p.id: 1e-5 for p in pmc.parameters},
                                 n_samples=100, seed=6)
        for sample in report.samples:
            assert abs(sample.exact) <= sample.bound * (1.0 + report.slack)

    def test_linear_never_exceeds_bound(self, zeroconf):
        pmc, _, cp = zeroconf
        report = validate_bounds(pmc, cp, {p.id: 0.004 for p in pmc.parameters},
                                 n_samples=200, seed=7)
        for sample in report.samples:
            assert abs(sample.linear) <= sample.bound + 1e-15
            for pid, vec in sample.assignment.vectors.items():
                assert vec.min() >= 0.0 and abs(vec.sum() - 1.0) <= 1e-12

    def test_sample_distances_recorded(self, zeroconf):
        pmc, _, cp = zeroconf
        report = validate_bounds(pmc, cp, {p.id: 0.002 for p in pmc.parameters},
                                 n_samples=20, seed=8)
        for sample in report.samples:
            for p in pmc.parameters:
                assert sample.distances[p.id] == pytest.approx(
                    absolute_distance(sample.assignment[p.id], p.reference), abs=1e-15)
            assert sample.distance == pytest.approx(sum(sample.distances.values()),
                                                    abs=1e-15)

    def test_reproducible(self, zeroconf):
        pmc, _, cp = zeroconf
        deltas = {p.id: 0.003 for p in pmc.parameters}
        first = validate_bounds(pmc, cp, deltas, n_samples=50, seed=99)
        second = validate_bounds(pmc, cp, deltas, n_samples=50, seed=99)
        assert first.empirical_kappa == second.empirical_kappa
        assert first.violations == second.violations
        for a, b in zip(first.samples, second.samples):
            assert a.exact == b.exact and a.linear == b.linear
            for pid in a.assignment.vectors:
                np.testing.assert_array_equal(a.assignment[pid], b.assignment[pid])

    def test_samples_indexed_by_seed(self, zeroconf):
        # sample k's randomness depends only on (seed, k), not on the run size
        pmc, _, cp = zeroconf
        deltas = {p.id: 0.003 for p in pmc.parameters}
        long = validate_bounds(pmc, cp, deltas, n_samples=30, seed=12)
        short = validate_bounds(pmc, cp, deltas, n_samples=5, seed=12)
        for a, b in zip(short.samples, long.samples):
            for pid in a.assignment.vectors:
                np.testing.assert_array_equal(a.assignment[pid], b.assignment[pid])

    def test_errors(self, zeroconf):
        pmc, _, cp = zeroconf
        with pytest.raises(NonpositiveDeltaError):
            validate_bounds(pmc, cp, {p.id: 0.0 for p in pmc.parameters},
                            n_samples=1, seed=0)
        with pytest.raises(MissingParameterError):
            validate_bounds(pmc, cp, {"probe1": 0.01}, n_samples=1, seed=0)

    def test_random_case_consistency(self):
        rng = np.random.default_rng(31)
        pmc, _, cp = random_case(rng, n=6, n_params=2)
        g = gradient_coefficients(pmc, cp)
        kappa_sum = sum(condition_number_basic(h) for h in g.h.values())
        report = validate_bounds(pmc, cp, {p.id: 1e-4 for p in pmc.parameters},
                                 n_samples=50, seed=13)
        assert report.kappa_sum == pytest.approx(kappa_sum, abs=1e-15)
        assert report.empirical_kappa <= kappa_sum * (1 + report.slack) + 1e-12
