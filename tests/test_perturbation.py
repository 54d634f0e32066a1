"""Gradients, condition numbers, exact deltas, and their interplay."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import (
    assert_gradient_matches_fd,
    random_case,
    random_problem,
    random_sparse_pmc,
    zero_sum_direction,
)
from hypothesis import given, strategies as st
from oracles import perturbation_function_exact, perturbation_function_series

from pmcperturb import (
    Assignment,
    DirectionMismatchError,
    Direction,
    DistributionParameter,
    EmptyVectorError,
    NonpositiveDeltaError,
    Pmc,
    ReachabilityProblem,
    UnknownParameterError,
    WeightsNotNormalizedError,
    canonicalize,
    condition_number_basic,
    condition_number_directional,
    condition_number_parameterwise,
    gradient_coefficients,
    linear_estimate,
    link_identity_check,
    reference_assignment,
)

# frozen from the exact-arithmetic oracle
FROG_H = (0.3125, 0.3125, 0.0, 0.625)
FROG_KAPPA = 0.3125
ZF_KAPPA_EACH = 1.9493158834027365e-3
ZF_KAPPA_SUM = 7.797263533610946e-3
ZF_S = (1.248780487804878, 0.2497560975609756, 0.0624390243902439,
        0.015609756097560976, 0.003902439024390244)
ZF_T = (0.9990243902439024, 0.9951219512195122, 0.9834146341463414,
        0.9365853658536586, 0.7492682926829268)


class TestGradient:
    def test_frog_closed_form(self, frog):
        pmc, problem, _ = frog
        g = gradient_coefficients(pmc, problem)
        np.testing.assert_allclose(g.h["hop"], FROG_H, atol=1e-14)
        np.testing.assert_allclose(g.s, (0.625, 0.375), atol=1e-14)
        np.testing.assert_allclose(g.t, (0.5, 0.5), atol=1e-14)

    def test_frog_matches_oracle(self, frog):
        pmc, problem, cp = frog
        assert_gradient_matches_fd(pmc, cp, gradient_coefficients(pmc, problem))

    def test_zeroconf_closed_form(self, zeroconf):
        pmc, problem, _ = zeroconf
        g = gradient_coefficients(pmc, problem)
        np.testing.assert_allclose(g.s, ZF_S, atol=1e-13)
        np.testing.assert_allclose(g.t, ZF_T, atol=1e-13)
        np.testing.assert_allclose(g.h["probe4"], (ZF_S[4] * ZF_T[0], 0.0), atol=1e-13)
        assert g.h["probe4"][1] == 0.0

    def test_zeroconf_matches_oracle(self, zeroconf):
        pmc, problem, cp = zeroconf
        assert_gradient_matches_fd(pmc, cp, gradient_coefficients(pmc, problem))

    def test_parameter_outside_constraint_is_zero(self):
        pmc = Pmc(n=3, initial=(0.5, 0.5, 0.0),
                  concrete_rows={1: (0.2, 0.4, 0.4), 2: (0.3, 0.3, 0.4)},
                  parameters=(DistributionParameter("q", 3, (1, 2), (0.5, 0.5)),))
        problem = ReachabilityProblem(frozenset({1}), frozenset({2}))
        cp = canonicalize(pmc, problem)
        g = gradient_coefficients(pmc, problem)
        np.testing.assert_array_equal(g.h["q"], np.zeros(2))
        assert_gradient_matches_fd(pmc, cp, g)

    def test_t_equals_reachability_solution(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            pmc, problem, cp = random_case(rng, n=6, n_params=2)
            from pmcperturb import extract_system, solve_reachability

            g = gradient_coefficients(pmc, problem)
            p = solve_reachability(extract_system(pmc, cp))
            np.testing.assert_allclose(g.t, p, atol=1e-10)

    def test_random_models_match_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            pmc, problem, cp = random_case(rng, n=5, n_params=2)
            assert_gradient_matches_fd(pmc, cp, gradient_coefficients(pmc, problem))


def loop_coefficients(pmc, cp, gradients):
    """``h`` by the per-position rule, one support position at a time."""
    h = {}
    for param in pmc.parameters:
        row = cp.permutation[param.row - 1]
        coeff = []
        for col in param.support:
            c = cp.permutation[col - 1]
            if row > cp.n_constraint or cp.n_constraint < c < cp.destination_start:
                coeff.append(0.0)  # row outside the constraint block, or middle column
            elif c <= cp.n_constraint:
                coeff.append(gradients.s[row - 1] * gradients.t[c - 1])
            else:
                coeff.append(gradients.s[row - 1])  # destination column
        h[param.id] = np.array(coeff, dtype=np.float64)
    return h


def assert_gather_matches_loop(pmc, problem):
    gradients = gradient_coefficients(pmc, problem)
    expected = loop_coefficients(pmc, gradients.cp, gradients)
    for pid, h in gradients.h.items():
        assert h.tobytes() == expected[pid].tobytes(), (pid, h, expected[pid])


class TestGather:
    """``h`` as one gather, byte for byte (sign of zero included) against the loop."""

    def test_random_sparse_models(self):
        # With numpy 2.4 and scipy 1.17 this draw includes a rounding-level
        # negative s[row] on a row with a middle-block column.
        rng = np.random.default_rng(1310)
        seen = {"row_middle": 0, "row_destination": 0, "column_middle": 0,
                "zero_reference": 0, "empty_constraint": 0}
        for index in range(600):
            n = int(rng.integers(3, 9))
            pmc = random_sparse_pmc(rng, n, int(rng.integers(1, n + 1)))
            problem = random_problem(rng, n)
            if index % 10 == 0:  # constraint block empty
                problem = ReachabilityProblem(frozenset(), problem.destination)
            cp = canonicalize(pmc, problem)
            assert_gather_matches_loop(pmc, problem)

            nq, d0 = cp.n_constraint, cp.destination_start
            seen["empty_constraint"] += nq == 0
            for param in pmc.parameters:
                row = cp.permutation[param.row - 1]
                seen["row_middle"] += nq < row < d0
                seen["row_destination"] += row >= d0
                seen["column_middle"] += any(nq < cp.permutation[c - 1] < d0
                                             for c in param.support)
                seen["zero_reference"] += bool((param.reference == 0.0).any())
        assert min(seen.values()) >= 20, seen

    def test_rounding_negative_visits_keep_positive_zero(self, frog, monkeypatch):
        # s can come out a rounding-level negative; a middle-block position
        # must still read +0.0 while the others carry the sign of s.
        from pmcperturb.reachability import Factor

        solve = Factor.solve

        def negative_visits(self, a, b, weights=None):
            t, s = solve(self, a, b, weights)
            return t, None if s is None else np.full_like(s, -4.4e-16)

        monkeypatch.setattr(Factor, "solve", negative_visits)
        pmc, problem, _ = frog
        assert_gather_matches_loop(pmc, problem)
        h = gradient_coefficients(pmc, problem).h["hop"]
        assert not np.signbit(h[2]) and h[2] == 0.0
        assert np.signbit(h[[0, 1, 3]]).all()


class TestConditionNumbers:
    def test_basic_frog(self):
        assert condition_number_basic(FROG_H) == pytest.approx(FROG_KAPPA, abs=1e-15)

    def test_basic_degenerate(self):
        assert condition_number_basic((0.4, 0.4, 0.4)) == 0.0
        assert condition_number_basic((1.0, -1.0)) == 1.0
        assert condition_number_basic((0.7,)) == 0.0

    def test_basic_empty(self):
        with pytest.raises(EmptyVectorError):
            condition_number_basic(())

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
           st.floats(-1e3, 1e3))
    def test_basic_shift_invariant(self, h, c):
        shifted = [x + c for x in h]
        assert condition_number_basic(shifted) == pytest.approx(
            condition_number_basic(h), rel=1e-9, abs=1e-9)

    def test_directional_zeroconf_uniform(self, zeroconf):
        pmc, problem, _ = zeroconf
        g = gradient_coefficients(pmc, problem)
        kappa_w = condition_number_directional(g, Direction.uniform(g.pmc.parameter_ids))
        assert kappa_w == pytest.approx(ZF_KAPPA_EACH, abs=1e-12)
        assert 4 * kappa_w == pytest.approx(ZF_KAPPA_SUM, abs=1e-12)

    def test_directional_single_parameter(self, frog):
        pmc, problem, _ = frog
        g = gradient_coefficients(pmc, problem)
        assert condition_number_directional(g, Direction({"hop": 1.0})) == \
            pytest.approx(FROG_KAPPA, abs=1e-15)

    def test_directional_concentrated_on_constant(self):
        pmc = Pmc(n=3, initial=(0.5, 0.5, 0.0),
                  concrete_rows={1: (0.2, 0.4, 0.4), 2: (0.3, 0.3, 0.4)},
                  parameters=(DistributionParameter("q", 3, (1, 2), (0.5, 0.5)),))
        g = gradient_coefficients(pmc, ReachabilityProblem(frozenset({1}), frozenset({2})))
        assert condition_number_directional(g, Direction({"q": 1.0})) == 0.0

    def test_directional_errors(self, zeroconf):
        pmc, problem, _ = zeroconf
        g = gradient_coefficients(pmc, problem)
        with pytest.raises(DirectionMismatchError):
            condition_number_directional(g, Direction({"probe1": 1.0}))
        with pytest.raises(WeightsNotNormalizedError):
            Direction({"probe1": 0.6, "probe2": 0.6})
        with pytest.raises(WeightsNotNormalizedError):
            Direction({"probe1": 1.5, "probe2": -0.5})

    def test_nan_weights_rejected_and_empty_direction(self):
        for weights in ({"p": float("nan")}, {"p": 1.0, "q": float("nan")}):
            with pytest.raises(WeightsNotNormalizedError):
                Direction(weights)
        assert Direction.uniform([]).weights == {}

    def test_parameterwise(self, frog, zeroconf):
        pmc, problem, _ = frog
        g = gradient_coefficients(pmc, problem)
        assert condition_number_parameterwise(g, "hop") == pytest.approx(FROG_KAPPA)
        with pytest.raises(UnknownParameterError):
            condition_number_parameterwise(g, "nope")
        pmc, problem, _ = zeroconf
        g = gradient_coefficients(pmc, problem)
        assert condition_number_parameterwise(g, "probe1") == \
            pytest.approx(ZF_KAPPA_EACH, abs=1e-12)

    def test_directional_equals_weighted_sum_random(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            pmc, problem, _ = random_case(rng, n=6, n_params=3,
                                          require_param_in_constraint=False)
            g = gradient_coefficients(pmc, problem)
            raw = rng.dirichlet(np.ones(3))
            direction = Direction(dict(zip(g.pmc.parameter_ids, map(float, raw))))
            expected = sum(direction.weights[pid] * condition_number_basic(g.h[pid])
                           for pid in g.pmc.parameter_ids)
            assert condition_number_directional(g, direction) == pytest.approx(
                expected, abs=1e-15)


class TestLinkIdentity:
    def test_zeroconf_uniform_distances(self, zeroconf):
        pmc, problem, _ = zeroconf
        g = gradient_coefficients(pmc, problem)
        check = link_identity_check(g, {pid: 0.002 for pid in g.pmc.parameter_ids})
        assert check.lhs == pytest.approx(1.5594527067221858e-05, abs=1e-12)
        assert check.discrepancy <= 1e-15

    def test_single_parameter(self, frog):
        pmc, problem, _ = frog
        g = gradient_coefficients(pmc, problem)
        check = link_identity_check(g, {"hop": 0.37})
        assert check.lhs == pytest.approx(check.rhs, abs=1e-15)

    def test_random_gradient_sets(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            pmc, problem, _ = random_case(rng, n=5, n_params=int(rng.integers(2, 5)),
                                          require_param_in_constraint=False)
            g = gradient_coefficients(pmc, problem)
            deltas = {pid: float(rng.uniform(1e-4, 0.3)) for pid in g.pmc.parameter_ids}
            assert link_identity_check(g, deltas).discrepancy <= 1e-12

    def test_nonpositive_delta(self, zeroconf):
        pmc, problem, _ = zeroconf
        g = gradient_coefficients(pmc, problem)
        with pytest.raises(NonpositiveDeltaError):
            link_identity_check(g, {pid: 0.0 for pid in g.pmc.parameter_ids})


# frozen exact deltas for the six published frog assignments
FROG_TABLE = (
    ((0.374, 0.124, 0.251, 0.251), 0.0),
    ((0.374, 0.124, 0.250, 0.252), 6.234413965087e-04),
    ((0.377, 0.125, 0.248, 0.250), 6.271951831410e-04),
    ((0.377, 0.125, 0.250, 0.248), -6.271951831410e-04),
    ((0.375, 0.125, 0.248, 0.252), 1.25e-03),
    ((0.375, 0.125, 0.252, 0.248), -1.25e-03),
)


class TestExactPerturbation:
    def test_frog_table(self, frog):
        pmc, _, cp = frog
        for vector, expected in FROG_TABLE:
            value = perturbation_function_exact(pmc, cp, Assignment({"hop": vector}))
            assert value == pytest.approx(expected, abs=1e-11)

    def test_references_zero(self, frog, zeroconf):
        for pmc, _, cp in (frog, zeroconf):
            assert perturbation_function_exact(pmc, cp, reference_assignment(pmc)) == 0.0

    def test_series_agrees(self, frog):
        pmc, _, cp = frog
        a = Assignment({"hop": (0.374, 0.124, 0.250, 0.252)})
        exact = perturbation_function_exact(pmc, cp, a)
        series = perturbation_function_series(pmc, cp, a, truncation=100)
        assert series == pytest.approx(exact, abs=1e-12)


class TestLinearEstimate:
    def test_frog_values(self, frog):
        pmc, problem, _ = frog
        g = gradient_coefficients(pmc, problem)
        assert linear_estimate(g, Assignment({"hop": (0.374, 0.124, 0.250, 0.252)})) == \
            pytest.approx(6.25e-4, abs=1e-15)
        assert linear_estimate(g, Assignment({"hop": (0.374, 0.124, 0.251, 0.251)})) == \
            pytest.approx(0.0, abs=1e-15)
        assert linear_estimate(g, reference_assignment(pmc)) == 0.0

    def test_supremum_bound(self, frog):
        pmc, problem, _ = frog
        g = gradient_coefficients(pmc, problem)
        kappa = condition_number_basic(g.h["hop"])
        delta = 1e-4
        from pmcperturb import sample_on_simplex

        rng = np.random.default_rng(29)
        for _ in range(1000):
            v = sample_on_simplex((0.375, 0.125, 0.25, 0.25), delta, rng)
            estimate = linear_estimate(g, Assignment({"hop": v}))
            assert abs(estimate) <= kappa * delta + 1e-15


class TestRemainderDecay:
    def test_quadratic_remainder(self):
        # Exact deltas carry ~1e-16 absolute rounding noise from the solves,
        # so the ratio is only measurable down to delta = 1e-6 when the
        # quadratic term is large enough; models with weaker curvature at
        # the largest delta are redrawn.
        rng = np.random.default_rng(41)
        deltas = [1e-3 / 2 ** i for i in range(11)]  # down to ~1e-6
        checked = 0
        while checked < 5:
            pmc, problem, cp = random_case(rng, n=8, n_params=int(rng.integers(1, 4)),
                                           min_constraint=3)
            g = gradient_coefficients(pmc, problem)
            directions = {p.id: zero_sum_direction(rng, p.arity, 1.0 / len(pmc.parameters))
                          for p in pmc.parameters}
            ratios = []
            for delta in deltas:
                assignment = Assignment({p.id: p.reference + delta * directions[p.id]
                                         for p in pmc.parameters})
                exact = perturbation_function_exact(pmc, cp, assignment)
                linear = linear_estimate(g, assignment)
                ratios.append(abs(exact - linear) / delta)
            if ratios[0] < 1e-5:
                continue
            checked += 1
            for larger, smaller in zip(ratios, ratios[1:]):
                assert smaller <= larger / 1.9 + 1e-13

    def test_extremal_realizes_kappa(self, frog):
        pmc, problem, cp = frog
        g = gradient_coefficients(pmc, problem)
        kappa = condition_number_basic(g.h["hop"])
        delta = 1e-4
        from pmcperturb import extremal_perturbation

        i1, i2 = int(np.argmax(g.h["hop"])) + 1, int(np.argmin(g.h["hop"])) + 1
        v = extremal_perturbation((0.375, 0.125, 0.25, 0.25), delta, i1, i2)
        value = perturbation_function_exact(pmc, cp, Assignment({"hop": v}))
        assert abs(value) >= 0.99 * kappa * delta
