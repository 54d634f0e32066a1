"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``criterion N: PASS/FAIL`` line (visible with
``pytest -s``); the assertions carry the same tolerances as the printed
criteria.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from conftest import (
    fd_reconstruct,
    random_case,
    random_pmc,
    random_problem,
    zero_sum_direction,
)
from oracles import perturbation_function_exact, solve_series

from pmcperturb import (
    Assignment,
    Direction,
    build_frog,
    build_zeroconf,
    canonicalize,
    condition_number_basic,
    condition_number_directional,
    empirical_kappa,
    evaluate_assignments,
    extract_system,
    gradient_coefficients,
    linear_estimate,
    link_identity_check,
    solve_reachability,
    total_probability,
)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d}: FAIL  {label}")
        raise
    print(f"criterion {number:2d}: PASS  {label}")


def frog_case():
    pmc, problem = build_frog()
    return pmc, problem, canonicalize(pmc, problem)


def zeroconf_case():
    pmc, problem = build_zeroconf(a=0.2, loss_ref=0.25)
    return pmc, problem, canonicalize(pmc, problem)


def test_criterion_1_frog_probability():
    with criterion(1, "frog referential probability 0.500000 (1e-9)"):
        pmc, _, cp = frog_case()
        p = solve_reachability(extract_system(pmc, cp))
        assert total_probability(pmc.initial, p, cp) == pytest.approx(0.5, abs=1e-9)


def test_criterion_2_frog_condition_number():
    with criterion(2, "frog kappa 0.312500 (1e-9) and h vs finite differences (1e-6)"):
        pmc, _, cp = frog_case()
        gradients = gradient_coefficients(pmc, cp)
        kappa = condition_number_basic(gradients.h["hop"])
        assert kappa == pytest.approx(0.3125, abs=1e-9)
        oracle = fd_reconstruct(pmc, cp, "hop")
        assert oracle is not None
        np.testing.assert_allclose(gradients.h["hop"], oracle, atol=1e-6, rtol=0)


FROG_TABLE = (
    ((0.374, 0.124, 0.251, 0.251), 0.0),
    ((0.374, 0.124, 0.250, 0.252), +0.623e-3),
    ((0.377, 0.125, 0.248, 0.250), +0.627e-3),
    ((0.377, 0.125, 0.250, 0.248), -0.627e-3),
    ((0.375, 0.125, 0.248, 0.252), +1.250e-3),
    ((0.375, 0.125, 0.252, 0.248), -1.250e-3),
)


def test_criterion_3_frog_perturbed_models():
    with criterion(3, "frog exact deltas for the six published models (1e-6)"):
        pmc, _, cp = frog_case()
        for vector, expected in FROG_TABLE:
            value = perturbation_function_exact(pmc, cp, Assignment({"hop": vector}))
            assert value == pytest.approx(expected, abs=1e-6)
            assert abs(value) <= 1.250e-3 + 1e-9


def test_criterion_4_zeroconf_probability():
    with criterion(4, "zeroconf referential probability 0.999024 (5e-7)"):
        pmc, _, cp = zeroconf_case()
        p = solve_reachability(extract_system(pmc, cp))
        assert total_probability(pmc.initial, p, cp) == pytest.approx(0.999024, abs=5e-7)


def test_criterion_5_zeroconf_condition_numbers():
    with criterion(5, "zeroconf kappa_sum 7.797e-3 (5e-7) and variation ranges"):
        pmc, _, cp = zeroconf_case()
        gradients = gradient_coefficients(pmc, cp)
        kappas = {pid: condition_number_basic(h) for pid, h in gradients.h.items()}
        kappa_sum = sum(kappas.values())
        assert kappa_sum == pytest.approx(7.797e-3, abs=5e-7)
        expected = {0.002: (0.0156e-3, "0.016"), 0.004: (0.0312e-3, "0.031"),
                    0.006: (0.0468e-3, "0.047")}
        for distance, (target, rendered) in expected.items():
            bound = kappa_sum * distance
            assert bound == pytest.approx(target, abs=5e-8)
            assert f"{bound * 1e3:.3f}" == rendered


ZF_TABLE = ((0.749, -0.016e-3), (0.752, +0.031e-3), (0.747, -0.048e-3))


def test_criterion_6_zeroconf_perturbed_models():
    with criterion(6, "zeroconf exact deltas (1e-6), third model flagged"):
        pmc, _, cp = zeroconf_case()
        vectors = {p.id: [(back, 1.0 - back) for back, _ in ZF_TABLE] for p in pmc.parameters}
        samples = evaluate_assignments(pmc, cp, gradient_coefficients(pmc, cp),
                                       ["given"] * len(ZF_TABLE), vectors)
        flags = []
        for (_, expected), sample in zip(ZF_TABLE, samples):
            assert sample.exact == pytest.approx(expected, abs=1e-6)
            flags.append(sample.exceeds)
        assert flags[2], "the 0.747 model must be flagged as exceeding its range"


def test_criterion_7_link_identity():
    with criterion(7, "sum_i kappa_i*Delta_i == kappa_w*Delta on 100 random PMCs (1e-12)"):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n_params = int(rng.integers(2, 5))
            pmc, _, cp = random_case(rng, n=8, n_params=n_params,
                                     require_param_in_constraint=False)
            gradients = gradient_coefficients(pmc, cp)
            deltas = {pid: float(rng.uniform(1e-4, 0.2))
                      for pid in gradients.parameter_ids}
            check = link_identity_check(gradients, deltas)
            assert check.discrepancy <= 1e-12
            total = sum(deltas.values())
            direction = Direction({pid: d / total for pid, d in deltas.items()})
            kappa_w = condition_number_directional(gradients, direction)
            assert check.rhs == pytest.approx(kappa_w * total, abs=1e-15)


def test_criterion_8_remainder_decay():
    with criterion(8, "remainder/Delta shrinks >= 1.9x per halving on 20 random PMCs"):
        rng = np.random.default_rng(88)
        deltas = (1e-3, 5e-4, 2.5e-4, 1.25e-4, 6.25e-5)
        for _ in range(20):
            pmc, _, cp = random_case(rng, n=8, n_params=int(rng.integers(1, 4)),
                                     min_constraint=3)
            gradients = gradient_coefficients(pmc, cp)
            directions = {p.id: zero_sum_direction(rng, p.arity, 1.0 / len(pmc.parameters))
                          for p in pmc.parameters}
            ratios = []
            for delta in deltas:
                assignment = Assignment({p.id: p.reference + delta * directions[p.id]
                                         for p in pmc.parameters})
                exact = perturbation_function_exact(pmc, cp, assignment)
                linear = linear_estimate(gradients, assignment)
                ratios.append(abs(exact - linear) / delta)
            # the exact delta carries machine-epsilon rounding from the
            # solves, so remainders below ~eps/delta are zero at double
            # precision and the decay factor cannot be measured there
            eps = float(np.finfo(float).eps)
            for (d_large, larger), (d_small, smaller) in zip(
                    zip(deltas, ratios), zip(deltas[1:], ratios[1:])):
                floor = 32.0 * eps / d_small
                assert smaller <= max(larger / 1.9 + 1e-13, floor)


def test_criterion_9_solver_oracle_equivalence():
    with criterion(9, "direct vs series(10000) within 1e-9 on 100 random chains"):
        rng = np.random.default_rng(99)
        for _ in range(100):
            pmc = random_pmc(rng, n=10, n_params=int(rng.integers(1, 3)))
            problem = random_problem(rng, 10)
            cp = canonicalize(pmc, problem)
            system = extract_system(pmc, cp)
            direct = solve_reachability(system)
            series = solve_series(system, truncation=10_000)
            np.testing.assert_allclose(direct, series, atol=1e-9, rtol=0)
            for p in (direct, series):
                if p.size:
                    residual = float(np.max(np.abs(p - (system.a @ p + system.b))))
                    assert residual <= 1e-10


def test_criterion_10_empirical_kappa_sandwich():
    with criterion(10, "empirical kappa in [0.99k, 1.01k + 1e-9] at Delta 1e-4"):
        rng = np.random.default_rng(1010)
        delta = 1e-4
        checked = 0
        while checked < 25:
            pmc, _, cp = random_case(rng, n=int(rng.integers(4, 9)), n_params=1)
            gradients = gradient_coefficients(pmc, cp)
            kappa = condition_number_basic(gradients.h[pmc.parameters[0].id])
            if kappa < 1e-3:
                continue
            checked += 1
            value = empirical_kappa(pmc, cp, delta, n_samples=10,
                                    seed=int(rng.integers(0, 2 ** 31)))
            assert 0.99 * kappa <= value <= 1.01 * kappa + 1e-9
