"""The sparse reference solve: dispatch, extraction, kernel and sampled re-solves.

A birth-death (gambler's-ruin) chain is large and banded, so it takes the
sparse kernel. Its probability has a closed form, and every quantity is
checked against a dense ``np.linalg.solve`` on :func:`extract_system`.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import birth_death_chain, random_pmc, random_problem, random_sparse_pmc

from pmcperturb import (
    ArityMismatchError,
    Assignment,
    LinearSystem,
    Pmc,
    ReachabilityProblem,
    SingularSystemError,
    SparseSystem,
    build_frog,
    build_zeroconf,
    evaluate_assignments,
    extract_system,
    gradient_coefficients,
    parse_model,
    reach_positive_mask,
    solve_reachability,
    validate_bounds,
)
from pmcperturb.reachability import SPARSE_BANDWIDTH_DIVISOR, SPARSE_MIN_STATES

ROOT = Path(__file__).resolve().parent.parent
MODELS = sorted((ROOT / "models").glob("*.model"))
RTOL = 1e-10
#: Exact deltas are differences of probabilities of order 1, solved by two
#: kernels whose results agree to a few 1e-12 on this chain.
DELTA_ATOL = 1e-10


@pytest.fixture(scope="module")
def chain():
    return birth_death_chain(800)


def dense_reference(pmc, problem, reference):
    """``t``, ``s``, ``h`` and ``kappa`` by ``np.linalg.solve`` on the dense system."""
    cp = reference.cp
    system = extract_system(pmc, cp)
    mask = reach_positive_mask(system.a, system.b)
    block = np.eye(int(mask.sum())) - system.a[np.ix_(mask, mask)]
    t, s = np.zeros(cp.n_constraint), np.zeros(cp.n_constraint)
    t[mask] = np.linalg.solve(block, system.b[mask])
    s[mask] = np.linalg.solve(block.T, reference.iota_c[mask])
    nq, d0 = cp.n_constraint, cp.destination_start - 1
    x = np.concatenate([t, np.zeros(d0 - nq), np.ones(cp.n - d0)])
    h = {}
    for param in pmc.parameters:
        row = cp.permutation[param.row - 1] - 1
        cols = np.asarray([cp.permutation[c - 1] - 1 for c in param.support])
        in_system = (row < nq) & ((cols < nq) | (cols >= d0))
        h[param.id] = np.where(in_system, (s[row] if row < nq else 0.0) * x[cols], 0.0)
    kappa = {pid: 0.5 * (v.max() - v.min()) for pid, v in h.items()}
    return t, s, h, kappa


def dense_delta(pmc, reference, vectors) -> float:
    """Exact delta of one assignment by dense re-solves of both systems."""
    cp, iota_c = reference.cp, reference.iota_c
    t_ref = solve_reachability(extract_system(pmc, cp))
    t_new = solve_reachability(extract_system(pmc, cp, Assignment(vectors)))
    return float(iota_c @ t_new - iota_c @ t_ref)


class TestChain:
    def test_probability_matches_closed_form(self, chain):
        pmc, problem, closed_form = chain
        reference = gradient_coefficients(pmc, problem)
        assert isinstance(reference.system, SparseSystem)
        assert reference.probability == pytest.approx(closed_form, rel=RTOL)

    def test_solution_matches_dense_solve(self, chain):
        pmc, problem, _ = chain
        reference = gradient_coefficients(pmc, problem)
        t, s, h, kappa = dense_reference(pmc, problem, reference)
        np.testing.assert_allclose(reference.t, t, rtol=RTOL)
        np.testing.assert_allclose(reference.s, s, rtol=RTOL)
        for pid in h:
            np.testing.assert_allclose(reference.h[pid], h[pid], rtol=RTOL)
            assert reference.kappa[pid] == pytest.approx(kappa[pid], rel=RTOL)

    def test_extraction_matches_dense_system(self, chain):
        # The CSR holds the dense A, plus the stored reference zero.
        pmc, problem, _ = chain
        reference = gradient_coefficients(pmc, problem)
        dense = extract_system(pmc, reference.cp)
        sparse = reference.system
        np.testing.assert_array_equal(sparse.a.toarray(), dense.a)
        np.testing.assert_array_equal(sparse.b, dense.b)
        assert sparse.a.nnz == np.count_nonzero(dense.a) + 1
        assert not any(x.flags.writeable
                       for x in (sparse.a.data, sparse.a.indices, sparse.a.indptr, sparse.b))

    def test_validate_matches_dense_resolve(self, chain):
        pmc, problem, _ = chain
        reference = gradient_coefficients(pmc, problem)
        report = validate_bounds(reference, {p.id: 0.02 for p in pmc.parameters},
                                 n_samples=6, seed=3)
        # The stored reference zero moves off 0 in a random sample.
        assert any(sample.assignment[pmc.parameters[0].id][3] > 0.0
                   for sample in report.samples)
        for sample in report.samples:
            assert sample.exact == pytest.approx(
                dense_delta(pmc, reference, sample.assignment.vectors), abs=DELTA_ATOL, rel=0)

    def test_mask_changing_and_unmoved_samples(self, chain):
        # Clearing the up-move of a parameter row cuts every state below it
        # off the goal, and making the row absorbing also leaves a state
        # without any exit, whose block row is singular unless the reach
        # search drops it. Unmoved samples must give exactly 0.
        pmc, problem, _ = chain
        reference = gradient_coefficients(pmc, problem)
        param = pmc.parameters[1]
        down, stay, up = param.reference
        moves = {"cut": np.array([down, stay + up, 0.0]), "absorbing": np.array([0.0, 1.0, 0.0])}
        labels = ["unmoved", "cut", "unmoved", "absorbing"]
        vectors = {p.id: [p.reference] * len(labels) for p in pmc.parameters}
        vectors[param.id] = [moves.get(label, param.reference) for label in labels]
        samples = evaluate_assignments(reference, labels, vectors)
        assert samples[0].exact == 0.0 and samples[2].exact == 0.0
        for sample in samples[1::2]:
            assert sample.exact == pytest.approx(
                dense_delta(pmc, reference, sample.assignment.vectors), abs=DELTA_ATOL, rel=0)
            assert sample.exact == pytest.approx(-reference.probability, rel=RTOL)


def reference_kind(pmc, problem):
    return type(gradient_coefficients(pmc, problem).system)


class TestDispatch:
    @pytest.mark.parametrize("path", MODELS, ids=lambda p: p.name)
    def test_model_files_stay_dense(self, path):
        parsed = parse_model(path.read_text(encoding="utf-8"))
        assert reference_kind(parsed.pmc, parsed.problem) is LinearSystem

    @pytest.mark.parametrize("build", [build_frog, build_zeroconf])
    def test_case_studies_stay_dense(self, build):
        assert reference_kind(*build()) is LinearSystem

    def test_small_random_models_stay_dense(self):
        rng = np.random.default_rng(512)
        for draw in range(20):
            n = int(rng.integers(3, 40))
            make = random_pmc if draw % 2 else random_sparse_pmc
            pmc = make(rng, n, int(rng.integers(1, 4)))
            assert reference_kind(pmc, random_problem(rng, n)) is LinearSystem

    def test_large_unbanded_model_stays_dense(self):
        n = SPARSE_MIN_STATES + 90
        pmc = random_sparse_pmc(np.random.default_rng(6), n, 2, density=0.01)
        problem = ReachabilityProblem(frozenset(range(1, n)), frozenset({n}))
        assert reference_kind(pmc, problem) is LinearSystem

    def test_size_threshold(self):
        # The chain's constraint block has n - 2 states.
        for n, kind in ((SPARSE_MIN_STATES + 1, LinearSystem),
                        (SPARSE_MIN_STATES + 2, SparseSystem)):
            pmc, problem, _ = birth_death_chain(n)
            assert reference_kind(pmc, problem) is kind

    def test_bandwidth_threshold(self):
        # A constraint block of 25 * SPARSE_BANDWIDTH_DIVISOR states: the
        # chain has bandwidth 3, and the jump from state 2 sets it.
        n = 25 * SPARSE_BANDWIDTH_DIVISOR + 2
        for jump, kind in ((0, SparseSystem), (25, SparseSystem), (26, LinearSystem)):
            pmc, problem, _ = birth_death_chain(n, jump=jump)
            reference = gradient_coefficients(pmc, problem)
            assert type(reference.system) is kind
            t, s, _, _ = dense_reference(pmc, problem, reference)
            np.testing.assert_allclose(reference.t, t, rtol=RTOL)

    def test_short_concrete_row_reported(self, chain):
        pmc, problem, _ = chain
        rows = dict(pmc.concrete_rows)
        rows[5] = rows[5][:-1]
        short = Pmc(n=pmc.n, initial=pmc.initial, concrete_rows=rows,
                    parameters=pmc.parameters)
        with pytest.raises(ArityMismatchError, match="concrete row 5 has 799 entries"):
            gradient_coefficients(short, problem)

    def test_dense_models_never_import_scipy_sparse(self):
        probe = ("import sys, pmcperturb.cli as cli; "
                 f"cli.main(['validate', {str(MODELS[0])!r}, '--delta', '0.01', "
                 "'--samples', '3']); "
                 "sys.exit('scipy.sparse' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=120,
                       capture_output=True)


def sparse_copy(a: np.ndarray, stored: np.ndarray):
    """CSR form of ``a`` storing every position of ``stored``, zeros included."""
    from scipy.sparse import csr_matrix

    rows, cols = np.nonzero(stored | (a != 0.0))
    return csr_matrix((a[rows, cols], (rows, cols)), shape=a.shape)


class TestKernel:
    def test_reach_mask_matches_dense(self):
        rng = np.random.default_rng(41)
        explicit_zeros = 0
        for _ in range(200):
            n = int(rng.integers(1, 40))
            a = np.where(rng.random((n, n)) < rng.uniform(0.0, 0.2), rng.random((n, n)), 0.0)
            b = np.where(rng.random(n) < 0.15, rng.random(n), 0.0)
            stored = rng.random((n, n)) < 0.1
            sparse = sparse_copy(a, stored)
            explicit_zeros += sparse.nnz - np.count_nonzero(a)
            np.testing.assert_array_equal(reach_positive_mask(sparse, b),
                                          reach_positive_mask(a, b))
        assert explicit_zeros > 100

    def test_solve_matches_dense_kernel(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            pmc = random_sparse_pmc(rng, int(rng.integers(2, 30)), 1)
            problem = random_problem(rng, pmc.n)
            dense = extract_system(pmc, gradient_coefficients(pmc, problem).cp)
            sparse = SparseSystem(a=sparse_copy(dense.a, np.eye(dense.b.size, dtype=bool)),
                                  b=dense.b)
            np.testing.assert_allclose(solve_reachability(sparse), solve_reachability(dense),
                                       rtol=RTOL, atol=1e-15)

    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 2)])
    def test_nan_entry_reported(self, where):
        a = np.array([[0.2, 0.3, 0.0], [0.1, 0.2, 0.3], [0.0, 0.0, 0.5]])
        a[where] = np.nan
        system = SparseSystem(a=sparse_copy(a, np.ones((3, 3), dtype=bool)),
                              b=np.array([0.1, 0.2, 0.3]))
        with pytest.raises(SingularSystemError):
            solve_reachability(system)
