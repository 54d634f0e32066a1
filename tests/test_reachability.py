"""Canonicalization, system extraction, and the two solvers."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from conftest import (
    birth_death_chain,
    count_calls,
    count_lapack_blocks,
    random_pmc,
    random_problem,
    random_sparse_pmc,
    sparse_distribution,
)
from oracles import NonConvergenceError, dense_system, solve_series

from pmcperturb import (
    ArityMismatchError,
    Assignment,
    DistributionParameter,
    EmptyDestinationError,
    IndexOutOfRangeError,
    LinearSystem,
    MissingParameterError,
    Pmc,
    ReachabilityProblem,
    SingularSystemError,
    analyze,
    build_frog,
    build_zeroconf,
    canonicalize,
    extract_system,
    gradient_coefficients,
    instantiate,
    reach_positive_mask,
    solve_reachability,
    total_probability,
    validate_bounds,
)
from pmcperturb.reachability import SPARSE_MIN_STATES

RESIDUAL_HARD = 1e-10


def residual(system, p):
    return float(np.max(np.abs(p - (system.a @ p + system.b)))) if p.size else 0.0


def off_reference(rng, pmc) -> Assignment:
    """Every parameter moved to a random vector with zeros on part of its support."""
    return Assignment({p.id: sparse_distribution(rng, p.arity, 0.7) for p in pmc.parameters})


def wide_destination(rng, n: int) -> ReachabilityProblem:
    """Random disjoint sets: 8 to 12 destination states, a few states in neither."""
    states = rng.permutation(n) + 1
    n_dest = int(rng.integers(8, 13))
    n_cons = int(rng.integers(1, n - n_dest - 1))
    return ReachabilityProblem(constraint=frozenset(states[n_dest:n_dest + n_cons].tolist()),
                               destination=frozenset(states[:n_dest].tolist()))


def extraction_cases(name: str):
    """``(pmc, problem, assignment)`` triples of one model family for the oracle check."""
    rng = np.random.default_rng(14)
    if name in ("frog", "zeroconf"):
        pmc, problem = build_frog() if name == "frog" else build_zeroconf()
        return [(pmc, problem, off_reference(rng, pmc))]
    if name == "chain":
        pmc, problem, _ = birth_death_chain(SPARSE_MIN_STATES + 2)
        return [(pmc, problem, off_reference(rng, pmc))]
    draw = random_pmc if name == "random_pmc" else random_sparse_pmc
    cases = []
    for _ in range(6):
        pmc = draw(rng, int(rng.integers(20, 40)), 3)
        cases.append((pmc, wide_destination(rng, pmc.n), off_reference(rng, pmc)))
    return cases


#: Unvalidated 3-state models with a row or support index outside 1..3.
OUT_OF_RANGE = {
    "concrete row 0": ({0: (1.0, 0.0, 0.0)}, 1, (1, 3)),
    "concrete row 4": ({4: (0.0, 0.0, 1.0)}, 1, (1, 3)),
    "parameter row 4": ({}, 4, (1, 3)),
    "support (0, 1)": ({}, 1, (0, 1)),
    "support (1, 4)": ({}, 1, (1, 4)),
}


class TestCanonicalize:
    def test_overlap_removed(self):
        pmc = random_pmc(np.random.default_rng(0), n=4, n_params=1)
        cp = canonicalize(pmc, ReachabilityProblem(frozenset({1, 2, 3}), frozenset({3})))
        assert cp.constraint_states == (1, 2)
        assert cp.destination_states == (3,)

    def test_frog_identity(self, frog):
        _, _, cp = frog
        assert cp.order == (1, 2, 3, 4)
        assert cp.n_constraint == 2
        assert cp.destination_start == 4

    def test_block_layout(self):
        pmc = random_pmc(np.random.default_rng(1), n=4, n_params=1)
        cp = canonicalize(pmc, ReachabilityProblem(frozenset({2, 4}), frozenset({1})))
        assert cp.permutation == (4, 1, 3, 2)
        assert cp.n_constraint == 2
        assert cp.destination_start == 4

    def test_empty_destination(self):
        pmc, _ = build_frog()
        with pytest.raises(EmptyDestinationError):
            canonicalize(pmc, ReachabilityProblem(frozenset({1}), frozenset()))

    def test_out_of_range(self):
        pmc, _ = build_frog()
        with pytest.raises(IndexOutOfRangeError):
            canonicalize(pmc, ReachabilityProblem(frozenset({1}), frozenset({9})))


class TestExtract:
    def test_frog_system(self, frog):
        pmc, problem, cp = frog
        system = extract_system(pmc, cp)
        np.testing.assert_allclose(system.a, [[0.375, 0.125], [0.375, 0.125]])
        np.testing.assert_allclose(system.b, [0.25, 0.25])
        g = gradient_coefficients(pmc, problem)
        # support (1, 2, 3, 4): two constraint columns, the middle state 3
        # (in neither A nor b) and the destination sum
        np.testing.assert_array_equal(g.h["hop"][:2], g.s[0] * g.t)
        assert g.h["hop"][2] == 0.0
        assert g.h["hop"][3] == g.s[0]

    def test_zeroconf_system(self, zeroconf):
        pmc, problem, cp = zeroconf
        system = extract_system(pmc, cp)
        expected = np.array([
            [0.0, 0.2, 0.0, 0.0, 0.0],
            [0.75, 0.0, 0.25, 0.0, 0.0],
            [0.75, 0.0, 0.0, 0.25, 0.0],
            [0.75, 0.0, 0.0, 0.0, 0.25],
            [0.75, 0.0, 0.0, 0.0, 0.0],
        ])
        np.testing.assert_allclose(system.a, expected)
        np.testing.assert_allclose(system.b, [0.8, 0, 0, 0, 0])
        g = gradient_coefficients(pmc, problem)
        # probe4 (row 5) returns to state 1, a constraint column, or moves
        # on to the failure state 6 in the middle block
        assert g.h["probe4"][0] == g.s[4] * g.t[0]
        assert g.h["probe4"][1] == 0.0

    def test_parameter_outside_constraint(self):
        pmc = Pmc(n=3, initial=(0.5, 0.5, 0.0),
                  concrete_rows={1: (0.2, 0.4, 0.4), 2: (0.3, 0.3, 0.4)},
                  parameters=(DistributionParameter("q", 3, (1, 2), (0.5, 0.5)),))
        problem = ReachabilityProblem(frozenset({1}), frozenset({2}))
        h = gradient_coefficients(pmc, problem).h["q"]
        assert h.tobytes() == np.zeros(2).tobytes()

    @pytest.mark.parametrize("name", ["frog", "zeroconf", "random_pmc", "random_sparse_pmc",
                                      "chain"])
    def test_extraction_matches_dense_oracle(self, name):
        # Both kernels read the rows; the oracle gathers the n x n matrix.
        # Bit for bit, at the references and at an assignment off them.
        for pmc, problem, assignment in extraction_cases(name):
            cp = canonicalize(pmc, problem)
            for given in (None, assignment):
                system = extract_system(pmc, cp, given)
                oracle = dense_system(pmc, cp, given)
                dense = isinstance(system.a, np.ndarray)
                assert dense == (name != "chain")
                a = system.a if dense else system.a.toarray()
                assert a.shape == oracle.a.shape and a.tobytes() == oracle.a.tobytes()
                assert system.b.tobytes() == oracle.b.tobytes()

    @pytest.mark.parametrize("name", ["frog", "zeroconf", "random_sparse_pmc", "chain"])
    def test_slots_hold_canonical_positions(self, name):
        # In model order, 0-based, read-only, and the same at any assignment.
        for pmc, problem, assignment in extraction_cases(name):
            cp = canonicalize(pmc, problem)
            for given in (None, assignment):
                slots = extract_system(pmc, cp, given).slots
                assert len(slots) == len(pmc.parameters)
                for param, (row, support) in zip(pmc.parameters, slots):
                    assert type(row) is int and row == cp.permutation[param.row - 1] - 1
                    assert support.tolist() == [cp.permutation[c - 1] - 1 for c in param.support]
                    assert not support.flags.writeable
        assert LinearSystem(a=np.zeros((1, 1)), b=np.zeros(1)).slots == ()

    @pytest.mark.parametrize("kernel", ["dense", "sparse"])
    def test_assignment_errors_on_both_kernels(self, frog, kernel):
        pmc, _, cp = frog
        if kernel == "sparse":
            pmc, problem, _ = birth_death_chain(SPARSE_MIN_STATES + 2)
            cp = canonicalize(pmc, problem)
            assert not isinstance(extract_system(pmc, cp).a, np.ndarray)
        with pytest.raises(MissingParameterError):
            extract_system(pmc, cp, Assignment({}))
        vectors = {p.id: p.reference for p in pmc.parameters}
        first = pmc.parameters[0]
        vectors[first.id] = np.full(first.arity + 1, 1.0 / (first.arity + 1))
        with pytest.raises(ArityMismatchError, match=f"assignment for {first.id!r}"):
            extract_system(pmc, cp, Assignment(vectors))

    @pytest.mark.parametrize("where", sorted(OUT_OF_RANGE))
    @pytest.mark.parametrize("function", ["extract_system", "instantiate"])
    def test_out_of_range_index(self, function, where):
        # Indexed without a check, row 0 would overwrite row 3 and support
        # position 0 would land in column 3.
        concrete, row, support = OUT_OF_RANGE[where]
        rows = {2: (0.0, 0.0, 1.0), 3: (0.0, 0.0, 1.0), **concrete}
        param = DistributionParameter("q", row, support, (0.6, 0.4))
        pmc = Pmc(n=3, initial=(1.0, 0.0, 0.0), concrete_rows=rows, parameters=(param,))
        with pytest.raises(IndexOutOfRangeError, match=r"outside 1\.\.3"):
            if function == "instantiate":
                instantiate(pmc, Assignment({"q": (0.6, 0.4)}))
            else:
                cp = canonicalize(pmc, ReachabilityProblem(frozenset({1, 2}), frozenset({3})))
                extract_system(pmc, cp)


    def test_extraction_is_kept_without_a_copy(self, frog, monkeypatch):
        given = []
        post_init = LinearSystem.__post_init__

        def spy(system):
            given.append(system.a)
            post_init(system)
        monkeypatch.setattr(LinearSystem, "__post_init__", spy)
        pmc, _, cp = frog
        a = extract_system(pmc, cp).a
        assert a is given[0] and a.base is None and not a.flags.writeable

    def test_read_only_owned_array_is_shared(self):
        a = np.random.default_rng(3).random((5, 5))
        a.flags.writeable = False
        assert LinearSystem(a=a, b=np.zeros(5)).a is a

    def test_writable_or_borrowed_array_is_copied(self):
        a = np.random.default_rng(4).random((5, 5))
        system = LinearSystem(a=a, b=np.zeros(5))
        assert not np.shares_memory(system.a, a) and not system.a.flags.writeable
        a[0, 0] = 7.0
        assert system.a[0, 0] != 7.0
        view = a.T  # read-only, but it does not own its data
        view.flags.writeable = False
        system = LinearSystem(a=view, b=np.zeros(5))
        assert not np.shares_memory(system.a, a)
        np.testing.assert_array_equal(system.a, a.T)

    @pytest.mark.parametrize("form", ["coo", "csc"])
    def test_other_sparse_forms_solve_as_csr(self, form):
        # The sparse kernel reads CSR row pointers: a COO matrix has none,
        # and a CSC one's column pointers read as rows search the transposed
        # graph, which gives a false SingularSystemError on the small system.
        from scipy.sparse import csr_matrix

        pmc, problem, _ = birth_death_chain(SPARSE_MIN_STATES + 2)
        chain = extract_system(pmc, canonicalize(pmc, problem))
        for a, b in ((chain.a, chain.b),
                     (csr_matrix(np.array([[0.0, 0.5], [0.0, 0.0]])), np.array([0.0, 0.5]))):
            assert LinearSystem(a=a, b=b).a is a
            expected = solve_reachability(LinearSystem(a=a, b=b))
            system = LinearSystem(a=a.asformat(form), b=b)
            assert system.a.format == "csr"
            assert solve_reachability(system).tobytes() == expected.tobytes()
        np.testing.assert_array_equal(expected, [0.25, 0.5])


class TestSolve:
    def test_frog_direct_and_series(self, frog):
        pmc, _, cp = frog
        system = extract_system(pmc, cp)
        np.testing.assert_allclose(solve_reachability(system), [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(solve_series(system), [0.5, 0.5], atol=1e-12)

    def test_zero_matrix(self):
        b = np.array([0.3, 0.0, 0.7])
        system = LinearSystem(a=np.zeros((3, 3)), b=b)
        np.testing.assert_allclose(solve_series(system), b)
        np.testing.assert_allclose(solve_reachability(system), b)

    def test_zeroconf_value(self, zeroconf):
        pmc, _, cp = zeroconf
        p = solve_reachability(extract_system(pmc, cp))
        assert p[0] == pytest.approx(0.999024390243902, abs=1e-12)

    def test_unreachable_states_exact_zero(self):
        # state 2 loops inside the constraint block and never reaches b > 0,
        # which also makes I - A singular before restriction
        a = np.array([[0.5, 0.2, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.4]])
        b = np.array([0.3, 0.0, 0.6])
        system = LinearSystem(a=a, b=b)
        p = solve_reachability(system)
        assert p[1] == 0.0
        assert residual(system, p) <= RESIDUAL_HARD
        series = solve_series(system, truncation=10_000)
        assert series[1] == 0.0
        np.testing.assert_allclose(p, series, atol=1e-9)

    @pytest.mark.parametrize("kernel, message", [
        ("dense", r"^dense LU failed: the reach-positive block is exactly singular$"),
        ("sparse", "sparse LU failed"),
    ], ids=["dense", "sparse"])
    def test_singular_block_reported(self, kernel, message):
        # not a stochastic system: I - A is exactly singular on the
        # reach-positive block, and each kernel's LU must report it
        from scipy.sparse import csr_matrix

        a, b = np.full((2, 2), 0.5), np.array([0.5, 0.0])
        system = LinearSystem(a=a if kernel == "dense" else csr_matrix(a), b=b)
        with pytest.raises(SingularSystemError, match=message):
            solve_reachability(system)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 2), (2, 0), "b"])
    def test_nan_entry_reported(self, where):
        # Inside the reach-positive block, on an edge into or out of the
        # unreachable state 3, and in b: each leaves a NaN residual.
        a = np.array([[0.2, 0.3, 0.0], [0.1, 0.2, 0.0], [0.0, 0.0, 0.5]])
        b = np.array([0.4, 0.5, 0.0])
        if where == "b":
            b[2] = np.nan
        else:
            a[where] = np.nan
        with pytest.raises(SingularSystemError):
            solve_reachability(LinearSystem(a=a, b=b))

    def test_series_non_convergence(self):
        a = np.array([[0.99]])
        b = np.array([0.01])
        system = LinearSystem(a=a, b=b)
        with pytest.raises(NonConvergenceError) as excinfo:
            solve_series(system, truncation=5)
        assert excinfo.value.residual > 1e-10

    def test_series_iterates_monotone(self, zeroconf):
        pmc, _, cp = zeroconf
        system = extract_system(pmc, cp)
        direct = solve_reachability(system)
        term = system.b.copy()
        partial = system.b.copy()
        previous = np.zeros_like(partial)
        for _ in range(60):
            assert np.all(partial >= previous - 1e-15)
            assert np.all(partial <= direct + 1e-12)
            previous = partial.copy()
            term = system.a @ term
            partial = partial + term
        np.testing.assert_allclose(
            solve_series(system, truncation=60),
            partial, atol=1e-15)

    def test_direct_vs_series_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            pmc = random_pmc(rng, n=10, n_params=int(rng.integers(1, 3)))
            problem = random_problem(rng, 10)
            cp = canonicalize(pmc, problem)
            system = extract_system(pmc, cp)
            direct = solve_reachability(system)
            series = solve_series(system, truncation=10_000)
            np.testing.assert_allclose(direct, series, atol=1e-9)
            assert residual(system, direct) <= RESIDUAL_HARD
            assert residual(system, series) <= RESIDUAL_HARD
            assert np.all(direct >= 0.0) and np.all(direct <= 1.0)


class TestTotalProbability:
    def test_frog(self, frog):
        pmc, _, cp = frog
        p = solve_reachability(extract_system(pmc, cp))
        assert total_probability(pmc.initial, p, cp) == pytest.approx(0.5, abs=1e-12)

    def test_zeroconf(self, zeroconf):
        pmc, _, cp = zeroconf
        p = solve_reachability(extract_system(pmc, cp))
        assert total_probability(pmc.initial, p, cp) == pytest.approx(0.999024390243902,
                                                                      abs=1e-12)

    def test_initial_on_destination(self, frog):
        pmc, problem, cp = frog
        p = solve_reachability(extract_system(pmc, cp))
        assert total_probability((0, 0, 0, 1.0), p, cp) == 1.0

    def test_arity_errors(self, frog):
        pmc, _, cp = frog
        with pytest.raises(ArityMismatchError):
            total_probability((0.5, 0.5), np.array([0.5, 0.5]), cp)
        with pytest.raises(ArityMismatchError):
            total_probability(pmc.initial, np.array([0.5]), cp)


def bfs_mask(a, b):
    """Independent reverse breadth-first search over the edges ``A[i, j] > 0``."""
    n = len(b)
    predecessors = [[] for _ in range(n)]
    for i, j in zip(*np.nonzero(np.asarray(a) > 0.0)):
        predecessors[int(j)].append(int(i))
    reached = [float(x) > 0.0 for x in b]
    queue = deque(i for i in range(n) if reached[i])
    while queue:
        j = queue.popleft()
        for i in predecessors[j]:
            if not reached[i]:
                reached[i] = True
                queue.append(i)
    return np.array(reached, dtype=bool)


def path_system(n, broken_at=None):
    """``i -> i + 1`` chain whose last state alone feeds the destination."""
    a = np.zeros((n, n))
    a[np.arange(n - 1), np.arange(1, n)] = 0.5
    if broken_at is not None:
        a[broken_at, broken_at + 1] = 0.0
    b = np.zeros(n)
    b[-1] = 0.5
    return a, b


class TestReachPositiveMask:
    def test_random_sparse_against_bfs(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            a = np.where(rng.random((n, n)) < rng.uniform(0.0, 0.2), rng.random((n, n)), 0.0)
            a[np.diag_indices(n)] = np.where(rng.random(n) < 0.3, rng.random(n), 0.0)
            cut = int(rng.integers(0, n + 1))  # no edges between the two parts
            a[:cut, cut:] = 0.0
            a[cut:, :cut] = 0.0
            b = np.where(rng.random(n) < 0.15, rng.random(n), 0.0)
            np.testing.assert_array_equal(reach_positive_mask(a, b), bfs_mask(a, b))

    def test_zero_b_and_zero_a(self):
        rng = np.random.default_rng(29)
        a = rng.random((12, 12))
        assert not reach_positive_mask(a, np.zeros(12)).any()
        b = np.where(rng.random(12) < 0.5, 0.4, 0.0)
        np.testing.assert_array_equal(reach_positive_mask(np.zeros((12, 12)), b), b > 0.0)
        assert reach_positive_mask(np.zeros((0, 0)), np.zeros(0)).size == 0

    @pytest.mark.parametrize("broken_at", [None, 999])
    def test_long_path(self, broken_at):
        a, b = path_system(2000, broken_at)
        mask = reach_positive_mask(a, b)
        np.testing.assert_array_equal(mask, bfs_mask(a, b))
        assert int(mask.sum()) == (2000 if broken_at is None else 1000)


@pytest.mark.parametrize("kernel", ["dense", "sparse"])
def test_one_mask_and_one_factorization_per_reference_solve(monkeypatch, frog, kernel):
    """``analyze`` and ``validate_bounds`` each build and factor the reference once.

    One ``canonicalize``, one ``extract_system``, one lookup of the
    parameters' positions and one reach search per reference solve, and
    one SuperLU factorization on a sparse birth-death chain; on the dense
    frog LAPACK gets the reference block twice, for ``t`` and, transposed,
    for ``s``. Both systems are read from the model rows, so
    ``instantiate`` is never called, and the samples read the positions
    from the reference system.
    """
    import scipy.sparse.linalg

    import pmcperturb.reachability as reachability

    dense = kernel == "dense"
    pmc, problem, _ = frog if dense else birth_death_chain(SPARSE_MIN_STATES + 2)
    lu, reference_blocks = ("gesv", 2) if dense else ("splu", 1)
    calls = {"canonicalize": 0, "extract_system": 0, "_parameter_slots": 0, "instantiate": 0,
             "reach_positive_mask": 0, **({} if dense else {"splu": 0})}
    count_calls(monkeypatch, calls, reachability, scipy.sparse.linalg)
    if dense:
        calls["gesv"] = 0
        count_lapack_blocks(monkeypatch, calls)
    once = {**dict.fromkeys(calls, 1), "instantiate": 0, lu: reference_blocks}
    analyze(gradient_coefficients(pmc, problem))
    assert calls == once

    calls.update(dict.fromkeys(calls, 0))
    report = validate_bounds(gradient_coefficients(pmc, problem),
                             {p.id: 0.01 for p in pmc.parameters}, n_samples=5, seed=1)
    # One reference solve, then one block or factorization per evaluated
    # sample. Only a sample that moves an entry to or from 0 needs its own
    # reach search: none on the frog, and on the chain those that raise its
    # reference zero.
    batch = report.samples
    count = len(batch.labels)
    moved = sum(any(((batch.vectors[p.id][k] > 0.0) != (p.reference > 0.0)).any()
                    for p in pmc.parameters) for k in range(count))
    assert moved == 0 if dense else moved > 0
    assert calls == {**once, "reach_positive_mask": 1 + moved, lu: reference_blocks + count}
