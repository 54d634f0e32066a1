"""Shared test helpers: random model generators and the finite-difference oracle.

The oracle probes the exact perturbation value along zero-sum pair
directions (entries +1/2 and -1/2) with central differences. Such probes
stay on the simplex, so they identify the coefficient vector of one
parameter up to an additive constant; the gauge is fixed by a support
position that is structurally absent from the extracted system (a column
in the middle block of the canonical order, between constraint and
destination, whose coefficient is zero by construction) whenever one
exists, and pairwise differences are checked otherwise. Condition
numbers only depend on those differences, so the check is complete for
everything the bounds use.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import pmcperturb
from pmcperturb import (
    Assignment,
    DistributionParameter,
    Pmc,
    ReachabilityProblem,
    canonicalize,
    reference_assignment,
)
from oracles import perturbation_function_exact

FD_STEP = 1e-6
FD_TOL = 1e-6


def random_distribution(rng: np.random.Generator, k: int, min_entry: float = 0.02) -> np.ndarray:
    """Random simplex vector with every entry at least ``min_entry``."""
    assert k * min_entry < 1.0
    return rng.dirichlet(np.ones(k)) * (1.0 - k * min_entry) + min_entry


def random_pmc(rng: np.random.Generator, n: int, n_params: int,
               min_entry: float = 0.02) -> Pmc:
    """Random PMC with full-support parameters on distinct rows."""
    param_rows = sorted(int(r) + 1 for r in rng.choice(n, size=n_params, replace=False))
    parameters = tuple(
        DistributionParameter(id=f"p{i + 1}", row=row, support=tuple(range(1, n + 1)),
                              reference=random_distribution(rng, n, min_entry))
        for i, row in enumerate(param_rows)
    )
    concrete = {state: random_distribution(rng, n, min_entry)
                for state in range(1, n + 1) if state not in param_rows}
    return Pmc(n=n, initial=random_distribution(rng, n, min_entry),
               concrete_rows=concrete, parameters=parameters)


def sparse_distribution(rng: np.random.Generator, k: int, density: float) -> np.ndarray:
    """Random simplex vector in which each entry is zero with probability ``1 - density``.

    At least one entry is positive.
    """
    keep = rng.random(k) < density
    keep[rng.integers(k)] = True
    v = np.where(keep, rng.dirichlet(np.ones(k)), 0.0)
    return v / v.sum()


def random_sparse_pmc(rng: np.random.Generator, n: int, n_params: int,
                      density: float = 0.4) -> Pmc:
    """Random PMC whose concrete rows, references and initial vector have zero entries.

    Parameters sit on distinct random rows with random non-empty supports,
    and a reference may be zero on part of its support. Zero entries give
    absorbing and dead-end states and reference-zero exits, which
    ``random_pmc`` (every entry at least ``min_entry``) never produces.
    """
    param_rows = sorted(int(r) + 1 for r in rng.choice(n, size=n_params, replace=False))
    parameters = []
    for i, row in enumerate(param_rows):
        arity = int(rng.integers(1, n + 1))
        support = tuple(sorted(int(c) + 1 for c in rng.choice(n, size=arity, replace=False)))
        parameters.append(DistributionParameter(
            id=f"p{i + 1}", row=row, support=support,
            reference=sparse_distribution(rng, arity, density)))
    concrete = {state: sparse_distribution(rng, n, density)
                for state in range(1, n + 1) if state not in param_rows}
    return Pmc(n=n, initial=sparse_distribution(rng, n, density),
               concrete_rows=concrete, parameters=tuple(parameters))


def random_problem(rng: np.random.Generator, n: int) -> ReachabilityProblem:
    """Random disjoint constraint/destination sets."""
    states = rng.permutation(n) + 1
    n_dest = int(rng.integers(1, 3))
    n_cons = int(rng.integers(1, n - n_dest + 1))
    return ReachabilityProblem(
        constraint=frozenset(int(s) for s in states[n_dest:n_dest + n_cons]),
        destination=frozenset(int(s) for s in states[:n_dest]),
    )


def random_case(rng: np.random.Generator, n: int, n_params: int,
                require_param_in_constraint: bool = True,
                min_constraint: int = 1):
    """A (pmc, problem, canonical) triple, redrawn until structurally useful."""
    while True:
        pmc = random_pmc(rng, n, n_params)
        problem = random_problem(rng, n)
        cp = canonicalize(pmc, problem)
        if cp.n_constraint < min_constraint:
            continue
        if require_param_in_constraint:
            rows = {p.row for p in pmc.parameters}
            if not rows & set(cp.constraint_states):
                continue
        return pmc, problem, cp


def birth_death_chain(n: int, seed: int = 0, jump: int = 0):
    """Gambler's-ruin chain on ``1..n`` (1 ruin, ``n`` goal) and its probability.

    Interior state ``i`` moves down with ``q_i``, stays with ``r_i`` and up
    with ``p_i``. Four interior rows are parameters, the last one next to
    the goal; the first also has a support position three states up whose
    reference is 0. With ``jump``,
    state 2 also moves ``jump`` states up with a small probability, which
    sets the bandwidth of the constraint block and voids the closed form
    (returned as ``None`` then).
    """
    rng = np.random.default_rng([seed, n])
    stay = rng.uniform(0.1, 0.3, size=n)
    up = (1.0 - stay) * rng.uniform(0.45, 0.55, size=n)
    down = 1.0 - stay - up
    param_rows = (n // 4, n // 2, 3 * n // 4, n - 1)
    concrete, parameters = {}, []
    for state in range(1, n + 1):
        row = np.zeros(n)
        triple = (down[state - 1], stay[state - 1], up[state - 1])
        if state in (1, n):
            row[state - 1] = 1.0
        elif state == param_rows[0]:
            parameters.append(DistributionParameter(
                id=f"row{state}", row=state,
                support=(state - 1, state, state + 1, state + 3), reference=(*triple, 0.0)))
            continue
        elif state in param_rows:
            parameters.append(DistributionParameter(
                id=f"row{state}", row=state, support=(state - 1, state, state + 1),
                reference=triple))
            continue
        else:
            row[state - 2:state + 1] = triple
            if jump and state == 2:
                row[state - 1] -= 0.01
                row[state - 1 + jump] += 0.01
        concrete[state] = row
    start = n // 3
    initial = np.zeros(n)
    initial[start - 1] = 1.0
    pmc = Pmc(n=n, initial=initial, concrete_rows=concrete, parameters=tuple(parameters))
    problem = ReachabilityProblem(frozenset(range(2, n)), frozenset({n}))
    # P(reach n from k) = sum_{j<k} prod_{2<=i<=j} rho_i / sum_{j<n} prod_{2<=i<=j} rho_i
    weights = np.concatenate([[1.0], np.cumprod(down[1:n - 1] / up[1:n - 1])])
    closed_form = None if jump else float(weights[:start - 1].sum() / weights.sum())
    return pmc, problem, closed_form


def zero_sum_direction(rng: np.random.Generator, k: int, budget: float) -> np.ndarray:
    """Random zero-sum vector with absolute norm ``budget``."""
    while True:
        d = rng.normal(size=k)
        d -= d.mean()
        norm = np.abs(d).sum()
        if norm > 1e-9:
            return d * (budget / norm)


def fd_pair_derivative(pmc: Pmc, cp, pid: str, j: int, k: int,
                       step: float = FD_STEP) -> float:
    """Central difference of the exact value along the (j, k) pair direction.

    Estimates ``(h[j] - h[k]) / 2`` for parameter ``pid`` (0-based entry
    indices here).
    """
    param = pmc.parameter(pid)
    direction = np.zeros(param.arity)
    direction[j] = 0.5
    direction[k] = -0.5
    base = dict(reference_assignment(pmc).vectors)
    plus = dict(base)
    plus[pid] = param.reference + step * direction
    minus = dict(base)
    minus[pid] = param.reference - step * direction
    value_plus = perturbation_function_exact(pmc, cp, Assignment(plus))
    value_minus = perturbation_function_exact(pmc, cp, Assignment(minus))
    return (value_plus - value_minus) / (2.0 * step)


def fd_reconstruct(pmc: Pmc, cp, pid: str, step: float = FD_STEP) -> np.ndarray | None:
    """Full finite-difference coefficient vector, when a zero anchor exists.

    Returns ``None`` if no support position of ``pid`` is structurally
    absent from the system (no gauge anchor); use pairwise checks then.
    """
    param = pmc.parameter(pid)
    if cp.permutation[param.row - 1] > cp.n_constraint:
        anchors = range(param.arity)  # whole row absent: every position anchors
    else:
        anchors = [j for j, col in enumerate(param.support)
                   if cp.n_constraint < cp.permutation[col - 1] < cp.destination_start]
    if not anchors:
        return None
    anchor = anchors[0]
    h = np.zeros(param.arity)
    for j in range(param.arity):
        if j != anchor:
            h[j] = 2.0 * fd_pair_derivative(pmc, cp, pid, j, anchor, step)
    return h


def assert_gradient_matches_fd(pmc: Pmc, cp, gradients, step: float = FD_STEP,
                               tol: float = FD_TOL) -> None:
    """Check every ``h_i`` against the finite-difference oracle."""
    for pid, h in gradients.h.items():
        arity = h.size
        reconstructed = fd_reconstruct(pmc, cp, pid, step)
        if reconstructed is not None:
            np.testing.assert_allclose(h, reconstructed, atol=tol, rtol=0)
        for j in range(arity):
            for k in range(j + 1, arity):
                fd = fd_pair_derivative(pmc, cp, pid, j, k, step)
                assert abs((h[j] - h[k]) / 2.0 - fd) <= tol, (
                    f"parameter {pid!r} pair ({j}, {k}): "
                    f"closed form {(h[j] - h[k]) / 2.0!r} vs oracle {fd!r}")


def count_calls(monkeypatch, calls: dict, *sources) -> None:
    """Count the calls of each function named in ``calls`` into ``calls[name]``.

    The function is taken from the first of ``sources``, then the package,
    that has the name, and replaced in ``sources`` and in every
    ``pmcperturb`` namespace that binds it, so calls through any import of
    it are counted.
    """
    for name in calls:
        fn = next(getattr(m, name) for m in (*sources, pmcperturb) if hasattr(m, name))

        def wrapper(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        package = [m for key, m in sys.modules.items() if key.split(".")[0] == "pmcperturb"]
        for module in (*sources, *package):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, wrapper)


@pytest.fixture
def frog():
    from pmcperturb import build_frog

    pmc, problem = build_frog()
    return pmc, problem, canonicalize(pmc, problem)


@pytest.fixture
def zeroconf():
    from pmcperturb import build_zeroconf

    pmc, problem = build_zeroconf()
    return pmc, problem, canonicalize(pmc, problem)
