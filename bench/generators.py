"""Seeded model families for the benchmark, written as v1 ``.model`` files.

Every generator draws from ``numpy.random.default_rng([seed, family])`` and
builds the model with the public data model, then serializes it with
``pmcperturb.render_model``. The same seed gives byte-identical files.
Draws are never filtered or redrawn: a draw the program mishandles shows
up as a failed operation, not as a missing input.

Run as a script to write one family's file::

    python3 bench/generators.py chain-sensitivity 7 out.model
"""

from __future__ import annotations

import sys

import numpy as np

from pmcperturb import DistributionParameter, Pmc, ReachabilityProblem, render_model

CHAIN_STATES = 1000
CHAIN_PARAMETERS = 4
PROBES = 16
DENSE_STATES = 400
DENSE_PARAMETERS = 4


def birth_death_chain(seed: int, n: int = CHAIN_STATES,
                      n_params: int = CHAIN_PARAMETERS) -> str:
    """Gambler's-ruin chain: state 1 is ruin, state ``n`` the goal.

    Interior state ``i`` moves down with ``q_i``, stays with ``r_i`` and
    moves up with ``p_i``; ``q_i / p_i`` stays near 1 so the chain has a
    long diameter and a well-conditioned ``I - A``. ``n_params`` interior
    rows are distribution parameters over ``(i - 1, i, i + 1)`` whose
    reference is the row itself. The run starts at one interior state.
    """
    rng = np.random.default_rng([seed, 1])
    stay = rng.uniform(0.1, 0.3, size=n)
    up_share = rng.uniform(0.47, 0.53, size=n)
    param_rows = sorted(int(s) for s in rng.choice(np.arange(2, n), size=n_params,
                                                   replace=False))
    start = int(rng.integers(2, n))

    concrete = {}
    parameters = []
    for state in range(1, n + 1):
        row = np.zeros(n)
        if state in (1, n):
            row[state - 1] = 1.0
            concrete[state] = row
            continue
        up = (1.0 - stay[state - 1]) * up_share[state - 1]
        down = (1.0 - stay[state - 1]) - up
        triple = (down, stay[state - 1], up)
        if state in param_rows:
            parameters.append(DistributionParameter(
                id=f"row{state}", row=state, support=(state - 1, state, state + 1),
                reference=triple))
        else:
            row[state - 2:state + 1] = triple
            concrete[state] = row
    initial = np.zeros(n)
    initial[start - 1] = 1.0
    pmc = Pmc(n=n, initial=initial, concrete_rows=concrete, parameters=tuple(parameters))
    problem = ReachabilityProblem(constraint=frozenset(range(2, n)),
                                  destination=frozenset({n}))
    return render_model(pmc, problem)


def zeroconf_probes(seed: int, probes: int = PROBES) -> str:
    """Address-probing protocol with ``probes`` probes (``probes + 3`` states).

    State 1 finds a fresh address taken with probability ``a`` and enters
    probing; each probe row ``k + 1`` is a parameter over (back to 1,
    forward) with its own loss probability. ``probes`` lost probes end in
    the failure state ``probes + 2``; success is state ``probes + 3``.
    """
    rng = np.random.default_rng([seed, 2])
    a = float(rng.uniform(0.1, 0.5))
    losses = rng.uniform(0.1, 0.4, size=probes)
    n = probes + 3
    failure, success = probes + 2, probes + 3
    first = np.zeros(n)
    first[1] = a
    first[success - 1] = 1.0 - a
    concrete = {1: first}
    for state in (failure, success):
        row = np.zeros(n)
        row[state - 1] = 1.0
        concrete[state] = row
    parameters = tuple(
        DistributionParameter(id=f"probe{k}", row=k + 1, support=(1, k + 2),
                              reference=(1.0 - losses[k - 1], losses[k - 1]))
        for k in range(1, probes + 1))
    initial = np.zeros(n)
    initial[0] = 1.0
    pmc = Pmc(n=n, initial=initial, concrete_rows=concrete, parameters=parameters)
    problem = ReachabilityProblem(constraint=frozenset(range(1, probes + 2)),
                                  destination=frozenset({success}))
    return render_model(pmc, problem)


def random_dense(seed: int, n: int = DENSE_STATES,
                 n_params: int = DENSE_PARAMETERS) -> str:
    """Random chain with every row drawn from a flat Dirichlet (full support).

    Two destination states, about 80% of the rest as constraint states and
    the remainder outside both sets, so parameter entries land in all three
    places of the extracted system. The parameters sit on constraint rows
    and span every column.
    """
    rng = np.random.default_rng([seed, 3])
    order = rng.permutation(n) + 1
    destination = [int(s) for s in order[:2]]
    n_constraint = int(0.8 * (n - 2))
    constraint = [int(s) for s in order[2:2 + n_constraint]]
    param_rows = set(constraint[:n_params])
    concrete = {}
    parameters = []
    for state in range(1, n + 1):
        row = rng.dirichlet(np.ones(n))
        if state in param_rows:
            parameters.append(DistributionParameter(
                id=f"p{len(parameters) + 1}", row=state,
                support=tuple(range(1, n + 1)), reference=row))
        else:
            concrete[state] = row
    pmc = Pmc(n=n, initial=rng.dirichlet(np.ones(n)), concrete_rows=concrete,
              parameters=tuple(parameters))
    problem = ReachabilityProblem(constraint=frozenset(constraint),
                                  destination=frozenset(destination))
    return render_model(pmc, problem)


#: Generator of the model file each workload runs on.
FAMILIES = {
    "chain-sensitivity": birth_death_chain,
    "probe-validate": zeroconf_probes,
    "dense-validate": random_dense,
}


if __name__ == "__main__":
    workload, seed, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FAMILIES[workload](seed))
