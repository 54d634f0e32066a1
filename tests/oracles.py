"""Independent solvers the tests check the program against.

None of these is a production path: the program solves every system with
the direct solver of ``pmcperturb.reachability``. The truncated series
reaches the least fixed point ``p = A p + b`` from below without any
restriction or factorization, and the exact perturbation value here
re-solves both extracted systems independently.
"""

from __future__ import annotations

import numpy as np

from pmcperturb import (
    NonConvergenceError,
    constrained_initial,
    extract_system,
    solve_reachability,
)
from pmcperturb.reachability import RESIDUAL_HARD


def solve_series(system, truncation: int = 100) -> np.ndarray:
    """Truncated partial sum ``sum_{j<=truncation} A^j b``, clipped to [0, 1].

    Raises:
        NonConvergenceError: the truncated series left a residual above
            ``RESIDUAL_HARD``; the achieved residual is attached.
    """
    if truncation < 0:
        raise ValueError("truncation must be non-negative")
    a, b = system.a, system.b
    p = b.copy()
    term = b.copy()
    for _ in range(truncation):
        term = a @ term
        p += term
        # Row sums of A are <= 1, so the sup norm of the terms is
        # non-increasing; once negligible, further terms cannot change p.
        if term.max(initial=0.0) < 1e-30:
            break
    residual = float(np.max(np.abs(p - (a @ p + b)), initial=0.0))
    if residual > RESIDUAL_HARD:
        raise NonConvergenceError(
            f"series residual {residual:.3e} after {truncation} terms "
            f"exceeds {RESIDUAL_HARD:.0e}", residual=residual)
    return np.clip(p, 0.0, 1.0)


def perturbation_function_exact(pmc, cp, assignment) -> float:
    """Exact perturbation value ``iota_c . (p(assignment) - p(references))``.

    Computed from two direct solves of the extracted systems.
    """
    iota_c = constrained_initial(pmc, cp)
    p_ref = solve_reachability(extract_system(pmc, cp))
    p_new = solve_reachability(extract_system(pmc, cp, assignment))
    return float(iota_c @ p_new - iota_c @ p_ref)


def perturbation_function_series(pmc, cp, assignment, truncation: int = 100) -> float:
    """Perturbation value from truncated-series solves of both systems."""
    iota_c = constrained_initial(pmc, cp)
    p_ref = solve_series(extract_system(pmc, cp), truncation)
    p_new = solve_series(extract_system(pmc, cp, assignment), truncation)
    return float(iota_c @ p_new - iota_c @ p_ref)
