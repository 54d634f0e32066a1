"""Calibration of the host's current speed, for timings on a shared machine.

On a host shared with other tenants the same operation can take 0.6 s in
one second and 1.1 s in the next, because the processor and its caches
are shared. :func:`calibrate` times a fixed piece of work of the same
kinds the program does: JSON round trips and float ``repr`` (parser and
digest), a Python loop of small numpy calls (sampler), boolean fancy
indexing on a 1000 x 1000 matrix (reach-positive mask) and a dense solve.
The benchmark runs it next to every timed operation and scales the
operation's wall time by ``REFERENCE_S / calibration``, which removes
most of the host's drift from the reported seconds.

The work is repeated and the fastest repetition counts, which drops
repetitions cut into by a momentary interruption. On a shared 2-CPU
VM, over blocks of 10-22 operations, this took the spread of median
operation times from 7-17% of the median unscaled to 2-4% scaled.
"""

from __future__ import annotations

import json
import time

import numpy as np

#: Calibration time that defines the reference host speed.
REFERENCE_S = 0.05
#: Repetitions of the calibration work per measurement.
REPEATS = 3

_FLOATS = [i * 0.37 + 1.0 / (i + 3) for i in range(12000)]
_RNG = np.random.default_rng(0)
_ADJACENCY = _RNG.random((1000, 1000)) > 0.995
_MATRIX = _RNG.random((150, 150)) + 150.0 * np.eye(150)


def calibrate() -> float:
    """Seconds the fixed calibration work takes now (fastest of ``REPEATS``)."""
    return min(_work() for _ in range(REPEATS))


def _work() -> float:
    start = time.perf_counter()
    json.loads(json.dumps(_FLOATS))
    ",".join(repr(x) for x in np.asarray(_FLOATS[:6000]))
    for k in range(200):
        v = np.clip(_MATRIX[k % 150, :8] / _MATRIX[k % 150, :8].sum(), 0.0, 1.0)
        float(np.abs(v - 0.125).sum())
    reached = _ADJACENCY[0]
    for _ in range(8):
        reached = reached | _ADJACENCY[:, reached].any(axis=1)
    np.linalg.solve(_MATRIX, np.ones(150))
    return time.perf_counter() - start


def scaled(seconds: float, calibration: float) -> float:
    """``seconds`` at the reference host speed."""
    return seconds * REFERENCE_S / calibration
