"""Machine-speed probe: a fixed piece of work whose duration tracks how fast
this machine runs right now.

On a shared host a core flips between a fast and a slow state (about 1.4x
apart) every fraction of a second, and the share of time it spends slow
drifts with the host's load over minutes.  Pure-Python and NumPy work slow
down together.  After every rktlab process, run.py times ``probe()`` for a
fixed share of that process's wall time, and divides the run's mean times
by the run's mean probe time over ``REFERENCE_S``.  The reported seconds
are thus seconds on a machine where the probe takes ``REFERENCE_S``.  The
probe runs in the benchmark process between the rktlab processes, never at
the same time as one, so nothing the program does (threads included) can
slow the probe down.

The work mixes what rktlab spends its time on: a Python loop of float
arithmetic and calls, NumPy elementwise kernels on arrays that fit in L2,
and a small LAPACK eigensolve.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Mean seconds of one probe on the 2-core VM the benchmark was written on.
# Only its constancy matters: it fixes the unit of the normalised seconds,
# and it must not change between the commits that are compared.
REFERENCE_S = 0.042

_N = 40_000
_LOOP = 100_000


def _step(x: float, k: int) -> float:
    return x * 0.999 + math.cos(k * 1e-3)


def _work(arr: np.ndarray, mat: np.ndarray) -> float:
    acc = 0.0
    for k in range(_LOOP):
        acc = _step(acc, k)
    for _ in range(16):
        acc += float(np.sum(np.sin(arr) * np.exp(-arr)))
    for _ in range(10):
        acc += float(np.linalg.eigvalsh(mat)[0])
    return acc


def probe(repeats: int = 1) -> list[float]:
    """Seconds of each of ``repeats`` back-to-back runs of the fixed work."""
    rng = np.random.default_rng(0)
    arr = rng.random(_N)
    m = rng.random((128, 128))
    mat = m + m.T
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _work(arr, mat)
        times.append(time.perf_counter() - start)
    return times
