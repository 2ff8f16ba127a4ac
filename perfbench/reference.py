"""A fixed reference computation, timed between workload iterations.

The end-to-end times are given at reference speed: a raw time ``t`` is
reported as ``t * REFERENCE_S / r``, where ``r`` is the median time of one
reference rep over the same run. That is the time the work would take on a
machine where one rep takes ``REFERENCE_S``. A shared machine whose speed
drifts by tens of percent over minutes moves ``t`` and ``r`` together, so
the ratio keeps what the code costs and drops most of the drift.

The rep resembles the sampler's inner loop (small numpy calls on n=500
vectors, driven from Python) and shares no code with bartsel, so a change to
bartsel moves a scaled time exactly as much as the raw one.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.0025  # nominal seconds of one rep, close to its median on the reference machine
N_ROWS, N_COLS = 500, 48

_rng = np.random.default_rng(20250907)
_X = _rng.standard_normal((N_ROWS, N_COLS))
_Y = _rng.standard_normal(N_ROWS)


def rep() -> float:
    """One rep: for each column, sort, cumulative sums and a split."""
    acc = 0.0
    for j in range(N_COLS):
        col = _X[:, j]
        order = np.argsort(col, kind="stable")
        csum = np.cumsum(_Y[order])
        left = col <= col[order[N_ROWS // 2]]
        acc += float(_Y[left].sum()) - float(csum[-1]) + float(col @ _Y)
    return acc


def sample(seconds: float) -> list[float]:
    """Times of reps run back to back for about ``seconds`` (at least one)."""
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        t0 = time.perf_counter()
        rep()
        times.append(time.perf_counter() - t0)
    return times
