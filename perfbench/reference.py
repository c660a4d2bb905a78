"""A fixed reference task that measures how fast the host runs right now.

The benchmark's machine is a few cores of a shared host whose speed drifts
by tens of percent over seconds to minutes, in CPU time as much as in wall
time, as other tenants come and go.  The reference task is a fixed mix of
the work logent's jobs do -- 2-D FFTs, a dense solve, array ufuncs and a
pure-Python loop -- on fixed inputs, and uses nothing from logent.  It is
timed right before and right after every timed job; dividing the job's wall
time by the reference's and multiplying by REFERENCE_S gives the job's time
on a host on which the reference takes REFERENCE_S, which cancels the drift
and leaves every change of logent's own cost in full.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# A constant that only fixes the scale: times are reported as they would be
# on a host on which reference_task() takes 3.0 ms, about what it takes on a
# quiet 2-vCPU x86-64 VM (Xeon, 2.1 GHz) with one BLAS thread.
REFERENCE_S = 3.0e-3

_rng = np.random.default_rng(20220112)
_GRID = _rng.standard_normal((128, 128))
_MATRIX = _rng.standard_normal((200, 200)) + 20.0 * np.eye(200)
_VECTOR = _rng.standard_normal(200)
_SAMPLES = _rng.standard_normal(16384)


def reference_task() -> float:
    """Run the reference work once; return a number that depends on all of it."""
    acc = 0.0
    for _ in range(2):
        acc += float(np.fft.ifft2(np.fft.fft2(_GRID) * 0.5)[1, 1].real)
    for _ in range(2):
        acc += float(np.linalg.solve(_MATRIX, _VECTOR)[0])
    for _ in range(5):
        acc += float(np.exp(_SAMPLES * 1e-3).sum())
    total = 0
    for i in range(10000):
        total += i * i % 7
    return acc + total


def reference_s() -> float:
    """Wall time of one reference task."""
    start = perf_counter()
    reference_task()
    return perf_counter() - start


def speed(samples: int = 9) -> float:
    """Median reference time over a few back-to-back tasks."""
    times = sorted(reference_s() for _ in range(samples))
    return times[len(times) // 2]
