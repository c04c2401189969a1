"""Machine-speed calibration for the timed runs.

On a shared virtual machine the CPU's speed drifts: a fixed pure-Python
loop was measured taking 21 to 42 ms within ten seconds on the 2-vCPU
reference machine, with no steal time.  So a fixed kernel that exercises
what the clustering workloads exercise (distance matrices at their n and
k) is timed before and after every CLI run, and the run's times are
rescaled by ``nominal / measured``.  The kernel is the benchmark's own
code, not the program's, so no change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np


def kernel(n: int, k: int):
    """Distance-matrix work at the clustering workload's n and k."""
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((n, 2))
    a_sq = np.einsum("ij,ij->i", a, a)
    c = rng.standard_normal((k, 2))
    reps = max(1, 200000 // n)

    def run() -> float:
        acc = 0.0
        for _ in range(reps):
            d = a_sq[:, None] + np.einsum("ij,ij->i", c, c)[None, :] - 2.0 * (a @ c.T)
            np.maximum(d, 0.0, out=d)
            acc += float((d.sum(axis=1) - d.min(axis=1)).sum())
            acc += float(np.bincount(np.argmin(d, axis=1), minlength=k).sum())
        return acc

    return run


def measure(run, repeats: int = 5) -> float:
    """Mean time of a few kernel runs, in seconds.  The mean, not the
    median: the speed to correct for is the average over the interval."""
    t = time.perf_counter()
    for _ in range(repeats):
        run()
    return (time.perf_counter() - t) / repeats
