"""Per-call micro-timings of the layer callables, outside any CLI run.

Each callable is timed in batches (a batch lasts at least a millisecond)
for a short budget, and the median batch time per call is reported in
microseconds.  Test points are drawn from the workload seed and cycled, so
one seed always times the same calls.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from tracing import ORACLES


def per_call_us(fn, budget_s: float = 0.05) -> float:
    batch = 1
    while True:
        t = time.perf_counter()
        for _ in range(batch):
            fn()
        if time.perf_counter() - t >= 1e-3 or batch >= 1 << 16:
            break
        batch *= 4
    samples: list[float] = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < 5 or (time.perf_counter() < deadline and len(samples) < 200):
        t = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - t) / batch)
    return statistics.median(samples) * 1e6


def _cycle(items):
    state = {"i": 0}

    def nxt():
        state["i"] = (state["i"] + 1) % len(items)
        return items[state["i"]]

    return nxt


def oracle_timings(problem, points: list) -> dict[str, float]:
    nxt = _cycle(points)
    grads = [problem.subgrad_h(p) for p in points]
    nxt_u = _cycle(grads)
    out = {}
    for oracle in ORACLES:
        fn = getattr(problem, oracle)
        if oracle == "solve_subproblem":
            out[oracle] = per_call_us(lambda: fn(nxt_u()))
        else:
            out[oracle] = per_call_us(lambda: fn(nxt()))
    return out


def solver_timings(problem, points: list) -> dict[str, float]:
    """eval_phi, dca_step, armijo_backtrack and dfo_escape on ``problem``.

    The line search starts from the DC step's point and direction with the
    second-iteration trial step; the direct search starts from the DC
    step's point with a fresh radius, as on its first invocation in a run.
    """
    from dcboost.core import SolverParams, eval_phi
    from dcboost.solvers import DfoState, armijo_backtrack, dca_step, dfo_escape
    from dcboost.spanning import make_d1

    params = SolverParams()
    pss = make_d1(problem.dim)
    steps = [dca_step(problem, p) for p in points]
    nxt = _cycle(points)
    nxt_step = _cycle(steps)
    return {
        "core.eval_phi": per_call_us(lambda: eval_phi(problem, nxt())),
        "solvers.dc_step": per_call_us(lambda: dca_step(problem, nxt())),
        "solvers.line_search": per_call_us(
            lambda: armijo_backtrack(
                problem, *nxt_step()[:2], params.lambda_bar1, params.alpha, params.beta1
            )
        ),
        "solvers.dfo": per_call_us(
            lambda: dfo_escape(
                problem, nxt_step()[0], pss, DfoState(mu=params.mu_bar), params
            )
        ),
    }


def points_for(problem, seed: int, count: int = 8) -> list:
    rng = np.random.default_rng((seed, 7))
    if hasattr(problem, "sample_start"):
        return [problem.sample_start(rng) for _ in range(count)]
    return [rng.uniform(-1.5, 1.5, problem.dim) for _ in range(count)]
