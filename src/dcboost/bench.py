"""Multi-start experiment harness.

Runs the solvers from seeded random starts, classifies limit points
against known references, and aggregates basin counts and paired
objective comparisons.  Determinism contract: every start draws its own
random substream keyed by ``(seed, start_index)``, so reports are
bitwise identical for given arguments regardless of execution order or
the number of workers.  Wall times are measured and carried in the report
but are the one field excluded from that contract.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from dcboost.core import (
    DcProblem,
    Record,
    RunResult,
    SolverParams,
    Termination,
    as_count,
    norm,
    timing,
)
from dcboost.problems.example2d import CRITICAL_POINTS, Example2dProblem
from dcboost.solvers import run_bdca, run_bdca_plus, run_dca
from dcboost.spanning import PositiveSpanningSet, make_pss

__all__ = [
    "ALGORITHMS",
    "StartSummary",
    "PairRow",
    "PairedStats",
    "MultiStartReport",
    "classify_limit_point",
    "draw_start",
    "run_algorithm",
    "run_table1",
    "run_pairwise_mssc",
]

ALGORITHMS = ("DCA", "BDCA", "BDCA+")
UNCLASSIFIED = "unclassified"


@dataclass
class StartSummary(Record):
    """Outcome of one run from one start (trace dropped, finals kept)."""

    index: int
    x0: np.ndarray
    final_point: np.ndarray
    final_phi: float
    n_iterations: int
    dfo_invocations: int
    wall_time: Optional[float] = timing()
    termination: Termination
    label: Optional[str] = None


@dataclass
class PairRow(Record):
    """A paired comparison of two algorithms from one shared start."""

    instance: int
    phi_dca: float
    phi_bdca_plus: float
    gap: float
    iters_dca: int
    iters_bdca_plus: int
    dfo_invocations: int
    time_ratio: Optional[float] = timing()


@dataclass
class PairedStats(Record):
    win_fraction: float
    mean_gap: float
    max_gap: float


@dataclass
class MultiStartReport(Record):
    """Aggregated multi-start results.

    ``runs`` keeps one summary list per algorithm (ordered by start
    index).  ``basin_counts`` maps algorithm -> label -> count and is
    present for the 2-D experiment only.  ``pairs``/``paired_stats``
    are present for paired comparisons only, with rows sorted by
    objective gap descending.
    """

    runs: dict[str, list[StartSummary]]
    basin_counts: Optional[dict[str, dict[str, int]]] = None
    pairs: Optional[list[PairRow]] = None
    paired_stats: Optional[PairedStats] = None


def classify_limit_point(
    x: np.ndarray,
    references: Sequence[tuple[str, np.ndarray]],
    tol: float = 1e-3,
) -> str:
    """Label of the unique reference within ``tol`` of ``x`` (Euclidean),
    or ``"unclassified"``.

    References closer than ``2*tol`` to each other would make labels
    ambiguous, so that configuration is rejected outright.
    """
    if not tol > 0:  # NaN too
        raise ValueError("tol must be positive")
    # On plain float tuples the spacing check costs a fraction of array
    # arithmetic; it runs on every call.
    coords = [tuple(map(float, p)) for _, p in references]
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            if math.dist(coords[i], coords[j]) <= 2.0 * tol:
                raise ValueError(
                    f"references {references[i][0]!r} and {references[j][0]!r} "
                    f"are too close for tol={tol}"
                )
    x = np.asarray(x, dtype=float)
    for label, p in references:
        if norm(x - np.asarray(p, dtype=float)) <= tol:
            return label
    return UNCLASSIFIED


def _chunk_ranges(n: int, n_chunks: int) -> list[tuple[int, int]]:
    n_chunks = max(1, min(n_chunks, n))
    bounds = np.linspace(0, n, n_chunks + 1, dtype=int)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(n_chunks)]


def _run_chunks(task, n_starts: int, workers: int) -> list[dict]:
    """Run ``task`` over index ranges and concatenate, order-preserving."""
    if workers <= 1:
        return task((0, n_starts))
    ranges = _chunk_ranges(n_starts, workers * 4)
    results: list[dict] = []
    # The pool starts all its processes at the first submit: no more than chunks.
    with ProcessPoolExecutor(max_workers=min(workers, len(ranges))) as ex:
        for part in ex.map(task, ranges):
            results.extend(part)
    return results


def draw_start(problem: DcProblem, seed: int, index: int) -> np.ndarray:
    """Start ``index`` of the multi-start stream at ``seed``: drawn by
    ``problem.sample_start`` from the substream keyed by ``(seed, index)``."""
    return problem.sample_start(np.random.default_rng((seed, index)))


def run_algorithm(
    algo: str,
    problem: DcProblem,
    x0: np.ndarray,
    pss: PositiveSpanningSet,
    params: SolverParams,
) -> RunResult:
    """Run the solver named ``algo`` (one of :data:`ALGORITHMS`) from
    ``x0``; ``pss`` is used by "BDCA+" only."""
    # Runners are module globals called positionally: instrumentation rebinds them.
    if algo == "DCA":
        return run_dca(problem, x0, params)
    if algo == "BDCA":
        return run_bdca(problem, x0, params)
    if algo == "BDCA+":
        return run_bdca_plus(problem, x0, pss, params)
    raise ValueError(f"unknown algorithm {algo!r}")


def _run_starts(
    bounds: tuple[int, int],
    problem: DcProblem,
    algorithms: Sequence[str],
    seed: int,
    params: SolverParams,
    pss_kind: str,
    refs: Optional[Sequence[tuple[str, np.ndarray]]] = None,
) -> list[dict]:
    """Per start index in ``bounds``, one summary per algorithm, all from
    the index's :func:`draw_start`; end points are labelled against
    ``refs`` when given."""
    pss = make_pss(pss_kind, problem.dim)
    rows = []
    for i in range(*bounds):
        x0 = draw_start(problem, seed, i)
        per: dict[str, StartSummary] = {}
        for algo in algorithms:
            res = run_algorithm(algo, problem, x0, pss, params)
            per[algo] = StartSummary(
                index=i,
                x0=x0,
                final_point=res.final_point,
                final_phi=res.final_phi,
                n_iterations=res.n_iterations,
                dfo_invocations=res.dfo_invocations,
                wall_time=res.wall_time,
                termination=res.termination,
                label=None if refs is None else classify_limit_point(res.final_point, refs),
            )
        rows.append(per)
    return rows


def _multistart_params(n_starts: int, workers: int, params: Optional[SolverParams]) -> SolverParams:
    """Check the start and worker counts; ``params`` or the defaults, made
    once for all runs."""
    as_count(n_starts, "n_starts")
    as_count(workers, "workers")
    return SolverParams() if params is None else params


def _table1_chunk(
    bounds: tuple[int, int],
    seed: int,
    params: SolverParams,
    pss_kind: str,
) -> list[dict]:
    refs = [(label, np.asarray(p)) for label, p in CRITICAL_POINTS]
    return _run_starts(bounds, Example2dProblem(), ALGORITHMS, seed, params, pss_kind, refs)


def run_table1(
    n_starts: int,
    seed: int,
    params: Optional[SolverParams] = None,
    workers: int = 1,
    pss_kind: str = "d1",
) -> MultiStartReport:
    """Basin-of-attraction counts on the 2-D test problem.

    Runs all three algorithms from ``n_starts`` uniform random starts in
    the square [-1.5, 1.5]^2 and counts which of the four critical points
    each run converged to (tolerance 1e-3; anything else lands in the
    "unclassified" bucket).
    """
    params = _multistart_params(n_starts, workers, params)
    task = partial(_table1_chunk, seed=seed, params=params, pss_kind=pss_kind)
    rows = _run_chunks(task, n_starts, workers)
    labels = [label for label, _ in CRITICAL_POINTS] + [UNCLASSIFIED]
    runs: dict[str, list[StartSummary]] = {a: [] for a in ALGORITHMS}
    counts: dict[str, dict[str, int]] = {
        a: {label: 0 for label in labels} for a in ALGORITHMS
    }
    for per in rows:
        for algo in ALGORITHMS:
            s = per[algo]
            runs[algo].append(s)
            counts[algo][s.label] += 1
    return MultiStartReport(runs=runs, basin_counts=counts)


def _pairwise_chunk(
    bounds: tuple[int, int],
    problem: DcProblem,
    seed: int,
    params: SolverParams,
    pss_kind: str,
) -> list[dict]:
    return _run_starts(bounds, problem, ("DCA", "BDCA+"), seed, params, pss_kind)


def run_pairwise_mssc(
    problem: DcProblem,
    n_starts: int,
    seed: int,
    params: Optional[SolverParams] = None,
    workers: int = 1,
    pss_kind: str = "d1",
) -> MultiStartReport:
    """Paired DCA vs BDCA+ comparison on any problem with ``sample_start``.

    Both algorithms run from the same start, start ``i`` being
    :func:`draw_start` ``(problem, seed, i)``.  Rows are sorted by
    objective gap ``phi_dca - phi_bdca_plus`` descending.  With
    ``workers > 1`` each chunk of starts gets a pickled copy of ``problem``.
    """
    params = _multistart_params(n_starts, workers, params)
    task = partial(
        _pairwise_chunk, problem=problem, seed=seed, params=params, pss_kind=pss_kind
    )
    rows = _run_chunks(task, n_starts, workers)
    runs: dict[str, list[StartSummary]] = {"DCA": [], "BDCA+": []}
    pairs: list[PairRow] = []
    for per in rows:
        a, b = per["DCA"], per["BDCA+"]
        runs["DCA"].append(a)
        runs["BDCA+"].append(b)
        ratio = (
            a.wall_time / b.wall_time
            if (a.wall_time and b.wall_time and b.wall_time > 0)
            else None
        )
        pairs.append(
            PairRow(
                instance=a.index,
                phi_dca=a.final_phi,
                phi_bdca_plus=b.final_phi,
                gap=a.final_phi - b.final_phi,
                iters_dca=a.n_iterations,
                iters_bdca_plus=b.n_iterations,
                dfo_invocations=b.dfo_invocations,
                time_ratio=ratio,
            )
        )
    pairs.sort(key=lambda r: (-r.gap, r.instance))
    gaps = np.array([p.gap for p in pairs])
    stats = PairedStats(
        win_fraction=float(np.mean(gaps > 1e-9)),
        mean_gap=float(gaps.mean()),
        max_gap=float(gaps.max()),
    )
    return MultiStartReport(runs=runs, pairs=pairs, paired_stats=stats)
