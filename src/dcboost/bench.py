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

import logging
import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from dcboost.core import (
    DcProblem,
    Record,
    RunResult,
    SolverParams,
    Termination,
    as_count,
    timing,
)
from dcboost.problems.example2d import CRITICAL_POINTS, Example2dProblem
from dcboost.solvers import run_bdca, run_bdca_plus, run_dca
from dcboost.spanning import PositiveSpanningSet, make_pss

log = logging.getLogger(__name__)

__all__ = [
    "ALGORITHMS",
    "LABEL_TOL",
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
PAIRED = ("DCA", "BDCA+")
UNCLASSIFIED = "unclassified"
#: An end point takes a reference's label within this Euclidean distance.
LABEL_TOL = 1e-3


@dataclass
class StartSummary(Record):
    """Outcome of one run from one start (trace dropped, finals kept)."""

    index: int
    x0: np.ndarray
    final_point: np.ndarray
    final_phi: float
    n_iterations: int
    dfo_invocations: int
    wall_time: float = timing()
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
    x: Sequence[float], references: Sequence[tuple[str, Sequence[float]]]
) -> str:
    """Label of the reference within :data:`LABEL_TOL` of ``x`` (by
    ``math.dist``), or ``"unclassified"``.

    References within ``2*LABEL_TOL`` of each other would make labels
    ambiguous, so that configuration is rejected outright.
    """
    for (a, p), (b, q) in combinations(references, 2):
        if math.dist(p, q) <= 2.0 * LABEL_TOL:
            raise ValueError(f"references {a!r} and {b!r} are too close")
    for label, p in references:
        if math.dist(x, p) <= LABEL_TOL:
            return label
    return UNCLASSIFIED


class ProcessPoolExecutor:
    """The standard library's process pool, imported when one starts.

    A run that starts no pool (one worker) then never loads
    ``multiprocessing``.  The pool is reached through this module-level
    name, so a caller can subclass or replace it (to time the start, or to
    run the chunks serially); it forwards the three calls
    :func:`_run_chunks` makes.
    """

    def __init__(self, max_workers: int):
        import concurrent.futures

        self._pool = concurrent.futures.ProcessPoolExecutor(max_workers=max_workers)

    def __enter__(self) -> ProcessPoolExecutor:
        self._pool.__enter__()
        return self

    def __exit__(self, *exc) -> bool:
        return self._pool.__exit__(*exc)

    def map(self, fn, *iterables):
        return self._pool.map(fn, *iterables)


def _run_chunks(task, n_starts: int, workers: int) -> list[dict]:
    """Run ``task`` over index ranges and concatenate its per-start rows in
    start order, for :func:`_multistart`; with more than one worker, over
    ``min(4 * workers, n_starts)`` integer splits."""
    if workers <= 1:
        return task((0, n_starts))
    n_chunks = min(4 * workers, n_starts)
    bounds = [n_starts * c // n_chunks for c in range(n_chunks + 1)]
    results: list[dict] = []
    # The pool starts all its processes at the first submit: no more than chunks.
    with ProcessPoolExecutor(max_workers=min(workers, n_chunks)) as ex:
        for part in ex.map(task, zip(bounds, bounds[1:])):
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
    ``refs`` when given.  Each run is dropped once it is summarised, so
    one run's iteration records at most are alive at a time."""
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
            del res
        rows.append(per)
    return rows


def _multistart(
    chunk, algorithms: Sequence[str], n_starts: int, workers: int,
    params: Optional[SolverParams], **chunk_args,
) -> dict[str, list[StartSummary]]:
    """Each algorithm's summaries in start order, from ``chunk`` run over
    ``n_starts`` starts by :func:`_run_chunks` with ``params`` (or the
    defaults, made once for all runs) and ``chunk_args``; both counts are
    checked first.  Runs stopped at ``params.max_iter`` are logged, one
    warning per algorithm naming their starts."""
    n_starts = as_count(n_starts, "n_starts")
    as_count(workers, "workers")
    params = SolverParams() if params is None else params
    rows = _run_chunks(partial(chunk, params=params, **chunk_args), n_starts, workers)
    runs = {a: [per[a] for per in rows] for a in algorithms}
    for algo, summaries in runs.items():
        capped = [s.index for s in summaries if s.termination is Termination.MAX_ITERATIONS]
        if capped:
            log.warning(
                "%s stopped at max_iter=%d in %d of %d runs (start indices %s)",
                algo, params.max_iter, len(capped), n_starts, ", ".join(map(str, capped)),
            )
    return runs


def _table1_chunk(
    bounds: tuple[int, int],
    seed: int,
    params: SolverParams,
    pss_kind: str,
) -> list[dict]:
    return _run_starts(
        bounds, Example2dProblem(), ALGORITHMS, seed, params, pss_kind, CRITICAL_POINTS
    )


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
    each run converged to (within :data:`LABEL_TOL`; anything else lands
    in the "unclassified" bucket).
    """
    runs = _multistart(
        _table1_chunk, ALGORITHMS, n_starts, workers, params, seed=seed, pss_kind=pss_kind
    )
    labels = [label for label, _ in CRITICAL_POINTS] + [UNCLASSIFIED]
    counts = {a: dict.fromkeys(labels, 0) for a in ALGORITHMS}
    for algo, summaries in runs.items():
        for s in summaries:
            counts[algo][s.label] += 1
    return MultiStartReport(runs=runs, basin_counts=counts)


def _pairwise_chunk(
    bounds: tuple[int, int],
    problem: DcProblem,
    seed: int,
    params: SolverParams,
    pss_kind: str,
) -> list[dict]:
    return _run_starts(bounds, problem, PAIRED, seed, params, pss_kind)


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
    runs = _multistart(
        _pairwise_chunk, PAIRED, n_starts, workers, params,
        problem=problem, seed=seed, pss_kind=pss_kind,
    )
    pairs: list[PairRow] = []
    for a, b in zip(runs["DCA"], runs["BDCA+"]):
        ratio = a.wall_time / b.wall_time if a.wall_time and b.wall_time > 0 else None
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
