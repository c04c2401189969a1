"""DC solvers: the plain subproblem iteration, its line-search boosted
variant, and the boosted variant with a direct-search escape step.

All three drivers share one loop.  Each iteration linearizes the concave
part at the current iterate ``x_k`` via a subgradient ``u_k``, solves the
strongly convex subproblem ``min g(x) - <u_k, x>`` for ``y_k``, and forms
the displacement ``d_k = y_k - x_k``.  Exactly one of three things
follows, and the iteration leaves one record:

* a move, while ``||d_k|| > eps1``: the plain driver accepts ``y_k``; the
  boosted drivers backtrack along ``d_k`` from ``y_k`` (a descent
  direction there) with a sufficient-decrease test and a self-adaptive
  trial step;
* a stop at ``y_k`` once ``||d_k|| <= eps1``;
* in place of that stop, the escape-step driver probes a positive
  spanning set at shrinking radii.  A strictly improving probe restarts
  the main loop from the probe point; if no probe improves down to the
  stopping radius, the stall point carries a certificate that no
  direction in the spanning set descends at that resolution, and the run
  stops there.

A line search that finds no decrease (its step falls below 1e-14, or 200
shrinks run out) takes the plain step with one logged warning.  The trial
rule reuses the last accepted step, so every later trial is 0 and the run
continues as the plain iteration.

Every iteration enforces two oracle contracts at runtime: the subproblem
first-order residual ``||grad_g(y_k) - u_k|| <= 1e-8 * (1 + ||u_k||)``
and the strong-convexity descent guarantee
``phi(y_k) <= phi(x_k) - rho * ||d_k||^2`` (with floating-point slack).
Violations raise :class:`~dcboost.core.ProblemDefinitionError`, as does a
non-finite objective at any ``y_k`` or a NaN one at the start.  A start
where g or h overflows is the caller's input and raises ``ValueError``.
A line-search trial or a direct-search probe whose objective is not
finite only fails the test it was made for: a correct problem can
overflow far from the points a run keeps.
"""

from __future__ import annotations

import logging
import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from dcboost.core import (
    DESCENT_SLACK,
    SUBPROBLEM_RESIDUAL_RTOL,
    DcProblem,
    DfoEvent,
    IterationRecord,
    Point,
    ProblemDefinitionError,
    Record,
    RunResult,
    SolverParams,
    Termination,
    _not_finite,
    as_point,
    eval_phi,
    norm,
    sq_norm,
)
from dcboost.spanning import PositiveSpanningSet, make_d1

__all__ = [
    "DfoState",
    "DfoOutcome",
    "StationarityReport",
    "dca_step",
    "armijo_backtrack",
    "next_trial_step",
    "dfo_escape",
    "run_dca",
    "run_bdca",
    "run_bdca_plus",
    "check_d_stationarity",
]

log = logging.getLogger(__name__)

_LAMBDA_FLOOR = 1e-14
_MAX_SHRINKS = 200


@dataclass
class DfoState:
    """The radius a run's last direct search ended at (``mu_bar`` before
    the first); the next starts at ``mu/beta2 + eps2``."""

    mu: float


@dataclass
class DfoOutcome:
    """Result of one escape invocation: a strictly better point, or a
    certificate that no probed direction improves down to the stopping
    radius (``x_next`` is then ``None``)."""

    x_next: Optional[Point]
    phi_next: Optional[float]
    event: DfoEvent


@dataclass
class StationarityReport(Record):
    """Directional derivatives of the objective over a spanning set.

    ``directions`` holds the spanning set of kind ``pss_kind``, one
    direction per row in scan order.  ``is_d_stationary`` holds when the
    smallest derivative is >= -tol.  At ``tol = 0`` the positive-spanning
    property makes that a certificate that no direction at all descends.
    At ``tol > 0`` it bounds the derivative along any unit direction
    below by ``-tol * C(D)``, where ``C(D)`` depends on the set:
    ``C(D1) = sqrt(m)`` in dimension m.  A NaN derivative makes
    ``min_deriv`` NaN and the verdict False.
    """

    point: Point
    pss_kind: str
    directions: np.ndarray
    dir_derivs: list[float]
    min_deriv: float
    is_d_stationary: bool


def _dc_step(
    problem: DcProblem, x: Point, phi_x: float
) -> tuple[Point, Point, Point, float, float]:
    """One linearize-and-solve step with its contract checks.

    Returns (y, d, u, phi_y, ||d||^2).
    """
    u = problem.subgrad_h(x)
    y = problem.solve_subproblem(u)
    residual = norm(problem.grad_g(y) - u)
    if not residual <= SUBPROBLEM_RESIDUAL_RTOL * (1.0 + norm(u)):  # NaN too
        raise ProblemDefinitionError(
            f"subproblem solution has first-order residual {residual:.3e} "
            f"at u={np.asarray(u)!r}"
        )
    d = y - x
    phi_y = eval_phi(problem, y)
    dd = sq_norm(d)
    bound = phi_x - problem.rho * dd
    if phi_y > bound + DESCENT_SLACK * (1.0 + abs(phi_x)):
        raise ProblemDefinitionError(
            f"descent guarantee violated: phi(y)={phi_y!r} > "
            f"phi(x) - rho*||d||^2 = {bound!r}"
        )
    return y, d, u, phi_y, dd


def dca_step(problem: DcProblem, x_k: Point) -> tuple[Point, Point, Point]:
    """Single DC step from ``x_k``: returns ``(y_k, d_k, u_k)`` where
    ``u_k = subgrad_h(x_k)``, ``y_k`` solves the linearized subproblem and
    ``d_k = y_k - x_k``."""
    x_k = as_point(x_k, problem.dim)
    phi_x = eval_phi(problem, x_k)
    y, d, u, _, _ = _dc_step(problem, x_k, phi_x)
    return y, d, u


def _armijo(
    problem: DcProblem,
    y: Point,
    d: Point,
    phi_y: float,
    lambda_trial: float,
    alpha: float,
    beta1: float,
    dd: float,
) -> tuple[float, float, Point]:
    """Backtracking with cached phi(y) and ``dd = ||d||^2``; returns
    (lambda, phi at the move, the move ``y + lambda*d``), which is ``y``
    itself when lambda is 0.

    A zero trial or a zero direction evaluates nothing (the test is
    vacuous there).  A trial whose objective is not finite fails the
    decrease test: the trial is a point the search made, not one the run
    keeps, so it blames no one.  Such trials are counted in one logged
    warning.
    """
    lam = 0.0 if lambda_trial <= 0.0 or dd == 0.0 else float(lambda_trial)
    x_lam, phi_lam = y, phi_y
    shrinks = rejected = 0
    while lam != 0.0:
        x_lam = y + lam * d
        try:
            phi_lam = eval_phi(problem, x_lam)
        except ProblemDefinitionError:  # the objective is not finite there
            phi_lam = math.inf
            rejected += 1
        if phi_lam <= phi_y - alpha * lam * lam * dd:
            break
        lam *= beta1
        shrinks += 1
        if lam < _LAMBDA_FLOOR or shrinks > _MAX_SHRINKS:
            # next_trial_step reuses the last accepted step, 0 from here on.
            log.warning(
                "line search found no decrease before its step fell below %.0e "
                "or %d shrinks ran out; later trial steps stay 0, so the run "
                "continues with plain DC steps",
                _LAMBDA_FLOOR,
                _MAX_SHRINKS,
            )
            lam, x_lam, phi_lam = 0.0, y, phi_y
    if rejected:
        log.warning("line search rejected %d trials with a non-finite objective", rejected)
    return lam, phi_lam, x_lam


def armijo_backtrack(
    problem: DcProblem,
    y_k: Point,
    d_k: Point,
    lambda_trial: float,
    alpha: float,
    beta1: float,
) -> float:
    """First step in ``{trial, beta1*trial, beta1^2*trial, ...}`` satisfying
    the sufficient-decrease test
    ``phi(y + lam*d) <= phi(y) - alpha * lam^2 * ||d||^2``.

    A zero trial or a zero direction returns 0 without evaluating a trial
    (the test is vacuous there).  A step below 1e-14, or more than 200
    shrinks, also returns 0, with one logged warning naming both limits;
    both are floating-point guards, not expected paths.
    """
    phi_y = eval_phi(problem, y_k)
    return _armijo(problem, y_k, d_k, phi_y, lambda_trial, alpha, beta1, sq_norm(d_k))[0]


def next_trial_step(
    searches: Sequence[tuple[float, float]], gamma: float, lambda_bar1: float
) -> float:
    """Self-adaptive trial step for the next line search.

    ``searches`` holds the run's last two line searches as (accepted step,
    trial) pairs, oldest first.  Before any search the trial is 0 (plain DC
    step), after one it is ``lambda_bar1``.  Afterwards the last accepted
    step is reused, grown by ``gamma`` whenever both searches accepted a
    positive trial without backtracking (checked by exact float equality,
    which is precisely "the shrink loop never ran").
    """
    if not searches:
        return 0.0
    if len(searches) == 1:
        return float(lambda_bar1)
    (lam2, trial2), (lam1, trial1) = searches[-2], searches[-1]
    if lam2 == trial2 and lam1 == trial1 and trial2 > 0.0 and trial1 > 0.0:
        return gamma * lam1
    return lam1


# Relative accept guard for the direct-search probe, in units of the
# component magnitudes |g| + |h|.  The objective is formed as g - h, so
# its rounding noise scales with the components, not with phi itself;
# probes along numerically flat directions (e.g. a centroid no point is
# assigned to) would otherwise be "accepted" on that noise, and the
# growing radius then feeds back into ever larger iterates.  2^-44 is
# roughly 256 ulps: far above accumulated summation noise, far below any
# genuine improvement at the stopping radius.
_DFO_ACCEPT_GUARD = 2.0**-44


def dfo_escape(
    problem: DcProblem,
    y_k: Point,
    pss: PositiveSpanningSet,
    state: DfoState,
    params: SolverParams,
) -> DfoOutcome:
    """Direct-search probe around a stalled point.

    On entry the radius in ``state`` grows once, to ``mu/beta2 + eps2``
    (the last shrink undone, plus the stopping radius), then the spanning
    set is scanned in order at that radius.  The first direction with
    ``phi(y + mu*v) < phi(y)`` (strictly, beyond a small floating-point
    guard) wins: the probe point is returned and the current radius is
    kept in ``state``.  If a full scan fails and the radius still exceeds
    ``eps2`` it shrinks by ``beta2`` and the scan repeats; otherwise the
    point is certified and ``x_next`` is ``None``.

    A probe whose objective is not finite does not improve, and the scan
    moves on; such probes are counted in one logged warning.

    Intended to be called only when the DC displacement has stalled
    (``||d_k|| <= eps1``).
    """
    g, h = problem.eval_g(y_k), problem.eval_h(y_k)
    phi_y = g - h
    if not math.isfinite(phi_y):
        raise _not_finite(y_k, phi_y)
    # The guard's 1 + (|g| + |h| at y_k) + (|g| + |h| at the probe) adds
    # left to right, so its first sum is the same at every probe.
    guard_y = 1.0 + (abs(g) + abs(h))
    mu = (1.0 / params.beta2) * state.mu + params.eps2
    mu_tried: list[float] = []
    x_next = phi_next = index = None
    rejected = 0
    while True:
        mu_tried.append(mu)
        # Row i has the bits of y_k + mu * directions[i].
        for i, trial in enumerate(y_k + mu * pss.directions):
            g, h = problem.eval_g(trial), problem.eval_h(trial)
            phi_trial = g - h
            if not math.isfinite(phi_trial):
                rejected += 1
            elif phi_trial < phi_y - _DFO_ACCEPT_GUARD * (guard_y + (abs(g) + abs(h))):
                # A copy, so the run's records keep one row, not the radius's probes.
                x_next, phi_next, index = trial.copy(), phi_trial, i
                break
        if index is not None or mu <= params.eps2:
            break
        mu *= params.beta2
    state.mu = mu
    if rejected:
        log.warning("direct search rejected %d probes with a non-finite objective", rejected)
    mu_accepted = None if index is None else mu
    return DfoOutcome(x_next, phi_next, DfoEvent(mu_tried, mu_accepted, index))


def _start_phi(problem: DcProblem, x: Point) -> float:
    """The objective at the start.  Where it is not finite and neither
    oracle is NaN, g or h overflowed at the caller's point: a
    ``ValueError``.  A NaN is the problem's fault."""
    try:
        return eval_phi(problem, x)
    except ProblemDefinitionError:
        if math.isnan(problem.eval_g(x)) or math.isnan(problem.eval_h(x)):
            raise
        raise ValueError(f"the objective overflows at the start x0={x!r}") from None


def _drive(
    problem: DcProblem,
    x0: Point,
    params: Optional[SolverParams],
    *,
    boost: bool,
    pss: Optional[PositiveSpanningSet] = None,
) -> RunResult:
    """Shared driver loop; see the module docstring for the three modes."""
    if params is None:
        params = SolverParams()
    x = as_point(np.array(x0, dtype=float), problem.dim)
    searches: deque[tuple[float, float]] = deque(maxlen=2)
    dfo_state = DfoState(mu=params.mu_bar)
    records: list[IterationRecord] = []
    termination: Optional[Termination] = None
    # A trial or probe far from the points a run keeps may overflow; it
    # fails its test only, and numpy warns of none of its steps.
    with np.errstate(over="ignore", invalid="ignore"):
        phi_x = _start_phi(problem, x)
        t0 = time.perf_counter()
        for k in range(params.max_iter):
            y, d, u, phi_y, dd = _dc_step(problem, x, phi_x)
            lam = trial = 0.0
            event = None
            x_next, phi_next = y, phi_y
            # math.sqrt(dd) has the bits of norm(d).
            if math.sqrt(dd) > params.eps1:
                if boost:
                    trial = next_trial_step(searches, params.gamma, params.lambda_bar1)
                    lam, phi_next, x_next = _armijo(
                        problem, y, d, phi_y, trial, params.alpha, params.beta1, dd
                    )
                    searches.append((lam, trial))
            elif pss is None:
                termination = Termination.CRITICAL_POINT
            else:
                outcome = dfo_escape(problem, y, pss, dfo_state, params)
                event = outcome.event
                if outcome.x_next is not None:
                    x_next, phi_next = outcome.x_next, outcome.phi_next
                else:
                    termination = Termination.D_STATIONARY_CERTIFIED
            records.append(IterationRecord(k, x, y, d, phi_x, phi_y, lam, trial, event))
            x, phi_x = x_next, phi_next
            if termination is not None:
                break
        else:
            termination = Termination.MAX_ITERATIONS
    wall = time.perf_counter() - t0
    return RunResult(x, phi_x, records, termination, wall)


def _require_same_dim(problem: DcProblem, pss: PositiveSpanningSet) -> None:
    if pss.dim != problem.dim:
        raise ValueError(
            f"spanning set dimension {pss.dim} != problem dimension {problem.dim}"
        )


def run_dca(
    problem: DcProblem, x0: Point, params: Optional[SolverParams] = None
) -> RunResult:
    """Plain DC iteration: accept each subproblem solution as the next
    iterate; stop once the displacement satisfies ``||d_k|| <= eps1`` (or
    at ``max_iter``)."""
    return _drive(problem, x0, params, boost=False)


def run_bdca(
    problem: DcProblem, x0: Point, params: Optional[SolverParams] = None
) -> RunResult:
    """Boosted DC iteration: after each subproblem solve, backtrack along
    the displacement from ``y_k`` and move to ``y_k + lambda_k * d_k``.
    Stops at the same criticality test as :func:`run_dca`.  Forcing every
    trial step to zero reproduces :func:`run_dca` exactly."""
    return _drive(problem, x0, params, boost=True)


def run_bdca_plus(
    problem: DcProblem,
    x0: Point,
    pss: Optional[PositiveSpanningSet] = None,
    params: Optional[SolverParams] = None,
) -> RunResult:
    """Boosted iteration plus the direct-search escape step.

    When the displacement stalls, the spanning set (default: the signed
    coordinate directions) is probed.  An improving probe re-enters the
    main loop; exhaustion of all radii terminates the run with
    ``Termination.D_STATIONARY_CERTIFIED`` at the stall point.
    """
    if pss is None:
        pss = make_d1(problem.dim)
    _require_same_dim(problem, pss)
    return _drive(problem, x0, params, boost=True, pss=pss)


def check_d_stationarity(
    problem: DcProblem,
    x: Point,
    pss: PositiveSpanningSet,
    tol: float = 1e-6,
) -> StationarityReport:
    """Directional-derivative test over a positive spanning set.

    For each direction v the one-sided derivative of the objective is
    ``<grad_g(x), v> - h'(x; v)``, with ``h'`` from the problem's exact
    ``dir_deriv_h`` oracle (a problem without one raises ValueError).
    The verdict is that every derivative is >= -tol.  At ``tol = 0`` that
    certifies there is no descent direction anywhere.  At ``tol > 0`` the
    derivative along any unit direction is only bounded below by
    ``-tol * C(D)``: ``C(D)`` is the largest, over unit d, of the smallest
    sum of nonnegative coefficients that writes d from the set, and
    ``C(D1) = sqrt(m)`` in dimension m.
    """
    if not math.isfinite(tol):
        raise ValueError("tol must be finite")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    _require_same_dim(problem, pss)
    h_prime = problem.dir_deriv_h
    if h_prime is None:
        raise ValueError(
            f"{type(problem).__name__} has no dir_deriv_h oracle, which the "
            "d-stationarity test needs"
        )
    x = as_point(x, problem.dim)
    grad = problem.grad_g(x)
    derivs = [float(np.dot(grad, v)) - float(h_prime(x, v)) for v in pss.directions]
    # min() skips a NaN unless it comes first; a NaN derivative certifies nothing.
    min_deriv = math.nan if any(map(math.isnan, derivs)) else min(derivs)
    return StationarityReport(
        x, pss.kind, pss.directions, derivs, min_deriv, min_deriv >= -tol
    )
