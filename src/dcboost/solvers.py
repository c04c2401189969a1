"""DC solvers: the plain subproblem iteration, its line-search boosted
variant, and the boosted variant with a direct-search escape step.

All three drivers share one loop.  Each iteration linearizes the concave
part at the current iterate ``x_k`` via a subgradient ``u_k``, solves the
strongly convex subproblem ``min g(x) - <u_k, x>`` for ``y_k``, and forms
the displacement ``d_k = y_k - x_k``:

* the plain driver accepts ``y_k`` as the next iterate;
* the boosted driver additionally backtracks along ``d_k`` from ``y_k``
  (``d_k`` is a descent direction there) with a sufficient-decrease test
  and a self-adaptive trial step;
* the escape-step driver runs the boosted iteration until the
  displacement stalls, then probes a positive spanning set at shrinking
  radii.  A strictly improving probe restarts the main loop from the
  probe point; if no probe improves down to the stopping radius, the
  stall point carries a certificate that no direction in the spanning
  set descends at that resolution, and the run stops there.

Every iteration enforces two oracle contracts at runtime: the subproblem
first-order residual ``||grad_g(y_k) - u_k|| <= 1e-8 * (1 + ||u_k||)``
and the strong-convexity descent guarantee
``phi(y_k) <= phi(x_k) - rho * ||d_k||^2`` (with floating-point slack).
Violations raise :class:`~dcboost.core.ProblemDefinitionError`, as does a
non-finite objective at the start or at any ``y_k``.  A line-search trial
or a direct-search probe whose objective is not finite only fails the
test it was made for: a correct problem can overflow far from the points
a run keeps.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Optional

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
    as_point,
    eval_phi,
    norm,
    phi_and_scale,
    sq_norm,
)
from dcboost.spanning import PositiveSpanningSet, make_d1

__all__ = [
    "SelfAdaptiveState",
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
class SelfAdaptiveState:
    """Memory of the last two line searches for the trial-step rule.

    ``k`` counts line-search invocations; accepted steps never exceed
    their trials.
    """

    lambda_prev: float = 0.0
    lambda_prev2: float = 0.0
    trial_prev: float = 0.0
    trial_prev2: float = 0.0
    k: int = 0

    def advance(self, lambda_k: float, trial_k: float) -> None:
        self.lambda_prev2 = self.lambda_prev
        self.trial_prev2 = self.trial_prev
        self.lambda_prev = lambda_k
        self.trial_prev = trial_k
        self.k += 1


@dataclass
class DfoState:
    """Direct-search radius, persistent across escape invocations in a run."""

    mu: float


@dataclass
class DfoOutcome:
    """Result of one escape invocation: a strictly better point, or a
    certificate that no probed direction improves down to the stopping
    radius (``x_next`` is then ``None``)."""

    x_next: Optional[Point]
    phi_next: Optional[float]
    event: DfoEvent

    @property
    def escaped(self) -> bool:
        return self.x_next is not None


@dataclass
class StationarityReport(Record):
    """Directional derivatives of the objective over a spanning set.

    ``directions`` holds the spanning set of kind ``pss_kind``, one
    direction per row in scan order.  ``is_d_stationary`` holds when the
    smallest derivative is >= -tol; by the positive-spanning property
    that certifies there is no descent direction at all.
    """

    point: Point
    pss_kind: str
    directions: np.ndarray
    dir_derivs: list[float]
    min_deriv: float
    is_d_stationary: bool

    @property
    def directions_checked(self) -> PositiveSpanningSet:
        return PositiveSpanningSet(
            self.directions.shape[1], self.directions, self.pss_kind
        )


def _dc_step(
    problem: DcProblem, x: Point, phi_x: float
) -> tuple[Point, Point, Point, float, float]:
    """One linearize-and-solve step with its contract checks.

    Returns (y, d, u, phi_y, ||d||^2).
    """
    u = problem.subgrad_h(x)
    y = problem.solve_subproblem(u)
    residual = norm(problem.grad_g(y) - u)
    if residual > SUBPROBLEM_RESIDUAL_RTOL * (1.0 + norm(u)):
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
) -> tuple[float, float]:
    """Backtracking with cached phi(y) and ``dd = ||d||^2``; returns
    (lambda, phi at the move).

    A trial whose objective is not finite fails the decrease test: the
    trial is a point the search made, not one the run keeps, so it blames
    no one.  Such trials are counted in one logged warning.
    """
    if lambda_trial <= 0.0:
        return 0.0, phi_y
    if dd == 0.0:
        return 0.0, phi_y
    lam = float(lambda_trial)
    rejected = 0
    for _ in range(_MAX_SHRINKS + 1):
        try:
            phi_trial = eval_phi(problem, y + lam * d)
        except ProblemDefinitionError:  # the objective is not finite there
            phi_trial = math.inf
            rejected += 1
        if phi_trial <= phi_y - alpha * lam * lam * dd:
            break
        lam *= beta1
        if lam < _LAMBDA_FLOOR:
            log.warning(
                "line search shrank below %.0e; falling back to the plain step",
                _LAMBDA_FLOOR,
            )
            lam, phi_trial = 0.0, phi_y
            break
    else:
        log.warning(
            "line search exceeded %d shrink steps; falling back to the plain step",
            _MAX_SHRINKS,
        )
        lam, phi_trial = 0.0, phi_y
    if rejected:
        log.warning("line search rejected %d trials with a non-finite objective", rejected)
    return lam, phi_trial


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

    A zero trial returns 0 immediately (the test is vacuous at lam = 0).
    Steps below 1e-14, or more than 200 shrinks, also return 0 with a
    logged warning; both are floating-point guards, not expected paths.
    """
    phi_y = eval_phi(problem, y_k)
    lam, _ = _armijo(problem, y_k, d_k, phi_y, lambda_trial, alpha, beta1, sq_norm(d_k))
    return lam


def next_trial_step(
    state: SelfAdaptiveState, gamma: float, lambda_bar1: float
) -> float:
    """Self-adaptive trial step for the line search.

    The first invocation tries 0 (plain DC step), the second tries
    ``lambda_bar1``.  Afterwards the previous accepted step is reused,
    doubled by ``gamma`` whenever the last two line searches accepted
    their trials without any backtracking (checked by exact float
    equality, which is precisely "the shrink loop never ran").
    """
    if state.k == 0:
        return 0.0
    if state.k == 1:
        return float(lambda_bar1)
    if (
        state.lambda_prev2 == state.trial_prev2
        and state.lambda_prev == state.trial_prev
        and state.trial_prev2 > 0.0
        and state.trial_prev > 0.0
    ):
        return gamma * state.lambda_prev
    return state.lambda_prev


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

    On entry the persistent radius grows once (``mu <- eta*mu + tau``),
    then the spanning set is scanned in order at that radius.  The first
    direction with ``phi(y + mu*v) < phi(y)`` (strictly, beyond a small
    floating-point guard) wins: the probe point is returned and the
    current radius is kept in ``state``.  If a full scan fails and the
    radius still exceeds ``eps2`` it shrinks by ``beta2`` and the scan
    repeats; otherwise the point is certified and ``x_next`` is ``None``.

    A probe whose objective is not finite does not improve, and the scan
    moves on; such probes are counted in one logged warning.

    Intended to be called only when the DC displacement has stalled
    (``||d_k|| <= eps1``).
    """
    phi_y, scale_y = phi_and_scale(problem, y_k)
    mu = params.eta * state.mu + params.tau
    mu_tried: list[float] = []
    dirs = pss.directions
    rejected = 0
    try:
        while True:
            mu_tried.append(mu)
            # Row i has the bits of y_k + mu * dirs[i].
            trials = y_k + mu * dirs
            for i, trial in enumerate(trials):
                try:
                    phi_trial, scale_trial = phi_and_scale(problem, trial)
                except ProblemDefinitionError:  # the objective is not finite there
                    rejected += 1
                    continue
                guard = _DFO_ACCEPT_GUARD * (1.0 + scale_y + scale_trial)
                if phi_trial < phi_y - guard:
                    state.mu = mu
                    return DfoOutcome(trial, phi_trial, DfoEvent(mu_tried, mu, i))
            if mu > params.eps2:
                mu *= params.beta2
            else:
                state.mu = mu
                return DfoOutcome(None, None, DfoEvent(mu_tried, None, None))
    finally:
        if rejected:
            log.warning("direct search rejected %d probes with a non-finite objective", rejected)


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
    phi_x = eval_phi(problem, x)
    state = SelfAdaptiveState()
    dfo_state = DfoState(mu=params.mu_bar)
    records: list[IterationRecord] = []
    dfo_invocations = 0
    termination = Termination.MAX_ITERATIONS
    t0 = time.perf_counter()
    for k in range(params.max_iter):
        y, d, u, phi_y, dd = _dc_step(problem, x, phi_x)
        # math.sqrt(dd) has the bits of norm(d).
        if math.sqrt(dd) > params.eps1:
            if boost:
                trial = next_trial_step(state, params.gamma, params.lambda_bar1)
                lam, phi_next = _armijo(
                    problem, y, d, phi_y, trial, params.alpha, params.beta1, dd
                )
                state.advance(lam, trial)
            else:
                trial = lam = 0.0
                phi_next = phi_y
            records.append(
                IterationRecord(k, x, y, d, phi_x, phi_y, lam, trial)
            )
            x = y if lam == 0.0 else y + lam * d
            phi_x = phi_next
            continue
        if pss is None:
            records.append(IterationRecord(k, x, y, d, phi_x, phi_y, 0.0, 0.0))
            x, phi_x = y, phi_y
            termination = Termination.CRITICAL_POINT
            break
        dfo_invocations += 1
        outcome = dfo_escape(problem, y, pss, dfo_state, params)
        records.append(
            IterationRecord(k, x, y, d, phi_x, phi_y, 0.0, 0.0, outcome.event)
        )
        if not outcome.escaped:
            x, phi_x = y, phi_y
            termination = Termination.D_STATIONARY_CERTIFIED
            break
        x = outcome.x_next
        phi_x = outcome.phi_next
    wall = time.perf_counter() - t0
    return RunResult(x, phi_x, records, termination, dfo_invocations, wall)


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
    Nonnegativity of all of them (within ``tol``) certifies there is no
    descent direction anywhere.
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
    min_deriv = min(derivs)
    return StationarityReport(
        x, pss.kind, pss.directions, derivs, min_deriv, min_deriv >= -tol
    )
