import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest

from dcboost import (
    Example2dProblem,
    PositiveSpanningSet,
    ProblemDefinitionError,
    SolverParams,
    eval_phi,
    make_d1,
    make_d2,
)
from dcboost import solvers
from dcboost.core import Termination
from dcboost.solvers import (
    DfoState,
    armijo_backtrack,
    check_d_stationarity,
    dca_step,
    dfo_escape,
    next_trial_step,
    run_bdca,
    run_bdca_plus,
    run_dca,
)

D1 = make_d1(2)


# ---------------------------------------------------------------- dca_step


def test_dca_step_from_axis_point(example2d):
    y, d, u = dca_step(example2d, np.array([0.0, 1.0]))
    assert np.array_equal(u, [1.0, 2.0])
    assert np.allclose(y, [0.0, 1.0 / 3.0], atol=1e-15)
    assert np.allclose(d, [0.0, -2.0 / 3.0], atol=1e-15)


def test_dca_step_fixed_point(example2d):
    y, d, u = dca_step(example2d, np.array([-1.0, -1.0]))
    assert np.array_equal(u, [-2.0, -2.0])
    assert np.array_equal(y, [-1.0, -1.0])
    assert np.array_equal(d, [0.0, 0.0])


def test_dca_step_mssc_matches_closed_form(mssc3, rng):
    x = mssc3.sample_start(rng)
    y, d, u = dca_step(mssc3, x)
    expect = (u.reshape(3, -1) + 2.0 * mssc3.data.mean) / (2.0 + mssc3.rho)
    assert np.allclose(y, expect.ravel(), atol=1e-14)
    assert np.array_equal(d, y - x)


def test_dca_step_rejects_bad_subproblem(example2d):
    class BadSolve(Example2dProblem):
        def solve_subproblem(self, u):
            return np.asarray(u) / 3.0  # forgets the offset

    with pytest.raises(ProblemDefinitionError, match="residual"):
        dca_step(BadSolve(), np.array([0.4, 0.7]))


def test_dca_step_rejects_inflated_rho(example2d):
    class LiedRho(Example2dProblem):
        rho = 50.0  # not a valid common modulus; descent check must fire

    with pytest.raises(ProblemDefinitionError, match="descent"):
        dca_step(LiedRho(), np.array([1.2, 0.3]))


# ---------------------------------------------------------------- armijo


def test_armijo_zero_trial(example2d):
    lam = armijo_backtrack(
        example2d, np.array([0.0, 1.0 / 3.0]), np.array([0.0, -2.0 / 3.0]), 0.0, 1e-4, 0.25
    )
    assert lam == 0.0


def test_armijo_matches_scan_oracle(example2d):
    y = np.array([0.0, 1.0 / 3.0])
    d = np.array([0.0, -2.0 / 3.0])
    alpha, beta1, trial = 1e-4, 0.25, 10.0
    lam = armijo_backtrack(example2d, y, d, trial, alpha, beta1)

    # Oracle: scan the same ladder evaluating the objective directly.
    phi_y = eval_phi(example2d, y)
    dd = float(np.dot(d, d))
    expected = trial
    while eval_phi(example2d, y + expected * d) > phi_y - alpha * expected**2 * dd:
        expected *= beta1
    assert lam == expected

    # Accepted step satisfies the inequality; one rung higher violates it.
    assert eval_phi(example2d, y + lam * d) <= phi_y - alpha * lam**2 * dd
    if lam != trial:
        above = lam / beta1
        assert eval_phi(example2d, y + above * d) > phi_y - alpha * above**2 * dd


def test_armijo_gives_up_on_ascent_direction(example2d, caplog):
    # Uphill direction: every rung fails until the floor guard trips.
    y = np.array([0.5, 0.5])
    d = np.array([1.0, 1.0])
    with caplog.at_level("WARNING"):
        lam = armijo_backtrack(example2d, y, d, 10.0, 0.9, 0.25)
    assert lam == 0.0
    assert "line search" in caplog.text


FALLBACK = (
    "line search found no decrease before its step fell below 1e-14 or 200 "
    "shrinks ran out; later trial steps stay 0, so the run continues with "
    "plain DC steps"
)


def _line_search_evals():
    """The benchmark's model of a line search's objective evaluations,
    ``line_search_evals(trial, lam, beta1)``, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "launch.py"
    spec = importlib.util.spec_from_file_location("_bench_launch", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.line_search_evals


class _CountingExample2d(Example2dProblem):
    """Example2d counting objective evaluations (one ``eval_g`` each)."""

    def __init__(self):
        self.evals = 0

    def eval_g(self, x):
        self.evals += 1
        return super().eval_g(x)


@pytest.mark.parametrize(
    "y, d, trial, beta1, lam",
    [
        ((0.0, 1.0 / 3.0), (0.0, -2.0 / 3.0), 1.0, 0.25, 1.0),  # first trial accepted
        ((0.0, 1.0 / 3.0), (0.0, -2.0 / 3.0), 100.0, 0.25, 1.5625),  # 3 backtracks
        ((0.5, 0.5), (1.0, 1.0), 10.0, 0.25, 0.0),  # the 1e-14 floor, 25 evaluations
        ((0.5, 0.5), (1.0, 1.0), 10.0, 0.9, 0.0),  # the 200-shrink cap, 201 evaluations
    ],
    ids=["accept-first", "backtrack", "floor", "cap"],
)
def test_line_search_work_matches_the_benchmark_model(y, d, trial, beta1, lam, caplog):
    problem = _CountingExample2d()
    with caplog.at_level("WARNING"):
        got = armijo_backtrack(problem, np.array(y), np.array(d), trial, 1e-4, beta1)
    assert got == lam
    evals = problem.evals - 1  # armijo_backtrack's own phi(y)
    assert evals == _line_search_evals()(trial, got, beta1)
    assert evals <= 201
    assert caplog.messages == ([] if lam else [FALLBACK])


@pytest.mark.parametrize("trial, d", [(0.0, (1.0, 1.0)), (10.0, (0.0, 0.0))])
def test_line_search_without_a_step_evaluates_nothing(trial, d, caplog):
    problem = _CountingExample2d()
    with caplog.at_level("WARNING"):
        got = armijo_backtrack(problem, np.array([0.5, 0.5]), np.array(d), trial, 1e-4, 0.25)
    assert got == 0.0
    assert problem.evals == 1  # armijo_backtrack's own phi(y)
    assert caplog.messages == []


def test_a_line_search_fallback_turns_bdca_into_dca_and_says_so(example2d, caplog):
    # Every trial of the second line search, 1e308 down by 1/4, overflows.
    with caplog.at_level("WARNING"):
        res = run_bdca(example2d, np.array([0.3, 0.7]), SolverParams(lambda_bar1=1e308))
    assert caplog.messages == [
        FALLBACK,
        "line search rejected 201 trials with a non-finite objective",
    ]
    assert [r.lambda_trial for r in res.iterations[:2]] == [0.0, 1e308]
    assert all(r.lambda_trial == 0.0 for r in res.iterations[2:])
    assert res.n_iterations == 18
    assert np.allclose(res.final_point, [0.0, 0.0], rtol=0.0, atol=2e-9)
    assert np.array_equal(res.final_point, run_dca(example2d, res.iterations[1].x_k).final_point)


# ---------------------------------------------------------------- trial rule


@pytest.mark.parametrize(
    "searches, trial",
    [
        ([], 0.0),
        ([(0.0, 0.0)], 10.0),
        ([(10.0, 10.0), (20.0, 20.0)], 40.0),
        ([(10.0, 10.0), (0.625, 10.0)], 0.625),
        ([(2.5, 10.0), (10.0, 10.0)], 10.0),
        ([(0.0, 0.0), (10.0, 10.0)], 10.0),
    ],
    ids=[
        "starts-at-zero",
        "second-uses-lambda-bar1",
        "grows-after-two-clean-accepts",
        "copies-after-backtracking",
        "copies-after-older-backtracking",
        "requires-positive-history",
    ],
)
def test_trial_rule(searches, trial):
    # (accepted step, trial) pairs, oldest first; gamma 2, lambda_bar1 10.
    assert next_trial_step(searches, 2.0, 10.0) == trial


def test_bdca_reads_the_last_two_line_searches(example2d, monkeypatch):
    seen = []

    def spy(searches, gamma, lambda_bar1):
        seen.append(list(searches))
        return next_trial_step(searches, gamma, lambda_bar1)

    monkeypatch.setattr(solvers, "next_trial_step", spy)
    res = run_bdca(example2d, np.array([0.3, 0.7]))
    done = [(r.lambda_k, r.lambda_trial) for r in res.iterations]
    assert len(seen) == res.n_iterations - 1  # no line search at the final stop
    assert len(seen) > 3
    assert seen == [done[max(0, i - 2):i] for i in range(len(seen))]


# ---------------------------------------------------------------- dfo escape


def test_dfo_entry_radius_growth(example2d, params):
    state = DfoState(mu=10.0)
    out = dfo_escape(example2d, np.array([-1.0, -1.0]), D1, state, params)
    assert out.event.mu_tried[0] == 2.0 * 10.0 + 1e-4  # 20.0001


def test_dfo_escapes_left_from_saddle_axis_point(example2d, params):
    # At (0, -1) moving left improves for radii below 2; enter just below 1.
    state = DfoState(mu=(0.5 - params.eps2) * params.beta2)
    out = dfo_escape(example2d, np.array([0.0, -1.0]), D1, state, params)
    assert out.x_next is not None
    # The scan forms phi as eval_phi does: one objective, bit for bit.
    assert out.phi_next.hex() == eval_phi(example2d, out.x_next).hex()
    assert out.event.direction_index == 1  # -e1 comes second in the scan
    mu = out.event.mu_accepted
    assert mu == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(out.x_next, [-mu, -1.0])
    # Its own array, not a row of the radius's probes: the run keeps it.
    assert out.x_next.base is None and out.x_next.shape == (2,)
    assert state.mu == mu  # accepted radius is kept for the next entry
    # Hand expansion: phi(-mu, -1) - phi(0, -1) = mu^2 - 2 mu < 0.
    assert out.phi_next == pytest.approx(-1.0 + mu**2 - 2.0 * mu, abs=1e-12)


def test_dfo_certifies_global_minimum(example2d, params):
    state = DfoState(mu=10.0)
    out = dfo_escape(example2d, np.array([-1.0, -1.0]), D1, state, params)
    assert out.x_next is None
    assert out.event.mu_accepted is None and out.event.direction_index is None
    tried = out.event.mu_tried
    assert all(b < a for a, b in zip(tried, tried[1:]))
    assert tried[-1] <= params.eps2 / params.beta2  # shrank to the stopping radius
    assert tried[-1] == state.mu


# ---------------------------------------------------------------- drivers


def test_run_dca_follows_closed_form_map(example2d):
    # Per coordinate the iteration is t -> (sign(t) + t - 1) / 3.
    res = run_dca(example2d, np.array([0.5, 0.5]))
    x = np.array([0.5, 0.5])
    for rec in res.iterations[:6]:
        expect = (np.sign(x) + x - 1.0) / 3.0
        assert np.allclose(rec.y_k, expect, atol=1e-15)
        x = expect
    assert np.linalg.norm(res.final_point) < 1e-4
    assert res.termination is Termination.CRITICAL_POINT


def test_run_dca_axis_start_reaches_origin(example2d):
    res = run_dca(example2d, np.array([0.0, 1.0]))
    assert np.linalg.norm(res.final_point - [0.0, 0.0]) < 1e-4


def test_run_dca_fixed_point_is_one_iteration(example2d):
    res = run_dca(example2d, np.array([-1.0, -1.0]))
    assert res.n_iterations == 1
    assert np.array_equal(res.final_point, [-1.0, -1.0])


def test_run_dca_records_pure_steps(example2d):
    res = run_dca(example2d, np.array([0.3, 0.9]))
    for rec in res.iterations:
        assert rec.lambda_k == 0.0 and rec.lambda_trial == 0.0
        assert np.array_equal(rec.d_k, rec.y_k - rec.x_k)


def test_bdca_with_zero_trials_reproduces_dca_bitwise(example2d, monkeypatch):
    x0 = np.array([0.37, -1.21])
    plain = run_dca(example2d, x0)
    monkeypatch.setattr(solvers, "next_trial_step", lambda searches, g, l1: 0.0)
    forced = run_bdca(example2d, x0)
    assert plain.n_iterations == forced.n_iterations
    assert np.array_equal(plain.final_point, forced.final_point)
    for a, b in zip(plain.iterations, forced.iterations):
        assert np.array_equal(a.x_k, b.x_k)
        assert np.array_equal(a.y_k, b.y_k)
        assert a.phi_x == b.phi_x and a.phi_y == b.phi_y


def test_bdca_escapes_origin_but_not_saddle(example2d):
    # The boosted run jumps the axis iterate past the origin and stalls at
    # the other non-minimizing critical point instead.
    res = run_bdca(example2d, np.array([0.0, 1.0]))
    assert np.linalg.norm(res.final_point - [0.0, -1.0]) < 1e-4
    assert res.termination is Termination.CRITICAL_POINT
    assert res.dfo_invocations == 0


def test_bdca_plus_reaches_global_minimum_certified(example2d):
    res = run_bdca_plus(example2d, np.array([0.0, 1.0]))
    assert np.linalg.norm(res.final_point - [-1.0, -1.0]) < 1e-4
    assert res.termination is Termination.D_STATIONARY_CERTIFIED
    assert res.dfo_invocations >= 1


def test_bdca_plus_rejects_dim_mismatch(example2d):
    with pytest.raises(ValueError):
        run_bdca_plus(example2d, np.zeros(2), make_d1(3))


# ------------------------------------------------ points that overflow


def _rejected(caplog, what: str) -> int:
    """Trials or probes the solver logged as rejected for a non-finite objective."""
    pattern = rf"^{what} rejected (\d+) \w+ with a non-finite objective$"
    return sum(
        int(m.group(1))
        for r in caplog.records
        if (m := re.match(pattern, r.getMessage()))
    )


def test_a_scan_from_a_point_whose_objective_overflows_blames_the_problem(
    example2d, params
):
    # The run never scans from such a point: every y_k passed eval_phi first.
    with pytest.raises(ProblemDefinitionError, match=r"not finite at x=array\(\[1\.e\+200"):
        dfo_escape(example2d, np.array([1e200, 0.0]), D1, DfoState(mu=1.0), params)


def test_a_probe_that_overflows_is_rejected_not_blamed(example2d, caplog):
    # The first probe, 2.00001e155 along the first direction, overflows
    # the objective of a correct problem.
    pss = PositiveSpanningSet(np.array([[1e154, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
    with caplog.at_level("WARNING"):
        res = run_bdca_plus(example2d, np.array([0.3, 0.7]), pss)
    assert res.termination is Termination.D_STATIONARY_CERTIFIED
    assert np.allclose(res.final_point, [-1.0, -1.0], atol=1e-9)
    assert res.n_iterations == 11
    assert _rejected(caplog, "direct search") == 5


class _NanAt(Example2dProblem):
    """Example2d whose g is NaN where ``bad(x)`` holds."""

    def __init__(self, bad):
        self.bad = bad

    def eval_g(self, x):
        return float("nan") if self.bad(x) else super().eval_g(x)


X0 = np.array([0.3, 0.7])


@pytest.mark.parametrize("runner", [run_dca, run_bdca, run_bdca_plus])
def test_a_nan_oracle_is_still_blamed_at_the_start(runner):
    with pytest.raises(ProblemDefinitionError, match=r"not finite at x=array\(\[0\.3, 0\.7\]\)"):
        runner(_NanAt(lambda x: True), X0)


class _Overflowing(Example2dProblem):
    """Example2d whose g and h are infinite everywhere, so phi is NaN."""

    def eval_g(self, x):
        return math.inf

    def eval_h(self, x):
        return math.inf


@pytest.mark.parametrize("runner", [run_dca, run_bdca, run_bdca_plus])
def test_an_overflowing_start_is_the_callers_input(runner):
    with pytest.raises(ValueError, match=r"overflows at the start x0=array\(\[0\.3, 0\.7\]\)"):
        runner(_Overflowing(), X0)


@pytest.mark.parametrize("runner", [run_dca, run_bdca, run_bdca_plus])
def test_a_nan_oracle_is_still_blamed_at_y_k(example2d, runner):
    y0, _, _ = dca_step(example2d, X0)
    with pytest.raises(ProblemDefinitionError, match="not finite") as err:
        runner(_NanAt(lambda x: np.array_equal(x, y0)), X0)
    assert repr(y0) in str(err.value)


class _NanGradient(Example2dProblem):
    def grad_g(self, x):
        return np.full(2, np.nan)


@pytest.mark.parametrize("runner", [dca_step, run_dca, run_bdca, run_bdca_plus])
def test_a_nan_gradient_fails_the_residual_check(runner):
    # Only the residual check reads grad_g on the solve path.
    with pytest.raises(ProblemDefinitionError, match="residual nan"):
        runner(_NanGradient(), X0)


def test_max_iterations_termination(example2d):
    res = run_dca(example2d, np.array([0.5, 0.5]), SolverParams(max_iter=3))
    assert res.termination is Termination.MAX_ITERATIONS
    assert res.n_iterations == 3


def test_runs_never_mislabel_termination(example2d):
    assert (
        run_dca(example2d, np.array([1.0, 1.0])).termination
        is Termination.CRITICAL_POINT
    )
    assert (
        run_bdca(example2d, np.array([1.0, 1.0])).termination
        is Termination.CRITICAL_POINT
    )
    assert (
        run_bdca_plus(example2d, np.array([1.0, 1.0])).termination
        is Termination.D_STATIONARY_CERTIFIED
    )


# ------------------------------------------------------- invariant sweeps


def _check_run_invariants(problem, res, params):
    alpha = params.alpha
    prev_phi = None
    for rec in res.iterations:
        dd = float(np.dot(rec.d_k, rec.d_k))
        slack = 1e-9 * (1.0 + abs(rec.phi_x))
        assert rec.phi_y <= rec.phi_x - problem.rho * dd + slack
        if rec.lambda_k > 0.0:
            lhs = eval_phi(problem, rec.y_k + rec.lambda_k * rec.d_k)
            assert lhs <= rec.phi_y - alpha * rec.lambda_k**2 * dd
            assert rec.lambda_k <= rec.lambda_trial
        if prev_phi is not None:
            assert rec.phi_x <= prev_phi + 1e-9 * (1.0 + abs(prev_phi))
        prev_phi = rec.phi_x


@pytest.mark.parametrize("algo", [run_dca, run_bdca, run_bdca_plus])
def test_invariants_on_random_example2d_starts(example2d, params, algo):
    for i in range(60):
        rng = np.random.default_rng((7, i))
        x0 = rng.uniform(-1.5, 1.5, 2)
        res = algo(example2d, x0)
        _check_run_invariants(example2d, res, params)
        # Finite partial-sum form of the step-size summability bound.
        total = sum(float(np.dot(r.d_k, r.d_k)) for r in res.iterations)
        drop = eval_phi(example2d, x0) - res.final_phi
        assert total <= 10.0 * drop / example2d.rho + 1e-9


@pytest.mark.parametrize("algo", [run_dca, run_bdca, run_bdca_plus])
def test_invariants_on_random_mssc_starts(mssc3, params, algo):
    for i in range(8):
        rng = np.random.default_rng((13, i))
        x0 = mssc3.sample_start(rng)
        res = algo(mssc3, x0)
        _check_run_invariants(mssc3, res, params)


def test_certified_points_pass_the_analytic_test(example2d, mssc3):
    for problem, starts in ((example2d, 25), (mssc3, 6)):
        pss = make_d1(problem.dim)
        for i in range(starts):
            rng = np.random.default_rng((21, i))
            x0 = (
                rng.uniform(-1.5, 1.5, 2)
                if problem is example2d
                else problem.sample_start(rng)
            )
            res = run_bdca_plus(problem, x0, pss)
            assert res.termination is Termination.D_STATIONARY_CERTIFIED
            report = check_d_stationarity(problem, res.final_point, pss, tol=1e-4)
            assert report.is_d_stationary, report.min_deriv


def test_paired_bdca_plus_never_worse_than_dca(mssc3):
    for i in range(10):
        rng = np.random.default_rng((29, i))
        x0 = mssc3.sample_start(rng)
        phi_dca = run_dca(mssc3, x0).final_phi
        phi_plus = run_bdca_plus(mssc3, x0).final_phi
        assert phi_plus <= phi_dca + 1e-12


# --------------------------------------------------------- stationarity


def test_stationarity_values_at_the_four_points(example2d):
    at_min = check_d_stationarity(example2d, np.array([-1.0, -1.0]), D1)
    assert at_min.is_d_stationary
    assert at_min.dir_derivs == pytest.approx([0.0, 0.0, 0.0, 0.0], abs=1e-12)

    at_origin = check_d_stationarity(example2d, np.array([0.0, 0.0]), D1)
    assert not at_origin.is_d_stationary
    assert at_origin.min_deriv == pytest.approx(-2.0, abs=1e-12)

    at_saddle = check_d_stationarity(example2d, np.array([0.0, -1.0]), D1)
    assert not at_saddle.is_d_stationary
    assert at_saddle.min_deriv == pytest.approx(-2.0, abs=1e-12)


class NanAlongMinusE1(Example2dProblem):
    """Example2d whose h'(x; v) is NaN along -e1."""

    def dir_deriv_h(self, x, d):
        return float("nan") if d[0] < 0.0 else super().dir_deriv_h(x, d)


def test_stationarity_does_not_certify_a_nan_derivative():
    # (0, -1) is not d-stationary; min() of [0, nan, 0, 0] would say 0.
    report = check_d_stationarity(NanAlongMinusE1(), np.array([0.0, -1.0]), D1)
    assert np.isnan(report.dir_derivs[1]) and np.isnan(report.min_deriv)
    assert not report.is_d_stationary


def test_stationarity_needs_the_exact_oracle():
    """Only an exact h'(x; v) certifies; the solvers still run without it."""

    class NoExact(Example2dProblem):
        dir_deriv_h = None

    prob = NoExact()
    with pytest.raises(ValueError, match="dir_deriv_h"):
        check_d_stationarity(prob, np.array([-1.0, -1.0]), D1)
    res = run_bdca_plus(prob, np.array([0.3, 0.7]))
    assert res.termination == Termination.D_STATIONARY_CERTIFIED


def test_stationarity_rejects_a_spanning_set_of_another_dimension(example2d, mssc3):
    for problem, pss in ((example2d, make_d1(3)), (mssc3, make_d1(2))):
        with pytest.raises(ValueError, match="spanning set dimension"):
            check_d_stationarity(problem, np.zeros(problem.dim), pss)


def test_stationarity_works_with_other_spanning_sets(example2d):
    pss = make_d2(2)
    assert check_d_stationarity(example2d, np.array([-1.0, -1.0]), pss).is_d_stationary
    assert not check_d_stationarity(example2d, np.array([0.0, 0.0]), pss).is_d_stationary


def test_stationarity_validation(example2d):
    with pytest.raises(ValueError):
        check_d_stationarity(example2d, np.zeros(2), D1, tol=-1.0)
    # NaN passes the sign check, so finiteness is checked on its own.
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            check_d_stationarity(example2d, np.array([-1.0, -1.0]), D1, tol=tol)
