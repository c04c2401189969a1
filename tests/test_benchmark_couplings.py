"""What the benchmark under ``benchmarks/`` reads from the program, besides
the names its tracer wraps (the tracer reports a missing one itself).

A change that breaks one of these can pass every other test here and
still crash or miscount a benchmark run:

* ``tracing._observe_dfo`` reads ``dfo_escape(...).x_next`` and
  ``.event.mu_tried``;
* ``tracing._observe_line_search`` reads the fifth positional argument of
  ``solvers._armijo`` as the trial step and ``result[0]`` as the step
  taken, and both tracer observers see the calls the driver makes
  through the module names;
* ``micro.solver_timings`` calls ``armijo_backtrack(problem, y, d, trial,
  alpha, beta1)`` and ``dfo_escape(problem, y, pss, DfoState(mu=...),
  params)`` positionally;
* ``launch.install_probe`` subclasses ``bench.ProcessPoolExecutor`` and
  reads the solvers' arguments after ``(problem, x0)`` by position;
* ``launch.run_work`` reads a finished run's ``iterations`` and, per
  record, ``dfo_event`` (``mu_tried``, ``mu_accepted``,
  ``direction_index``), ``lambda_trial`` and ``lambda_k``, and
  ``launch.Probe.record`` reads its ``termination.value`` and
  ``final_phi``.
"""

import inspect
import math

import numpy as np

import dcboost.bench
from dcboost import Example2dProblem, SolverParams, make_d1, run_bdca, run_bdca_plus, run_dca
from dcboost import solvers
from dcboost.bench import run_table1
from dcboost.core import Termination
from dcboost.solvers import DfoState, armijo_backtrack, dca_step, dfo_escape

D1 = make_d1(2)


def test_dfo_escape_result_has_what_the_tracer_reads():
    # Called as micro.solver_timings calls it.
    problem, params = Example2dProblem(), SolverParams()
    escape = dfo_escape(problem, np.array([0.0, -1.0]), D1, DfoState(mu=params.mu_bar), params)
    certify = dfo_escape(problem, np.array([-1.0, -1.0]), D1, DfoState(mu=params.mu_bar), params)
    assert escape.x_next is not None and certify.x_next is None
    assert len(escape.event.mu_tried) >= 1 and len(certify.event.mu_tried) > 1


def test_armijo_takes_the_trial_fifth_and_returns_the_step_first():
    assert list(inspect.signature(solvers._armijo).parameters)[4] == "lambda_trial"
    problem, params = Example2dProblem(), SolverParams()
    y, d, _ = dca_step(problem, np.array([0.3, 0.7]))
    phi_y = problem.eval_g(y) - problem.eval_h(y)
    trial, dd = params.lambda_bar1, float(d.dot(d))
    result = solvers._armijo(problem, y, d, phi_y, trial, params.alpha, params.beta1, dd)
    # Called as micro.solver_timings calls it.
    assert result[0] == armijo_backtrack(problem, y, d, trial, params.alpha, params.beta1)
    assert 0.0 < result[0] <= trial


def test_the_driver_calls_what_the_tracer_wraps_by_module_name(monkeypatch):
    seen = {"_armijo": [], "dfo_escape": []}
    for name, calls in seen.items():
        original = getattr(solvers, name)

        def recorded(*args, original=original, calls=calls):
            result = original(*args)
            calls.append((args, result))
            return result

        monkeypatch.setattr(solvers, name, recorded)
    res = run_bdca_plus(Example2dProblem(), np.array([0.0, 1.0]))
    # Every iteration of this run either moves after a line search or
    # runs the direct search.
    searched = [rec for rec in res.iterations if rec.dfo_event is None]
    assert [(args[4], result[0]) for args, result in seen["_armijo"]] == [
        (rec.lambda_trial, rec.lambda_k) for rec in searched
    ]
    assert any(rec.lambda_k > 0.0 for rec in searched)
    events = [rec.dfo_event for rec in res.iterations if rec.dfo_event is not None]
    assert [result.event for _, result in seen["dfo_escape"]] == events
    assert [result.x_next is None for _, result in seen["dfo_escape"]] == [False, True]


def test_the_solvers_take_pss_then_params_after_the_start():
    assert list(inspect.signature(run_dca).parameters) == ["problem", "x0", "params"]
    assert list(inspect.signature(run_bdca).parameters) == ["problem", "x0", "params"]
    assert list(inspect.signature(run_bdca_plus).parameters) == ["problem", "x0", "pss", "params"]


def test_the_pool_is_a_class_a_caller_can_subclass(monkeypatch):
    made = []

    class TimedPool(dcboost.bench.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(dcboost.bench, "ProcessPoolExecutor", TimedPool)
    report = run_table1(2, seed=0, workers=2)
    assert made == [{"max_workers": 2}]
    assert report.to_dict() == run_table1(2, seed=0).to_dict()


def test_a_finished_run_has_what_the_launcher_reads():
    # This run escapes once, then certifies: both kinds of direct search.
    res = run_bdca_plus(Example2dProblem(), np.array([0.0, 1.0]))
    escape, certify = [rec.dfo_event for rec in res.iterations if rec.dfo_event is not None]
    assert escape.mu_accepted == escape.mu_tried[-1]
    assert 0 <= escape.direction_index < D1.directions.shape[0]
    assert certify.mu_accepted is None and certify.direction_index is None
    assert len(certify.mu_tried) > 1
    searched = [rec for rec in res.iterations if rec.dfo_event is None]
    assert any(rec.lambda_trial > 0.0 for rec in searched)
    assert all(0.0 <= rec.lambda_k <= rec.lambda_trial for rec in searched)
    # Probe.record compares the termination's value with these strings.
    assert res.termination.value == "DStationaryCertified"
    assert Termination.MAX_ITERATIONS.value == "MaxIterations"
    assert math.isfinite(res.final_phi)
