import ast
import dataclasses
import importlib
import json
import pkgutil
from enum import Enum
from pathlib import Path

import numpy as np
import pytest

import dcboost
from dcboost import (
    ClusterData,
    Example2dProblem,
    MsscProblem,
    ProblemDefinitionError,
    SolverParams,
    check_d_stationarity,
    eval_phi,
    run_bdca_plus,
    validate_problem,
)
from dcboost.bench import PairRow, StartSummary, run_pairwise_mssc, run_table1
from dcboost.core import Record, RunResult, Termination, as_point, norm
from dcboost.problems.mssc import generate_blobs
from dcboost.spanning import make_d1, make_d2, make_d3


def test_eval_phi_example2d_origin(example2d):
    assert eval_phi(example2d, np.zeros(2)) == 0.0


def test_eval_phi_example2d_minimum(example2d):
    # 1 + 1 - 1 - 1 - 1 - 1 by direct substitution.
    assert eval_phi(example2d, np.array([-1.0, -1.0])) == pytest.approx(-2.0, abs=1e-14)


def test_eval_phi_mssc_single_centroid_at_mean():
    data = ClusterData(np.array([[0.0, 0.0], [2.0, 0.0]]))
    prob = MsscProblem(data, k=1, rho=0.5)
    # (1/2) * (||(1,0)-(0,0)||^2 + ||(1,0)-(2,0)||^2) = 1
    assert eval_phi(prob, np.array([1.0, 0.0])) == pytest.approx(1.0, rel=1e-12)


def test_eval_phi_rejects_non_finite(example2d):
    class Broken(Example2dProblem):
        def eval_g(self, x):
            return float("inf")

    with pytest.raises(ProblemDefinitionError):
        eval_phi(Broken(), np.zeros(2))


def test_params_derived_defaults():
    p = SolverParams()
    assert p.eta == 1.0 / p.beta2 == 2.0
    assert p.tau == p.eps2 == 1e-4
    assert (p.alpha, p.eps1, p.mu_bar, p.gamma, p.lambda_bar1, p.beta1) == (
        1e-4,
        1e-8,
        10.0,
        2.0,
        10.0,
        0.25,
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"beta1": 0.0},
        {"beta1": 1.0},
        {"beta2": 1.5},
        {"gamma": 1.0},
        {"alpha": 0.0},
        {"eps2": 0.0},
        {"mu_bar": -1.0},
        {"lambda_bar1": 0.0},
        {"max_iter": 0},
        {"eps1": -1e-9},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        SolverParams(**kwargs)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "name", [f.name for f in dataclasses.fields(SolverParams) if f.name != "max_iter"]
)
def test_params_reject_non_finite(name, value):
    # NaN passes every sign check, so it needs its own.
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SolverParams(**{name: value})


@pytest.mark.parametrize("value", [2.5, 1e3, float("inf"), float("nan"), True])
def test_params_reject_a_max_iter_that_is_not_an_integer(value):
    with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
        SolverParams(max_iter=value)


@pytest.mark.parametrize(
    "kwargs",
    [{"eta": 0.0, "tau": 0.0}, {"mu_bar": 1e308}],
    ids=["zero", "overflow"],
)
def test_params_reject_a_first_escape_radius_outside_the_open_range(kwargs):
    # At radius 0 every probe is the stall point and any point is
    # "certified"; at radius inf every probe overflows.
    with pytest.raises(ValueError, match=r"eta\*mu_bar \+ tau must be positive and finite"):
        SolverParams(**kwargs)


def test_as_point_checks():
    with pytest.raises(ValueError):
        as_point([1.0, float("nan")])
    with pytest.raises(ValueError):
        as_point([1.0, 2.0], dim=3)
    with pytest.raises(ValueError):
        as_point([[1.0, 2.0]])


# Every count a caller passes, each as a call taking the value: all go
# through core.as_count.
COUNTS = {
    "max_iter": lambda v: SolverParams(max_iter=v),
    "k": lambda v: MsscProblem(ClusterData(np.zeros((2, 2))), v),
    "n_blobs": lambda v: generate_blobs(v, 3),
    "points_per_blob": lambda v: generate_blobs(2, v),
    "m (d1)": make_d1,
    "m (d2)": make_d2,
    "m (d3)": make_d3,
    "n_starts (table1)": lambda v: run_table1(v, 0),
    "n_starts (pairwise)": lambda v: run_pairwise_mssc(Example2dProblem(), v, 0),
    "workers": lambda v: run_table1(1, 0, workers=v),
}


@pytest.mark.parametrize("value", [True, 2.5, 0])
@pytest.mark.parametrize("count", COUNTS)
def test_counts_must_be_integers_of_at_least_one(count, value):
    # True is an int and 2.5 compares >= 1; neither is a count.
    name = count.split()[0]
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1$"):
        COUNTS[count](value)


@pytest.mark.parametrize("count", COUNTS)
def test_counts_accept_numpy_integers(count):
    COUNTS[count](np.int64(2))


def test_norm_has_the_bits_of_numpy_norm(rng):
    for length in range(1, 65):
        for _ in range(20):
            v = rng.normal(0.0, 10.0 ** rng.integers(-5, 6), length)
            assert norm(v) == float(np.linalg.norm(v))


SRC = Path(__file__).resolve().parents[1] / "src" / "dcboost"
_BLAS_CALLS = {("np", "dot"), ("np", "inner"), ("np", "vdot"), ("np", "linalg", "norm")}


def _dotted(node: ast.AST) -> tuple[str, ...]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return tuple(reversed(parts))


@pytest.mark.parametrize("module", ["solvers.py", "bench.py", "cli.py"])
def test_lengths_on_the_solve_path_come_from_sq_norm(module):
    """Outside the d-stationarity check, these modules take every length
    from core.sq_norm: no BLAS product of their own, so the rule has one
    home.  (The check may keep its own products.)"""
    tree = ast.parse((SRC / module).read_text())
    found = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == "check_d_stationarity":
            continue
        if isinstance(node, ast.Call) and _dotted(node.func) in _BLAS_CALLS:
            found.append((node.lineno, ".".join(_dotted(node.func))))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        stack.extend(ast.iter_child_nodes(node))
    assert not found, f"{module}: {sorted(found)}"


def test_validate_example2d_passes(example2d, rng):
    samples = rng.uniform(-2.0, 2.0, size=(100, 2))
    report = validate_problem(example2d, samples)
    assert report.passed, [c for c in report.checks if not c.passed]


def test_validate_mssc_passes(mssc3):
    samples = [mssc3.sample_start(np.random.default_rng((42, i))) for i in range(100)]
    report = validate_problem(mssc3, samples)
    assert report.passed, [c for c in report.checks if not c.passed]


def test_validate_catches_corrupted_gradient(rng):
    class Corrupted(Example2dProblem):
        def grad_g(self, x):
            return 1.1 * super().grad_g(x)

    samples = rng.uniform(-2.0, 2.0, size=(20, 2))
    report = validate_problem(Corrupted(), samples)
    gradient, subgradient, _ = report.checks
    assert gradient.name == "gradient" and not gradient.passed
    # The other checks only involve g values, h, and subgrad_h.
    assert subgradient.name == "subgradient" and subgradient.passed


def test_validate_requires_samples(example2d):
    with pytest.raises(ValueError):
        validate_problem(example2d, [])


def test_subproblem_residual_invariant(example2d, mssc3, rng):
    for prob in (example2d, mssc3):
        for _ in range(100):
            u = rng.normal(0.0, 5.0, prob.dim)
            y = prob.solve_subproblem(u)
            res = np.linalg.norm(prob.grad_g(y) - u)
            assert res <= 1e-8 * (1.0 + np.linalg.norm(u))


def _bdca_plus_run():
    # From (0, 1) BDCA+ stalls at (0, 0), escapes, and is certified at (-1, -1).
    return run_bdca_plus(Example2dProblem(), np.array([0.0, 1.0]))


def test_dfo_invocations_are_counted_from_the_records():
    result = _bdca_plus_run()
    events = [r for r in result.iterations if r.dfo_event is not None]
    assert result.dfo_invocations == len(events) == 2
    assert "dfo_invocations" not in result.to_dict()


TIMED_RECORDS = [
    RunResult(np.array([-1.0, -1.0]), -2.0, [], Termination.CRITICAL_POINT, 0.25),
    StartSummary(
        0, np.zeros(2), np.ones(2), -2.0, 4, 1, 0.25, Termination.D_STATIONARY_CERTIFIED
    ),
    PairRow(3, -1.0, -2.0, 1.0, 10, 4, 1, 0.25),
]


@pytest.mark.parametrize("record", TIMED_RECORDS, ids=lambda r: type(r).__name__)
def test_timing_fields_are_null_unless_requested(record):
    timed = [f.name for f in dataclasses.fields(record) if f.metadata.get("timing")]
    assert timed == ["time_ratio" if isinstance(record, PairRow) else "wall_time"]
    (name,) = timed
    assert record.to_dict()[name] is None
    d = json.loads(json.dumps(record.to_dict(include_timings=True)))
    assert d[name] == 0.25


LOSSLESS_RECORDS = {
    "IterationRecord": lambda: next(
        r for r in _bdca_plus_run().iterations if r.dfo_event is not None
    ),
    "RunResult": _bdca_plus_run,
    "StationarityReport": lambda: check_d_stationarity(
        Example2dProblem(), np.array([0.0, -1.0]), make_d1(2)
    ),
    "MultiStartReport": lambda: run_pairwise_mssc(
        MsscProblem(generate_blobs(3, 40, spread=0.6, seed=11), 2), n_starts=3, seed=1
    ),
}


def _assert_encodes(value, encoded, timed):
    """``encoded`` is ``value`` as ``to_dict`` writes it: records field by
    field, arrays as their ``tolist()``, enums as their values."""
    if isinstance(value, Record):
        fields = dataclasses.fields(value)
        assert list(encoded) == [f.name for f in fields]
        for f in fields:
            if f.metadata.get("timing") and not timed:
                assert encoded[f.name] is None
            else:
                _assert_encodes(getattr(value, f.name), encoded[f.name], timed)
    elif isinstance(value, np.ndarray):
        assert encoded == value.tolist()
    elif isinstance(value, Enum):
        assert encoded == value.value
    elif isinstance(value, dict):
        assert list(encoded) == list(value)
        for key, item in value.items():
            _assert_encodes(item, encoded[key], timed)
    elif isinstance(value, list):
        assert len(encoded) == len(value)
        for item, enc in zip(value, encoded):
            _assert_encodes(item, enc, timed)
    else:
        assert encoded == value


@pytest.mark.parametrize("include_timings", [False, True])
@pytest.mark.parametrize("kind", list(LOSSLESS_RECORDS))
def test_to_dict_is_lossless_json(kind, include_timings):
    record = LOSSLESS_RECORDS[kind]()
    d = record.to_dict(include_timings)
    assert json.loads(json.dumps(d)) == d
    _assert_encodes(record, d, include_timings)


MODULES = ["dcboost"] + [
    m.name for m in pkgutil.walk_packages(dcboost.__path__, "dcboost.")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
