import numpy as np
import pytest

from dcboost import eval_phi, make_d1, run_dca
from dcboost.problems.example2d import CRITICAL_POINTS
from dcboost.solvers import check_d_stationarity


def test_subgrad_on_axis_default_convention(example2d):
    assert np.array_equal(
        example2d.subgrad_h(np.array([0.0, 1.0])), np.array([1.0, 2.0])
    )


def test_subgrad_at_minimum(example2d):
    assert np.array_equal(
        example2d.subgrad_h(np.array([-1.0, -1.0])), np.array([-2.0, -2.0])
    )


def test_subgrad_zero_convention(example2d):
    # The selection takes d|t|/dt = +1 at the kink, in both coordinates.
    assert np.array_equal(example2d.subgrad_h(np.zeros(2)), np.array([1.0, 1.0]))


def test_sample_start_draws_from_the_square(example2d):
    # The draw that table1's basin counts and solve's default start rest on.
    x = example2d.sample_start(np.random.default_rng((2, 7)))
    assert np.array_equal(x, np.random.default_rng((2, 7)).uniform(-1.5, 1.5, 2))


def test_solve_subproblem_values(example2d):
    y = example2d.solve_subproblem(np.array([1.0, 2.0]))
    assert np.allclose(y, [0.0, 1.0 / 3.0], atol=1e-15)
    assert np.array_equal(
        example2d.solve_subproblem(np.array([-2.0, -2.0])), np.array([-1.0, -1.0])
    )
    assert np.array_equal(
        example2d.solve_subproblem(np.array([1.0, 1.0])), np.zeros(2)
    )


def test_phi_matches_direct_formula(example2d, rng):
    for _ in range(200):
        x = rng.uniform(-3.0, 3.0, 2)
        direct = example2d.phi_direct(x)
        assert eval_phi(example2d, x) == pytest.approx(direct, abs=1e-12)


def test_four_points_are_dca_fixed(example2d):
    for _, point in CRITICAL_POINTS:
        res = run_dca(example2d, np.array(point))
        assert res.n_iterations == 1
        assert np.allclose(res.final_point, point, atol=1e-12)


def test_only_one_point_is_d_stationary(example2d):
    pss = make_d1(2)
    verdicts = {
        label: check_d_stationarity(example2d, np.array(p), pss).is_d_stationary
        for label, p in CRITICAL_POINTS
    }
    assert verdicts == {
        "(-1,-1)": True,
        "(-1,0)": False,
        "(0,-1)": False,
        "(0,0)": False,
    }


def test_dir_deriv_matches_difference_quotient(example2d, rng):
    # Forward differences approximate the one-sided derivative, kinks included.
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, 2)
        if rng.random() < 0.3:
            x[rng.integers(2)] = 0.0
        d = rng.normal(0.0, 1.0, 2)
        t = 1e-8
        fd = (example2d.eval_h(x + t * d) - example2d.eval_h(x)) / t
        assert example2d.dir_deriv_h(x, d) == pytest.approx(fd, abs=1e-6)
