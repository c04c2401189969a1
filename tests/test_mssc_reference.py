"""The centred clustering formulation (``mssc_reference.CentredMssc``)
against ``MsscProblem``: DCA and BDCA end at the same phi, and on the
reference they keep it when data and start move together.  At the
solvers' endpoints both give the same first-order test."""

import numpy as np
import pytest
from mssc_reference import CentredMssc

from dcboost import (
    ClusterData,
    MsscProblem,
    generate_blobs,
    make_d1,
    run_bdca,
    run_bdca_plus,
    run_dca,
)
from dcboost.bench import draw_start
from dcboost.solvers import check_d_stationarity

SOLVERS = {"dca": run_dca, "bdca": run_bdca}
STARTS = range(6)


@pytest.fixture(scope="module")
def blobs():
    return generate_blobs(4, 200, seed=0)


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("k", [4, 8])
def test_reference_ends_where_mssc_ends(blobs, k, solver):
    run = SOLVERS[solver]
    problem, reference = MsscProblem(blobs, k), CentredMssc(blobs, k)
    for i in STARTS:
        x0 = draw_start(problem, 0, i)
        assert abs(run(reference, x0).final_phi - run(problem, x0).final_phi) <= 1e-9, i


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("k", [4, 8])
def test_reference_final_phi_is_invariant_under_translation(blobs, k, solver):
    """Shifting the data and the start together moves the final phi by
    the centring's rounding only, and no run blames the problem (a
    ProblemDefinitionError would fail the test)."""
    run = SOLVERS[solver]
    for i in STARTS:
        x0 = draw_start(MsscProblem(blobs, k), 0, i)
        unshifted = run(CentredMssc(blobs, k), x0).final_phi
        for shift in (1e3, 1e5, 1e7):
            shifted = CentredMssc(ClusterData(blobs.points + shift), k)
            final_phi = run(shifted, x0 + shift).final_phi
            assert abs(final_phi - unshifted) <= 1e-9, (i, shift)


@pytest.mark.parametrize("k", [4, 8])
def test_reference_first_order_test_matches_mssc(blobs, k):
    """The two h's differ by the smooth term -rho * sum_j <a_mean, x_j>, so
    grad_g . v - h'(x; v) is phi's one-sided derivative on both.  At each
    solver's endpoints, and at one with two coincident centroids, where
    every point nearest to them is a tie, the D1 derivatives agree within
    1e-9 (measured: 1.1e-14) and so do the verdicts."""
    problem, reference = MsscProblem(blobs, k), CentredMssc(blobs, k)
    d1 = make_d1(problem.dim)
    points = [
        run(problem, draw_start(problem, 0, i)).final_point
        for run in (run_dca, run_bdca, run_bdca_plus)
        for i in STARTS
    ]
    coincident = points[0].reshape(k, -1).copy()
    coincident[1] = coincident[0]
    points.append(coincident.ravel())
    for x in points:
        got = check_d_stationarity(reference, x, d1)
        want = check_d_stationarity(problem, x, d1)
        assert np.allclose(got.dir_derivs, want.dir_derivs, rtol=0.0, atol=1e-9)
        assert got.is_d_stationary == want.is_d_stationary
    assert not want.is_d_stationary  # splitting the coincident pair descends
