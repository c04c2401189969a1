"""The centred clustering formulation (``mssc_reference.CentredMssc``)
against ``MsscProblem``: DCA and BDCA end at the same phi, and on the
reference they keep it when data and start move together."""

import numpy as np
import pytest
from mssc_reference import CentredMssc

from dcboost import ClusterData, MsscProblem, generate_blobs, run_bdca, run_dca
from dcboost.bench import draw_start

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
