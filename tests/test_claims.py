"""The paper's claims on the 2-D example, pinned as facts at fixed seeds.

DCA and BDCA stop at critical points, which need not be d-stationary;
BDCA+ escapes them along a positive spanning set and certifies the one
d-stationary point, (-1, -1), with each bundled set.  At the default
``lambda_bar1 = 10`` BDCA's line search already carries every start to
(-1, -1), so the escape is exercised at ``lambda_bar1 = 0.5``; at 1 and 2
BDCA misses on none and on 18 starts.  README "What reproduces" quotes
these numbers.
"""

from collections import Counter

import pytest

from dcboost import Example2dProblem, SolverParams, make_d1
from dcboost.bench import run_table1
from dcboost.core import Termination
from dcboost.solvers import check_d_stationarity
from dcboost.spanning import PSS_KINDS

STARTS = 2000
SEED = 0
STALLING = SolverParams(lambda_bar1=0.5)
MINIMUM = "(-1,-1)"


@pytest.fixture(scope="module")
def stalling_reports():
    return {kind: run_table1(STARTS, SEED, STALLING, pss_kind=kind) for kind in PSS_KINDS}


@pytest.mark.parametrize("kind", PSS_KINDS)
def test_dca_and_bdca_stop_at_critical_points(stalling_reports, kind):
    counts = stalling_reports[kind].basin_counts
    assert counts["DCA"] == {
        "(-1,-1)": 483, "(-1,0)": 530, "(0,-1)": 506, "(0,0)": 481, "unclassified": 0
    }
    assert counts["BDCA"] == {
        "(-1,-1)": 1239, "(-1,0)": 328, "(0,-1)": 305, "(0,0)": 128, "unclassified": 0
    }


def test_bdca_endpoints_away_from_the_minimum_are_not_d_stationary(stalling_reports):
    problem, d1 = Example2dProblem(), make_d1(2)
    away = [s for s in stalling_reports["d1"].runs["BDCA"] if s.label != MINIMUM]
    assert len(away) == 761
    for s in away:
        assert not check_d_stationarity(problem, s.final_point, d1, tol=1e-6).is_d_stationary


# BDCA+ escapes (direct-search calls before the certifying one) per
# start, counted over the starts where BDCA stopped short of (-1, -1):
# D1 and D3 leave (0, 0) for an axis point first, D2's all-minus-ones
# direction leaves every critical point for (-1, -1) at once.
ESCAPES = {"d1": {1: 633, 2: 128}, "d2": {1: 761}, "d3": {1: 633, 2: 128}}


@pytest.mark.parametrize("kind", PSS_KINDS)
def test_bdca_plus_certifies_the_minimum_from_every_start(stalling_reports, kind):
    report = stalling_reports[kind]
    assert report.basin_counts["BDCA+"][MINIMUM] == STARTS
    assert all(
        s.termination is Termination.D_STATIONARY_CERTIFIED for s in report.runs["BDCA+"]
    )
    escapes = Counter()
    for bdca, plus in zip(report.runs["BDCA"], report.runs["BDCA+"]):
        if bdca.label == MINIMUM:
            assert plus.dfo_invocations == 1
        else:
            escapes[plus.dfo_invocations - 1] += 1
    assert escapes == ESCAPES[kind]


def test_at_the_default_step_bdca_reaches_the_minimum_and_nothing_escapes():
    report = run_table1(STARTS, SEED)
    assert report.basin_counts["BDCA"][MINIMUM] == STARTS
    assert report.basin_counts["BDCA+"][MINIMUM] == STARTS
    assert all(s.dfo_invocations == 1 for s in report.runs["BDCA+"])


# BDCA's end points on D1 by first trial step: its misses do not fall
# monotonically in lambda_bar1 (761 at 0.5, 0 at 1, 18 at 2, 0 at 10).
SWEEP = {
    1.0: {"(-1,-1)": 2000, "(-1,0)": 0, "(0,-1)": 0, "(0,0)": 0, "unclassified": 0},
    2.0: {"(-1,-1)": 1982, "(-1,0)": 9, "(0,-1)": 9, "(0,0)": 0, "unclassified": 0},
}


@pytest.mark.parametrize("lambda_bar1", sorted(SWEEP))
def test_bdca_plus_escapes_once_from_each_bdca_miss(lambda_bar1):
    report = run_table1(STARTS, SEED, SolverParams(lambda_bar1=lambda_bar1))
    assert report.basin_counts["BDCA"] == SWEEP[lambda_bar1]
    assert report.basin_counts["BDCA+"][MINIMUM] == STARTS
    for bdca, plus in zip(report.runs["BDCA"], report.runs["BDCA+"]):
        assert plus.termination is Termination.D_STATIONARY_CERTIFIED
        # One call certifies; a second is the escape from BDCA's miss.
        assert plus.dfo_invocations == (1 if bdca.label == MINIMUM else 2)
