"""The paper's claims, pinned as facts at fixed seeds.

On the 2-D example, DCA and BDCA stop at critical points, which need not
be d-stationary; BDCA+ escapes them along a positive spanning set and
certifies the one d-stationary point, (-1, -1), with each bundled set.
At the default ``lambda_bar1 = 10`` BDCA's line search already carries
every start to (-1, -1), so the escape is exercised at
``lambda_bar1 = 0.5``; at 1 and 2 BDCA misses on none and on 18 starts.

On clustering, the first-order test accepts every DCA and BDCA endpoint
of the starts below, so BDCA+'s lower objective comes from moving empty
or misplaced centroids, not from escaping a point that is not
d-stationary.  Each of those endpoints, and each point BDCA+ escapes
from, is a certified local minimum, and every escape moves a centroid by
many times the certificate's radius.  README "What reproduces" quotes
these numbers.  These clustering pins hold on ``MsscProblem`` and on the
centred formulation of ``mssc_reference.CentredMssc`` (ROADMAP item 18),
from the same starts; only BDCA+'s escape counts at k = 8 differ.

One DC step on clustering is a damped Lloyd step: each centroid moves
toward the mean of the points nearest to it by a fixed fraction, and an
empty one stays (ROADMAP item 15).  The undamped Lloyd iteration takes
fewer iterations than BDCA, and BDCA fewer than DCA.

BDCA+ ends lower on the mean than a cheap repair that moves empty
centroids onto far data points and runs BDCA again, at more than twice
the repair's ``eval_g`` calls (ROADMAP item 16).  BDCA from a k-means++
start costs under a tenth of BDCA+'s calls and ends higher on the mean,
though lower from some starts at k = 8.
"""

import copy
import itertools
import statistics
from collections import Counter

import numpy as np
import pytest
from mssc_reference import CentredMssc

from dcboost import (
    Example2dProblem,
    MsscProblem,
    SolverParams,
    dca_step,
    eval_phi,
    generate_blobs,
    make_d1,
    run_bdca,
    run_bdca_plus,
    run_dca,
)
from dcboost.bench import draw_start, run_table1
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


# Clustering: 4x200 blobs, starts draw_start(problem, 0, i) for i = 0..5,
# default parameters, D1.  Empty clusters per start: centroids that no
# data point is nearest to.
EMPTY = {
    8: {"DCA": [3, 3, 3, 3, 3, 5], "BDCA": [3, 2, 3, 3, 3, 5], "BDCA+": [0] * 6},
    4: {"DCA": [0, 0, 2, 2, 0, 2], "BDCA": [0, 0, 2, 2, 0, 2], "BDCA+": [0] * 6},
}
CLUSTER_SOLVERS = {"DCA": run_dca, "BDCA": run_bdca, "BDCA+": run_bdca_plus}
# The clustering problem's two formulations, by name.
FORMULATIONS = {"MsscProblem": MsscProblem, "CentredMssc": CentredMssc}


def _sq_dists(problem, point):
    a = problem.data.points
    return ((a[:, None, :] - point.reshape(problem.k, -1)[None, :, :]) ** 2).sum(axis=2)


def _empty(d):
    """Which centroids no data point is nearest to, given the distances."""
    return ~(d == d.min(axis=1)[:, None]).any(axis=0)


def _empty_clusters(problem, point):
    return int(_empty(_sq_dists(problem, point)).sum())


def _local_minimum_certificate(problem, point):
    """(r*, the largest distance from a non-empty centroid to its cluster's
    mean) at ``point``.

    r* is half the smallest gap, over data points, between the distances
    to the nearest and the second-nearest centroid.  While no centroid
    moves by r* or more, no data point changes cluster, so phi is a convex
    quadratic in the non-empty centroids and constant in the empty ones:
    with r* > 0 and each non-empty centroid at its cluster's mean, ``point``
    is a local minimum (Selim & Ismail 1984).
    """
    a = problem.data.points
    c = point.reshape(problem.k, -1)
    dist = np.sqrt(((a[:, None, :] - c[None, :, :]) ** 2).sum(axis=2))
    nearest_two = np.sort(dist, axis=1)[:, :2]
    r_star = 0.5 * float((nearest_two[:, 1] - nearest_two[:, 0]).min())
    labels = dist.argmin(axis=1)
    off = max(np.linalg.norm(c[j] - a[labels == j].mean(axis=0)) for j in set(labels))
    return r_star, float(off)


@pytest.fixture(scope="module")
def cluster_problems():
    data = generate_blobs(4, 200, seed=0)
    return {k: MsscProblem(data, k) for k in EMPTY}


@pytest.fixture(scope="module")
def cluster_runs(cluster_problems):
    """{(formulation, k): {algorithm: [(run, passes the D1 check at tol
    1e-6, empty clusters)]}}, each formulation run from the starts
    ``draw_start(MsscProblem, 0, i)``."""
    out = {}
    for (form, make), (k, base) in itertools.product(
        FORMULATIONS.items(), cluster_problems.items()
    ):
        problem = make(base.data, k)
        d1 = make_d1(problem.dim)
        out[form, k] = {}
        for name, run in CLUSTER_SOLVERS.items():
            rows = []
            for i in range(6):
                res = run(problem, draw_start(base, 0, i))
                x = res.final_point
                check = check_d_stationarity(problem, x, d1, tol=1e-6)
                rows.append((res, check.is_d_stationary, _empty_clusters(problem, x)))
            out[form, k][name] = rows
    return out


@pytest.mark.parametrize("k", sorted(EMPTY))
def test_dca_and_bdca_cluster_endpoints_pass_the_first_order_check(cluster_runs, k):
    for form, name in itertools.product(FORMULATIONS, ("DCA", "BDCA")):
        rows = cluster_runs[form, k][name]
        assert all(passed for _, passed, _ in rows), (form, name)
        assert [empty for _, _, empty in rows] == EMPTY[k][name], (form, name)


# A centroid within this distance of its cluster's mean is at it: the
# solvers stop within 7.6e-8 of the means on these starts.
AT_MEAN = 1e-6


@pytest.mark.parametrize("k", sorted(EMPTY))
def test_dca_and_bdca_cluster_endpoints_are_certified_local_minima(
    cluster_problems, cluster_runs, k
):
    for form, name in itertools.product(FORMULATIONS, ("DCA", "BDCA")):
        for res, _, _ in cluster_runs[form, k][name]:
            r_star, off = _local_minimum_certificate(cluster_problems[k], res.final_point)
            assert r_star >= 3.7e-3 and off < AT_MEAN, (form, name, r_star, off)


# BDCA+'s escapes over the six starts, by formulation; each start also
# ends with one certifying scan.  BDCA+'s path moves with the last bit
# (ROADMAP item 2), and at k = 8 two starts escape once more on the
# centred formulation.
ESCAPE_COUNTS = {
    4: {"MsscProblem": 9, "CentredMssc": 9},
    8: {"MsscProblem": 20, "CentredMssc": 22},
}


@pytest.mark.parametrize("k", sorted(EMPTY))
def test_bdca_plus_escapes_certified_local_minima_by_non_local_moves(
    cluster_problems, cluster_runs, k
):
    for form in FORMULATIONS:
        escapes = certifications = 0
        for res, _, _ in cluster_runs[form, k]["BDCA+"]:
            for rec in res.iterations:
                event = rec.dfo_event
                if event is None:
                    continue
                r_star, off = _local_minimum_certificate(cluster_problems[k], rec.y_k)
                assert r_star > 0.0 and off < AT_MEAN, form
                if event.mu_accepted is None:
                    certifications += 1
                    assert event.mu_tried[-1] <= 0.042 * r_star, form
                else:
                    escapes += 1
                    assert event.mu_accepted >= 16.0 * r_star, form
        assert (escapes, certifications) == (ESCAPE_COUNTS[k][form], 6), form


# BDCA+'s direct-search invocations per start at k = 8, by formulation.
DFO_INVOCATIONS = {"MsscProblem": [4, 3, 5, 4, 4, 6], "CentredMssc": [4, 3, 6, 5, 4, 6]}


def test_bdca_plus_moves_the_empty_centroids_at_k8(cluster_runs):
    for form in FORMULATIONS:
        runs = cluster_runs[form, 8]
        assert [empty for _, _, empty in runs["BDCA+"]] == EMPTY[8]["BDCA+"], form
        assert [res.dfo_invocations for res, _, _ in runs["BDCA+"]] == DFO_INVOCATIONS[form]
        for (plus, passed, _), (dca, _, _) in zip(runs["BDCA+"], runs["DCA"]):
            assert plus.termination is Termination.D_STATIONARY_CERTIFIED and passed, form
            assert plus.final_phi < dca.final_phi, form


def test_bdca_plus_ends_at_one_objective_from_every_start_at_k4(cluster_runs):
    best = 1.941868
    for form in FORMULATIONS:
        runs = cluster_runs[form, 4]
        plus = [res.final_phi for res, _, _ in runs["BDCA+"]]
        assert all(abs(phi - best) < 1e-6 for phi in plus), form
        assert max(plus) - min(plus) < 1e-9, form
        for res, passed, _ in runs["BDCA+"]:
            assert res.termination is Termination.D_STATIONARY_CERTIFIED and passed, form
        above = [res.final_phi > best + 1e-6 for res, _, _ in runs["DCA"]]
        assert above == [False, True, True, True, True, True], form
        assert abs(runs["DCA"][0][0].final_phi - best) < 1e-6, form


def test_a_dc_step_on_clustering_is_a_damped_lloyd_step():
    """y_j = x_j - (2 n_j / (n (2 + rho))) (x_j - m_j), where n_j of the n
    points are nearest to centroid j (first index on ties) and m_j is
    their mean; a centroid no point is nearest to stays."""
    data = generate_blobs(4, 200, seed=0)
    a, n = data.points, data.n
    empty = 0
    for k in (4, 8, 16):
        problem = MsscProblem(data, k)
        for i in range(3):
            x = draw_start(problem, 0, i)
            c = x.reshape(k, -1)
            nearest = ((a[:, None, :] - c[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
            expected = c.copy()
            for j in range(k):
                members = a[nearest == j]
                if len(members) == 0:
                    empty += 1
                    continue
                step = 2.0 * len(members) / (n * (2.0 + problem.rho))
                expected[j] = c[j] - step * (c[j] - members.mean(axis=0))
            y = dca_step(problem, x)[0].reshape(k, -1)
            rel = np.linalg.norm(y - expected) / np.linalg.norm(expected)
            assert rel <= 1e-12, (k, i, rel)
    assert empty > 0  # the unmoved case is exercised


def _lloyd(problem, x):
    """Lloyd's iteration from ``x``: each centroid moves to the mean of the
    points nearest to it (first index on ties) and an empty one stays,
    until no centroid changes.  Returns (iterations, counting the final
    unchanged one, and the final point)."""
    a = problem.data.points
    c = x.reshape(problem.k, -1)
    for iterations in itertools.count(1):
        nearest = ((a[:, None, :] - c[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        moved = c.copy()
        for j in range(problem.k):
            members = a[nearest == j]
            if len(members):
                moved[j] = members.mean(axis=0)
        if np.array_equal(moved, c):
            return iterations, c.ravel()
        c = moved


# Starts at which Lloyd ends within 1e-9 of DCA's objective.
LLOYD_AT_DCA = {4: [0, 5], 8: []}


@pytest.mark.parametrize("k", sorted(EMPTY))
def test_lloyd_takes_fewer_iterations_than_bdca_and_bdca_fewer_than_dca(
    cluster_problems, cluster_runs, k
):
    problem = cluster_problems[k]
    lloyd = [_lloyd(problem, draw_start(problem, 0, i)) for i in range(6)]
    for form in FORMULATIONS:
        runs = cluster_runs[form, k]
        its = {
            name: statistics.median(r.n_iterations for r, _, _ in runs[name])
            for name in ("DCA", "BDCA")
        }
        assert statistics.median(n for n, _ in lloyd) < its["BDCA"] < its["DCA"], form
        at_dca = [
            i
            for i, ((_, x), (dca, _, _)) in enumerate(zip(lloyd, runs["DCA"]))
            if abs(eval_phi(problem, x) - dca.final_phi) <= 1e-9
        ]
        assert at_dca == LLOYD_AT_DCA[k], form


def _counting(problem):
    """A copy of ``problem`` whose ``eval_g`` counts its calls in ``g_calls``."""
    counted = copy.copy(problem)
    counted.g_calls = 0

    def eval_g(x):
        counted.g_calls += 1
        return type(problem).eval_g(counted, x)

    counted.eval_g = eval_g
    return counted


def _repair_empty_clusters(problem, x0):
    """BDCA; then, while its endpoint has an empty cluster, each empty
    centroid moves onto the data point farthest from its nearest centroid
    (distinct points, farthest first) and BDCA runs again from there."""
    res = run_bdca(problem, x0)
    while True:
        d = _sq_dists(problem, res.final_point)
        empty = _empty(d)
        if not empty.any():
            return res
        c = res.final_point.reshape(problem.k, -1).copy()
        farthest = np.argsort(-d.min(axis=1), kind="stable")
        c[empty] = problem.data.points[farthest[: empty.sum()]]
        res = run_bdca(problem, c.ravel())


def _kmeans_pp(problem, rng):
    """The k-means++ seeding (Arthur & Vassilvitskii 2007): a uniformly
    drawn data point, then each next centroid a data point drawn with
    probability proportional to its squared distance to the nearest one."""
    a = problem.data.points
    c = [a[rng.integers(len(a))]]
    for _ in range(problem.k - 1):
        d = ((a[:, None, :] - np.array(c)[None]) ** 2).sum(axis=2).min(axis=1)
        c.append(a[rng.choice(len(a), p=d / d.sum())])
    return np.concatenate(c)


def _counted_run(solve, problem, x0):
    """(final phi, ``eval_g`` calls) of ``solve`` from ``x0``."""
    counted = _counting(problem)
    return solve(counted, x0).final_phi, counted.g_calls


@pytest.fixture(scope="module")
def plus_counted(cluster_problems):
    """{k: [(BDCA+ final phi, its eval_g calls) from start i = 0..5]}."""
    return {
        k: [_counted_run(run_bdca_plus, p, draw_start(p, 0, i)) for i in range(6)]
        for k, p in cluster_problems.items()
    }


@pytest.mark.parametrize("k", sorted(EMPTY))
def test_bdca_plus_ends_lower_than_repairing_empty_clusters(cluster_problems, plus_counted, k):
    """The direct search finds more than a cheap repair of empty clusters
    (the J-means move of Hansen & Mladenovic 2001), at more than twice the
    repair's ``eval_g`` calls; the repair's own distance pass is not
    counted."""
    problem = cluster_problems[k]
    plus = plus_counted[k]
    repair = [
        _counted_run(_repair_empty_clusters, problem, draw_start(problem, 0, i))
        for i in range(6)
    ]
    assert statistics.mean(p for p, _ in plus) < statistics.mean(p for p, _ in repair)
    assert sum(r < p - 1e-9 for (p, _), (r, _) in zip(plus, repair)) <= 1
    assert statistics.median(c for _, c in repair) < 0.5 * statistics.median(c for _, c in plus)


KMEANS_PP_LOWER = {4: 0, 8: 3}


@pytest.mark.parametrize("k", sorted(EMPTY))
def test_bdca_from_kmeans_pp_is_cheaper_than_bdca_plus_and_ends_higher(
    cluster_problems, plus_counted, k
):
    """BDCA from the k-means++ start seeded by ``default_rng(i)`` against
    BDCA+ from start i: higher on the mean, lower on KMEANS_PP_LOWER[k] of
    the 6 starts, at under a tenth of BDCA+'s median ``eval_g`` calls."""
    problem = cluster_problems[k]
    plus = plus_counted[k]
    kpp = [
        _counted_run(run_bdca, problem, _kmeans_pp(problem, np.random.default_rng(i)))
        for i in range(6)
    ]
    assert statistics.mean(p for p, _ in plus) < statistics.mean(q for q, _ in kpp)
    assert sum(q < p - 1e-9 for (p, _), (q, _) in zip(plus, kpp)) == KMEANS_PP_LOWER[k]
    assert statistics.median(c for _, c in kpp) < 0.1 * statistics.median(c for _, c in plus)
