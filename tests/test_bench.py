from collections import Counter

import numpy as np
import pytest

import dcboost.bench

from dcboost import Example2dProblem, MsscProblem, MultiStartReport, classify_limit_point
from dcboost.bench import UNCLASSIFIED, make_pss, run_algorithm, run_pairwise_mssc, run_table1
from dcboost.cli import main
from dcboost.core import Termination
from dcboost.problems.example2d import CRITICAL_POINTS

REFS = [(label, np.asarray(p)) for label, p in CRITICAL_POINTS]


def test_classify_nearest_reference():
    x = np.array([-0.9997, -1.0002])
    assert classify_limit_point(x, REFS, tol=1e-3) == "(-1,-1)"


def test_classify_unmatched_point():
    assert classify_limit_point(np.array([-0.5, -0.5]), REFS, tol=1e-3) == UNCLASSIFIED


def test_classify_rejects_close_references():
    refs = REFS + [("dup", np.array([-1.0, -1.0004]))]
    with pytest.raises(ValueError, match="too close"):
        classify_limit_point(np.array([5.0, 5.0]), refs, tol=1e-3)


def test_classify_rejects_bad_tol():
    with pytest.raises(ValueError):
        classify_limit_point(np.zeros(2), REFS, tol=0.0)
    # NaN passes the sign check and would leave every point unclassified.
    with pytest.raises(ValueError, match="tol must be positive"):
        classify_limit_point(np.array([-1.0, -1.0]), REFS, tol=float("nan"))


def test_spec_validation(small_blobs):
    with pytest.raises(ValueError):
        run_pairwise_mssc(MsscProblem(small_blobs, 2), n_starts=0, seed=0)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be an integer >= 1"):
            run_pairwise_mssc(MsscProblem(small_blobs, 2), n_starts=1, seed=0, workers=workers)
        with pytest.raises(ValueError, match="workers must be an integer >= 1"):
            run_table1(1, seed=0, workers=workers)


def test_table1_small_counts_and_structure():
    rep = run_table1(200, seed=3)
    labels = [label for label, _ in CRITICAL_POINTS] + [UNCLASSIFIED]
    for algo in ("DCA", "BDCA", "BDCA+"):
        assert sum(rep.basin_counts[algo].values()) == 200
        assert list(rep.basin_counts[algo].keys()) == labels
        assert len(rep.runs[algo]) == 200
    assert rep.basin_counts["BDCA+"]["(-1,-1)"] == 200
    assert rep.basin_counts["BDCA+"][UNCLASSIFIED] == 0
    # Stalls resolve the limit point to far better than the 1e-3 label tol.
    for algo in ("BDCA", "BDCA+"):
        for s in rep.runs[algo]:
            if s.label == "(-1,-1)":
                assert np.linalg.norm(s.final_point - [-1.0, -1.0]) <= 1e-4
    assert all(
        s.termination is Termination.D_STATIONARY_CERTIFIED for s in rep.runs["BDCA+"]
    )
    assert all(
        s.termination is not Termination.D_STATIONARY_CERTIFIED
        for algo in ("DCA", "BDCA")
        for s in rep.runs[algo]
    )


def test_table1_single_start():
    rep = run_table1(1, seed=0)
    for algo in ("DCA", "BDCA", "BDCA+"):
        assert sum(rep.basin_counts[algo].values()) == 1


def test_table1_deterministic_and_worker_independent():
    a = run_table1(60, seed=9)
    b = run_table1(60, seed=9)
    c = run_table1(60, seed=9, workers=2)
    for algo in ("DCA", "BDCA", "BDCA+"):
        assert a.basin_counts[algo] == b.basin_counts[algo] == c.basin_counts[algo]
        for sa, sb, sc in zip(a.runs[algo], b.runs[algo], c.runs[algo]):
            assert np.array_equal(sa.final_point, sb.final_point)
            assert np.array_equal(sa.final_point, sc.final_point)
            assert sa.final_phi == sb.final_phi == sc.final_phi
            assert sa.n_iterations == sb.n_iterations == sc.n_iterations


def test_table1_different_seeds_differ():
    a = run_table1(60, seed=1)
    b = run_table1(60, seed=2)
    assert any(
        not np.array_equal(sa.x0, sb.x0) for sa, sb in zip(a.runs["DCA"], b.runs["DCA"])
    )


def test_pairwise_k1_has_zero_gaps(small_blobs):
    rep = run_pairwise_mssc(MsscProblem(small_blobs, 1), n_starts=6, seed=5)
    assert len(rep.pairs) == 6
    for p in rep.pairs:
        assert abs(p.gap) <= 1e-12
    # The unique minimizer with one centroid is the data mean.
    for s in rep.runs["BDCA+"]:
        assert np.allclose(s.final_point, small_blobs.mean, atol=1e-4)
    assert rep.paired_stats.win_fraction == 0.0


def test_pairwise_runs_any_problem_from_the_table1_starts():
    # The paired runner knows nothing of clustering: on the 2-D problem it
    # runs DCA and BDCA+ from the same draw_start substreams as table1.
    pairs = run_pairwise_mssc(Example2dProblem(), n_starts=5, seed=3)
    basins = run_table1(5, seed=3)
    for algo in ("DCA", "BDCA+"):
        assert [s.index for s in pairs.runs[algo]] == list(range(5))
        for sp, sb in zip(pairs.runs[algo], basins.runs[algo]):
            assert np.array_equal(sp.x0, sb.x0)
            assert np.array_equal(sp.final_point, sb.final_point)
            assert sp.final_phi == sb.final_phi
    assert len(pairs.pairs) == 5


def test_pairwise_rows_sorted_by_gap(small_blobs):
    rep = run_pairwise_mssc(MsscProblem(small_blobs, 3), n_starts=8, seed=2)
    gaps = [p.gap for p in rep.pairs]
    assert gaps == sorted(gaps, reverse=True)
    assert all(p.gap >= -1e-12 for p in rep.pairs)
    assert all(
        s.termination is Termination.D_STATIONARY_CERTIFIED for s in rep.runs["BDCA+"]
    )


def test_pairwise_deterministic_and_worker_independent(small_blobs):
    problem, args = MsscProblem(small_blobs, 2), dict(n_starts=6, seed=4)
    a = run_pairwise_mssc(problem, **args)
    b = run_pairwise_mssc(problem, **args)
    c = run_pairwise_mssc(problem, **args, workers=2)
    for ra, rb, rc in zip(a.pairs, b.pairs, c.pairs):
        assert (ra.instance, ra.phi_dca, ra.phi_bdca_plus) == (
            rb.instance,
            rb.phi_dca,
            rb.phi_bdca_plus,
        )
        assert (ra.instance, ra.phi_dca, ra.phi_bdca_plus) == (
            rc.instance,
            rc.phi_dca,
            rc.phi_bdca_plus,
        )


def test_pool_has_no_more_processes_than_chunks(monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(dcboost.bench, "ProcessPoolExecutor", SerialPool)
    report = run_table1(2, seed=0, workers=64)
    assert sizes == [2]
    assert report.to_dict() == run_table1(2, seed=0).to_dict()


def test_report_round_trip(small_blobs):
    rep = run_pairwise_mssc(MsscProblem(small_blobs, 2), n_starts=3, seed=1)
    for include in (False, True):
        back = MultiStartReport.from_dict(rep.to_dict(include_timings=include))
        assert [p.gap for p in back.pairs] == [p.gap for p in rep.pairs]
        assert back.paired_stats.win_fraction == rep.paired_stats.win_fraction
        for algo in rep.runs:
            for sa, sb in zip(rep.runs[algo], back.runs[algo]):
                assert np.array_equal(sa.final_point, sb.final_point)
                assert (sb.wall_time is None) == (not include)


def test_runners_called_by_module_name_once_per_start(monkeypatch, small_blobs, tmp_path):
    # Instrumentation wraps the runners by rebinding these module globals,
    # so the harness must look them up at call time and pass arguments
    # positionally; the wrappers below accept nothing else.
    calls = Counter()
    for name in ("run_dca", "run_bdca", "run_bdca_plus"):

        def counted(*args, _run=getattr(dcboost.bench, name), _name=name):
            calls[_name] += 1
            return _run(*args)

        monkeypatch.setattr(dcboost.bench, name, counted)
    run_table1(3, 0)
    assert calls == {"run_dca": 3, "run_bdca": 3, "run_bdca_plus": 3}
    calls.clear()
    run_pairwise_mssc(MsscProblem(small_blobs, 2), n_starts=2, seed=0)
    assert calls == {"run_dca": 2, "run_bdca_plus": 2}
    # The CLI's solve runs through the same globals, once.
    for algo, name in (("dca", "run_dca"), ("bdca", "run_bdca"), ("bdca+", "run_bdca_plus")):
        calls.clear()
        argv = ["solve", "--problem", "example2d", "--algo", algo, "--x0=0,1"]
        assert main(argv + ["--json", str(tmp_path / "run.json")]) == 0
        assert calls == {name: 1}


def test_run_algorithm_rejects_unknown_name(example2d, params):
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_algorithm("bdca", example2d, np.zeros(2), make_pss("d1", 2), params)
