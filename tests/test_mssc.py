import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcboost import (
    ClusterData,
    MsscProblem,
    SolverParams,
    Termination,
    eval_phi,
    generate_blobs,
    load_points_csv,
    run_bdca,
    run_bdca_plus,
    run_dca,
)
from dcboost.core import ProblemDefinitionError
from dcboost.solvers import DfoState, dfo_escape
from dcboost.spanning import make_d1


def test_cluster_data_mean_and_immutability():
    data = ClusterData(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert np.array_equal(data.mean, [1.0, 0.0])
    with pytest.raises(ValueError):
        data.points[0, 0] = 9.0


@pytest.mark.parametrize("clone", ["pickle", "deepcopy"])
def test_cluster_data_copies_stay_read_only(clone):
    """A copy is rebuilt from its points, so both arrays stay read-only
    (and pool workers get read-only data) and the mean keeps its bits."""
    import copy
    import pickle

    data = generate_blobs(3, 20, seed=1)
    twin = pickle.loads(pickle.dumps(data)) if clone == "pickle" else copy.deepcopy(data)
    for name in ("points", "mean"):
        assert not getattr(twin, name).flags.writeable
        assert getattr(twin, name).tobytes() == getattr(data, name).tobytes()
    with pytest.raises(ValueError):
        twin.points[0, 0] = 9.0


def test_cluster_data_leaves_the_callers_array_writeable():
    points = np.zeros((2, 2))
    data = ClusterData(points)
    assert points.flags.writeable
    points[0, 0] = 9.0  # the instance holds its own copy
    assert data.points[0, 0] == 0.0 and np.array_equal(data.mean, [0.0, 0.0])


def test_cluster_data_compares_and_hashes_by_identity():
    a, b = ClusterData(np.zeros((2, 2))), ClusterData(np.zeros((2, 2)))
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_cluster_data_mean_is_not_an_argument():
    # The mean is always computed from the points, never taken as given.
    with pytest.raises(TypeError):
        ClusterData(np.zeros((2, 2)), mean=np.ones(2))


def test_cluster_data_validation():
    with pytest.raises(ValueError):
        ClusterData(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        ClusterData(np.array([[1.0, np.nan]]))


def test_generate_blobs_deterministic():
    a = generate_blobs(3, 100, seed=42)
    b = generate_blobs(3, 100, seed=42)
    assert a.n == 300
    assert np.array_equal(a.points, b.points)
    c = generate_blobs(3, 100, seed=43)
    assert not np.array_equal(a.points, c.points)


def test_generate_blobs_tight_spread_clusters_at_centers():
    data = generate_blobs(3, 20, spread=1e-12, seed=1)
    # Points come out grouped by blob; each group collapses onto its center.
    for b in range(3):
        block = data.points[b * 20 : (b + 1) * 20]
        assert np.ptp(block, axis=0).max() < 1e-9


def test_generate_blobs_validation():
    with pytest.raises(ValueError):
        generate_blobs(0, 10)
    with pytest.raises(ValueError):
        generate_blobs(2, 10, spread=0.0)
    with pytest.raises(ValueError):
        generate_blobs(2, 10, box=((0.0, 0.0), (0.0, 1.0)))
    for spread, hi in ((float("nan"), 1.0), (1.0, float("nan")), (1.0, float("inf"))):
        with pytest.raises(ValueError, match="must be finite"):
            generate_blobs(2, 10, spread=spread, box=((0.0, 0.0), (hi, 1.0)))


def test_load_csv_basic(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("0,0\n2,0\n")
    data = load_points_csv(f)
    assert data.n == 2
    assert np.array_equal(data.mean, [1.0, 0.0])


def test_load_csv_skips_comments(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("#header\n1.5,2.5\n")
    data = load_points_csv(f)
    assert data.n == 1
    assert np.array_equal(data.points, [[1.5, 2.5]])


def test_load_csv_reports_bad_line(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("1,abc\n")
    with pytest.raises(ValueError, match="line 1"):
        load_points_csv(f)


@pytest.mark.parametrize("line", ["nan,3", "1e400,3", "3,-inf"])
def test_load_csv_names_a_non_finite_line(tmp_path, line):
    f = tmp_path / "pts.csv"
    f.write_text(f"1,2\n{line}\n")
    with pytest.raises(ValueError, match=f"line 2: '{line}' is not finite"):
        load_points_csv(f)


def test_load_csv_rejects_wrong_arity(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("1,2\n3,4,5\n")
    with pytest.raises(ValueError, match="line 2"):
        load_points_csv(f)


def test_load_csv_rejects_empty(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("# nothing\n\n")
    with pytest.raises(ValueError, match="no data"):
        load_points_csv(f)


def test_constructor_validation(small_blobs):
    with pytest.raises(ValueError):
        MsscProblem(small_blobs, k=0)
    for k in (2.5, 2.0, True):  # 2.5 would run with k=2, True with k=1
        with pytest.raises(ValueError, match="k must be an integer"):
            MsscProblem(small_blobs, k)
    with pytest.raises(ValueError):
        MsscProblem(small_blobs, k=2, rho=0.0)
    # NaN passes the sign check, so finiteness is checked on its own.
    for rho in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rho must be finite"):
            MsscProblem(small_blobs, k=2, rho=rho)


def test_default_rho(small_blobs):
    prob = MsscProblem(small_blobs, k=5)
    assert prob.rho == pytest.approx(1.0 / (small_blobs.n * 5))


def test_subgrad_hand_example():
    # One data point at the origin; centroid 0 owns it, so only the other
    # block carries the data term.
    data = ClusterData(np.array([[0.0, 0.0]]))
    prob = MsscProblem(data, k=2, rho=0.5)
    x = np.array([0.0, 0.0, 5.0, 5.0])
    sub = prob.subgrad_h(x)
    assert np.allclose(sub[:2], [0.0, 0.0], atol=1e-15)
    assert np.allclose(sub[2:], 2.0 * np.array([5.0, 5.0]) + 0.5 * np.array([5.0, 5.0]))


def test_subgrad_tie_breaks_to_first_centroid():
    # The data point is exactly equidistant from both centroids; the
    # assignment must go to index 0, leaving block 0 with no data term.
    data = ClusterData(np.array([[1.0, 0.0]]))
    prob = MsscProblem(data, k=2, rho=0.25)
    x = np.array([0.0, 0.0, 2.0, 0.0])
    sub = prob.subgrad_h(x)
    assert np.allclose(sub[:2], 0.25 * np.array([0.0, 0.0]), atol=1e-15)
    assert np.allclose(sub[2:], 2.0 * np.array([1.0, 0.0]) + 0.25 * np.array([2.0, 0.0]))


def test_subgrad_k1_is_regularizer_only(small_blobs, rng):
    prob = MsscProblem(small_blobs, k=1, rho=0.3)
    x = rng.normal(0.0, 2.0, 2)
    assert np.allclose(prob.subgrad_h(x), 0.3 * x, atol=1e-14)
    # k=1 reduces the objective to the mean squared distance to the centroid.
    direct = np.mean(np.sum((small_blobs.points - x) ** 2, axis=1))
    assert eval_phi(prob, x) == pytest.approx(direct, rel=1e-12)


def test_solve_subproblem_inverts_gradient(mssc3, rng):
    c = rng.uniform(-5.0, 5.0, mssc3.dim)
    u = (2.0 + mssc3.rho) * c - 2.0 * np.tile(mssc3.data.mean, mssc3.k)
    assert np.allclose(mssc3.solve_subproblem(u), c, atol=1e-12)


def test_solve_subproblem_hand_value():
    data = ClusterData(np.array([[0.0, 0.0], [2.0, 0.0]]))  # mean (1, 0)
    prob = MsscProblem(data, k=1, rho=0.5)
    y = prob.solve_subproblem(np.array([0.5, 0.0]))
    assert np.allclose(y, [1.0, 0.0], atol=1e-15)


def test_solve_subproblem_residuals(mssc3, rng):
    for _ in range(100):
        u = rng.normal(0.0, 10.0, mssc3.dim)
        y = mssc3.solve_subproblem(u)
        res = np.linalg.norm(mssc3.grad_g(y) - u)
        assert res <= 1e-10 * (1.0 + np.linalg.norm(u))


def test_solve_subproblem_against_descent_oracle(mssc3, rng):
    # Independent check: minimize g(x) - <u, x> by plain gradient descent
    # and compare with the closed form.
    u = rng.normal(0.0, 3.0, mssc3.dim)
    x = np.zeros(mssc3.dim)
    step = 0.3 / (2.0 + mssc3.rho)
    for _ in range(2000):
        grad = mssc3.grad_g(x) - u
        if np.linalg.norm(grad) < 1e-12:
            break
        x = x - step * grad
    assert np.linalg.norm(x - mssc3.solve_subproblem(u)) < 1e-6


def test_phi_identity_against_direct_formula(mssc3, rng):
    for _ in range(100):
        x = mssc3.sample_start(rng)
        direct = mssc3.phi_direct(x)
        diff = abs(eval_phi(mssc3, x) - direct)
        assert diff <= 1e-9 * (1.0 + abs(direct))


def test_dir_deriv_matches_difference_quotient(mssc3, rng):
    for _ in range(50):
        x = mssc3.sample_start(rng)
        d = rng.normal(0.0, 1.0, mssc3.dim)
        t = 1e-7
        fd = (mssc3.eval_h(x + t * d) - mssc3.eval_h(x)) / t
        assert mssc3.dir_deriv_h(x, d) == pytest.approx(fd, abs=1e-4, rel=1e-4)


def test_dir_deriv_at_exact_tie():
    # One point equidistant from two centroids: the derivative is the max
    # over both active branches.
    data = ClusterData(np.array([[0.0, 0.0]]))
    prob = MsscProblem(data, k=2, rho=0.5)
    x = np.array([1.0, 0.0, -1.0, 0.0])

    def manual(d):
        d0, d1 = d[:2], d[2:]
        branch_drop0 = 2.0 * np.dot([-1.0, 0.0], d1)  # keeps centroid 1
        branch_drop1 = 2.0 * np.dot([1.0, 0.0], d0)  # keeps centroid 0
        return max(branch_drop0, branch_drop1) + 0.5 * np.dot(x, d)

    rng = np.random.default_rng(3)
    for _ in range(20):
        d = rng.normal(0.0, 1.0, 4)
        assert prob.dir_deriv_h(x, d) == pytest.approx(manual(d), abs=1e-12)


def test_dir_deriv_near_tie_with_large_row_sum():
    # The distances 1 and (1 + 2**-40)**2 differ, but beside the 1e8 of the
    # far centroid the branch values S - dist round equal.  Only centroid 0
    # is nearest, so h is smooth here and h'(x; d) = <grad_g(x), d>.
    prob = MsscProblem(ClusterData(np.zeros((1, 2))), k=3, rho=0.5)
    x = np.array([1.0, 0.0, 0.0, 1.0 + 2.0**-40, 1e4, 0.0])
    d = np.array([0.0, 0.0, 0.0, -1.0, 0.0, 0.0])
    expected = float(np.dot(prob.grad_g(x), d))
    assert expected == -2.5000000000022737
    assert prob.dir_deriv_h(x, d) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("rho", [1e-3, 1.0, 7.0])
def test_validation_passes_for_any_positive_rho(small_blobs, rho):
    from dcboost import validate_problem

    prob = MsscProblem(small_blobs, k=2, rho=rho)
    samples = [prob.sample_start(np.random.default_rng((8, i))) for i in range(30)]
    assert validate_problem(prob, samples).passed


def test_higher_dimensional_data():
    # The formulation is dimension-general even though the CSV surface is 2-D.
    rng = np.random.default_rng(17)
    pts = np.concatenate(
        [rng.normal(c, 0.3, size=(30, 3)) for c in ([0, 0, 0], [4, 4, 4])]
    )
    prob = MsscProblem(ClusterData(pts), k=2)
    assert prob.dim == 6
    x = prob.sample_start(rng)
    direct = prob.phi_direct(x)
    assert eval_phi(prob, x) == pytest.approx(direct, rel=1e-9)

    from dcboost import run_bdca_plus
    from dcboost.core import Termination

    res = run_bdca_plus(prob, x)
    assert res.termination is Termination.D_STATIONARY_CERTIFIED
    # Both true centroids recovered, in some order.
    finals = sorted(res.final_point.reshape(2, 3).tolist())
    assert np.allclose(finals[0], [0, 0, 0], atol=0.3)
    assert np.allclose(finals[1], [4, 4, 4], atol=0.3)


def test_dir_deriv_consistent_with_subgrad_at_smooth_points(mssc3, rng):
    # Where no tie is active, h is differentiable and h'(x; d) = <u, d>.
    for _ in range(20):
        x = mssc3.sample_start(rng)
        u = mssc3.subgrad_h(x)
        d = rng.normal(0.0, 1.0, mssc3.dim)
        assert mssc3.dir_deriv_h(x, d) == pytest.approx(float(np.dot(u, d)), rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# The per-point memo: the oracles at one point share one distance matrix.

# Six planar points with a duplicate; with k=3 the integer-valued centroids
# below land exactly on data points and on equidistant positions.
MEMO_DATA = ClusterData(
    np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0], [3.0, -2.0]])
)
MEMO_K = 3
MEMO_DIRECTION = np.array([1.0, -0.5, 0.0, 2.0, -1.0, 0.25])
POINT_ORACLES = ("eval_g", "eval_h", "subgrad_h", "dir_deriv_h", "phi_direct")


def _oracle_bits(problem, name, x):
    """Raw bytes of one oracle's result, so that -0.0 differs from 0.0."""
    if name == "dir_deriv_h":
        out = problem.dir_deriv_h(x, MEMO_DIRECTION)
    else:
        out = getattr(problem, name)(x)
    return np.asarray(out, dtype=np.float64).tobytes()


_coord = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0]),
    st.floats(-4.0, 4.0, allow_nan=False),
)
_point = st.lists(_coord, min_size=MEMO_K * 2, max_size=MEMO_K * 2)


def _variants(base):
    """The point itself, its integer-valued and integer-dtype copies, its
    sign-flipped zeros, and a copy whose first two centroids coincide."""
    x = np.array(base)
    rounded = np.round(x)
    tied = x.copy()
    tied[2:4] = tied[0:2]
    return [x, rounded, rounded.astype(np.int64), np.where(x == 0.0, -x, x), tied]


@settings(max_examples=150, deadline=None)
@given(
    bases=st.lists(_point, min_size=1, max_size=3),
    steps=st.lists(
        st.tuples(
            st.integers(0, 14), st.sampled_from(POINT_ORACLES), st.booleans()
        ),
        min_size=1,
        max_size=12,
    ),
)
@example(
    bases=[[0.0] * 6, [1.0] * 6],
    steps=[(0, "eval_g", True), (5, "eval_g", True), (0, "subgrad_h", False)],
)
def test_memo_matches_fresh_instance(bases, steps):
    """Any call sequence on one instance gives the bits of a fresh one.

    A step either passes a pool point itself or copies it into one reused
    buffer, which the caller mutates in place between calls; a memo keyed
    on the array's identity would return stale results there.
    """
    pool = [v for base in bases for v in _variants(base)]
    shared = MsscProblem(MEMO_DATA, MEMO_K)
    buf = np.empty(MEMO_K * 2)
    for index, name, in_buffer in steps:
        x = pool[index % len(pool)]
        if in_buffer:
            buf[:] = x
            x = buf
        expected = _oracle_bits(MsscProblem(MEMO_DATA, MEMO_K), name, x)
        assert _oracle_bits(shared, name, x) == expected, (name, x)


def test_integer_dtype_point_matches_float_point():
    # Cluster sums are accumulated in float even when the point is not.
    data = ClusterData(np.array([[0.5, 0.25], [1.5, 0.0], [3.0, 3.0], [0.75, 2.5]]))
    prob = MsscProblem(data, MEMO_K)
    x = np.array([0, 0, 3, 3, 1, 2])
    for name in POINT_ORACLES:
        assert _oracle_bits(prob, name, x) == _oracle_bits(prob, name, x.astype(float))


@pytest.fixture
def matrix_count(monkeypatch):
    """Counts the distance matrices MsscProblem builds."""
    count = {"matrices": 0}
    build = MsscProblem._sq_dists

    def counted(self, c):
        count["matrices"] += 1
        return build(self, c)

    monkeypatch.setattr(MsscProblem, "_sq_dists", counted)
    return count


def test_point_oracles_share_one_matrix(matrix_count, mssc3, rng):
    x = mssc3.sample_start(rng)
    for name in POINT_ORACLES:
        _oracle_bits(mssc3, name, x)
    assert matrix_count["matrices"] == 1
    # A different point builds a new one; grad_g needs none.
    mssc3.grad_g(x + 1.0)
    mssc3.eval_g(x + 1.0)
    assert matrix_count["matrices"] == 2


@pytest.mark.parametrize("solver", ["dca", "bdca_plus"])
def test_solver_runs_build_at_most_one_matrix_per_evaluation(
    matrix_count, monkeypatch, solver
):
    prob = MsscProblem(generate_blobs(3, 30, seed=7), k=4)
    evals = {"eval_g": 0}
    eval_g = MsscProblem.eval_g

    def counted_eval_g(self, x):
        evals["eval_g"] += 1
        return eval_g(self, x)

    monkeypatch.setattr(MsscProblem, "eval_g", counted_eval_g)
    x0 = prob.sample_start(np.random.default_rng(7))
    run = run_dca if solver == "dca" else run_bdca_plus
    run(prob, x0)
    assert 0 < matrix_count["matrices"] <= evals["eval_g"]


# (points, k, x0) -> {solver: (termination, final_phi)}, the outcomes these
# runs have always had.
DEGENERATE_CASES = {
    "n1_k1": (
        [[1.0, 2.0]], 1, [0.0, 0.0],
        {"dca": ("CriticalPoint", 0.0), "bdca": ("CriticalPoint", 0.0),
         "bdca_plus": ("DStationaryCertified", 0.0)},
    ),
    "n1_k2": (
        [[1.0, 2.0]], 2, [0.0, 0.0, 3.0, -1.0],
        {"dca": ("CriticalPoint", 0.0), "bdca": ("CriticalPoint", 0.0),
         "bdca_plus": ("DStationaryCertified", 0.0)},
    ),
    "duplicates_k2": (
        [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]], 2, [0.5, 0.5, 0.5, 0.5],
        {"dca": ("CriticalPoint", 0.5), "bdca": ("CriticalPoint", 0.5),
         "bdca_plus": ("DStationaryCertified", 0.0)},
    ),
    "all_equal_k3": (
        [[1.0, 1.0]] * 4, 3, [0.0, 0.0, 1.0, 1.0, 2.0, 2.0],
        {"dca": ("CriticalPoint", 0.0), "bdca": ("CriticalPoint", 0.0),
         "bdca_plus": ("DStationaryCertified", 0.0)},
    ),
    "n3_k2": (
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 2, [0.0, 0.0, 0.0, 0.0],
        {"dca": ("CriticalPoint", 0.3333333333333336),
         "bdca": ("CriticalPoint", 0.3333333333333335),
         "bdca_plus": ("DStationaryCertified", 0.3333333333333335)},
    ),
    "n3_k4": (
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 4, [0.0, 0.0, 5.0, 5.0, 0.0, 0.0, -2.0, 3.0],
        {"dca": ("CriticalPoint", 0.3333333333333357),
         "bdca": ("CriticalPoint", 0.3333333333333286),
         "bdca_plus": ("DStationaryCertified", 0.3333333333333286)},
    ),
}


def _solve(solver, problem, x0):
    if solver == "dca":
        return run_dca(problem, x0)
    if solver == "bdca":
        return run_bdca(problem, x0)
    return run_bdca_plus(problem, x0)


@pytest.mark.parametrize("case", sorted(DEGENERATE_CASES))
@pytest.mark.parametrize("solver", ["dca", "bdca", "bdca_plus"])
def test_degenerate_inputs_terminate_with_defined_outcome(case, solver):
    # Duplicate points, n = 1 and k > n leave empty clusters and tied
    # assignments; every run must still stop with its known outcome.
    points, k, x0, outcomes = DEGENERATE_CASES[case]
    prob = MsscProblem(ClusterData(np.array(points)), k)
    res = _solve(solver, prob, np.array(x0))
    termination, final_phi = outcomes[solver]
    assert res.termination is Termination(termination)
    assert res.final_phi == final_phi


@pytest.mark.xfail(
    strict=True,
    raises=(AssertionError, ProblemDefinitionError),
    reason=(
        "|a|^2 + |c|^2 - 2 a.c and the g - h objective cancel under a large "
        "shift: BDCA+ ends at phi 1.357817 instead of 1.356392 at +1e3 and "
        "raises 'descent guarantee violated' at +1e5"
    ),
)
def test_bdca_plus_final_phi_is_invariant_under_translation():
    """Shifting the data and the start together leaves the clustering
    problem unchanged, so BDCA+ must end at the same phi."""
    data = generate_blobs(4, 200, seed=0)
    k = 8
    x0 = MsscProblem(data, k).sample_start(np.random.default_rng((0, 0)))
    reference = run_bdca_plus(MsscProblem(data, k), x0).final_phi
    for shift in (0.0, 1e3, 1e5):
        problem = MsscProblem(ClusterData(data.points + shift), k)
        final_phi = run_bdca_plus(problem, x0 + shift).final_phi
        if shift == 0.0:
            assert final_phi == reference
        else:
            assert abs(final_phi - reference) <= 1e-9, shift


def test_shared_instance_across_threads_matches_sequential_runs():
    prob = MsscProblem(generate_blobs(3, 30, seed=7), k=4)
    starts = [prob.sample_start(np.random.default_rng((5, i))) for i in range(4)]
    jobs = [(solver, x0) for x0 in starts for solver in ("dca", "bdca_plus")]

    def fingerprint(res):
        return (res.final_point.tobytes(), res.final_phi, res.n_iterations, res.termination)

    sequential = [fingerprint(_solve(s, MsscProblem(prob.data, prob.k), x0)) for s, x0 in jobs]
    threaded = [None] * len(jobs)

    def worker(offset):
        for i in range(offset, len(jobs), 2):
            solver, x0 = jobs[i]
            threaded[i] = fingerprint(_solve(solver, prob, x0))

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert threaded == sequential


# ---------------------------------------------------------------------------
# The whole pass by centroid: same bits as the whole-matrix formulas.


def _whole_matrix_oracles(problem, x, direction):
    """The five point oracles as plain formulas on one full n-by-k matrix
    ``a @ c.T``."""
    a = problem.data.points
    n, k, s = problem.data.n, problem.k, problem.data.dim_space
    c = np.asarray(x, dtype=float).reshape(k, s)
    d = (
        np.einsum("ij,ij->i", a, a)[:, None]
        + np.einsum("ij,ij->i", c, c)[None, :]
        - 2.0 * (a @ c.T)
    )
    np.maximum(d, 0.0, out=d)
    labels = np.argmin(d, axis=1)
    row_min = np.take_along_axis(d, labels[:, None], 1)[:, 0]
    xa = np.asarray(x)
    reg = 0.5 * problem.rho * np.dot(xa, xa)
    counts = np.bincount(labels, minlength=k).astype(float)
    sums = np.empty_like(c)
    for t in range(s):
        sums[:, t] = np.bincount(labels, weights=a[:, t], minlength=k)
    sub = (
        2.0 * c
        - 2.0 * problem.data.mean
        - (2.0 / n) * (counts[:, None] * c - sums)
        + problem.rho * c
    )
    db = direction.reshape(k, s)
    per_branch = 2.0 * (np.einsum("ij,ij->i", c, db)[None, :] - a @ db.T)
    ties = d == row_min[:, None]  # the active branches: nearest centroids
    deriv = np.where(ties, per_branch.sum(axis=1)[:, None] - per_branch, -np.inf)
    return d, {
        "eval_g": float(d.sum() / n + reg),
        "eval_h": float((d.sum(axis=1) - row_min).sum() / n + reg),
        "subgrad_h": sub.ravel(),
        "dir_deriv_h": float(
            deriv.max(axis=1).sum() / n + problem.rho * np.dot(xa, direction)
        ),
        "phi_direct": float(row_min.mean()),
    }


def _bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 8, 16])
@pytest.mark.parametrize("rows", ["1", "2", "3", "B-1", "B", "B+1", "2B+3"])
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim_space=st.sampled_from([2, 3, 1]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    hit=st.booleans(),
    tie=st.booleans(),
    integer=st.booleans(),
    huge=st.sampled_from([None, 1e200, 1e306]),
)
def test_blocked_pass_matches_whole_matrix_formulas(
    k, rows, seed, dim_space, scale, hit, tie, integer, huge
):
    """The distance matrix and every oracle have the whole-matrix
    formulas' bits, at n = 1, 2, 3 and at n around B = 8192 / k rows
    (8192 distances, up to n = 16387 at k = 1), on exact hits, tied
    centroids, an integer-dtype point and a centroid at 1e200 (infinite
    distances) or 1e306 (products that overflow: NaN distances)."""
    b = 8192 // k
    sizes = {"B-1": b - 1, "B": b, "B+1": b + 1, "2B+3": 2 * b + 3}
    n = int(rows) if rows.isdigit() else sizes[rows]
    rng = np.random.default_rng(seed)
    points = np.round(rng.normal(0.0, scale, (n, dim_space)), 2)
    problem = MsscProblem(ClusterData(points), k)
    centroids = rng.normal(0.0, scale, (k, dim_space))
    if hit:  # a centroid on a data point: a zero distance
        centroids[-1] = points[rng.integers(n)]
    if tie and k > 1:  # two equal centroids: tied distances
        centroids[0] = centroids[-1]
    if huge is not None:
        centroids[rng.integers(k)] = huge
    x = centroids.ravel()
    if integer and huge is None:
        x = np.round(x).astype(np.int64)
    direction = rng.normal(0.0, 1.0, problem.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        dists, expected = _whole_matrix_oracles(problem, x, direction)
        # One element off by an ulp rarely survives into the oracles' sums.
        assert problem._at(x)[1].dists.tobytes() == dists.tobytes(), (n, k)
        for name, value in expected.items():
            if name == "dir_deriv_h":
                got = problem.dir_deriv_h(x, direction)
            else:
                got = getattr(problem, name)(x)
            assert _bits(got) == _bits(value), (name, n, k)


def test_point_oracles_allocate_one_matrix_per_point():
    """A new point allocates a few n-vectors, no n-by-k temporary: the
    whole pass writes into the thread's buffers."""
    import tracemalloc

    problem = MsscProblem(generate_blobs(16, 1250, seed=0), k=16)
    n = problem.data.n
    rng = np.random.default_rng(0)
    first, second = problem.sample_start(rng), problem.sample_start(rng)
    problem.eval_g(first)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        problem.eval_g(second)
        problem.eval_h(second)
        problem.subgrad_h(second)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    vector = n * 8
    assert peak - before < 8 * vector


# ---------------------------------------------------------------------------
# Probes: a point that moves one centroid of the last whole pass's point is
# evaluated from that point's distances, with the bits of a whole pass.


def _memo_bits(problem, x):
    """Bytes of everything the memo entry holds at ``x``."""
    return [np.asarray(v).tobytes() for v in problem._at(x)[1]]


_move = st.tuples(
    st.just("move"),
    st.lists(st.integers(0, 15), min_size=1, max_size=16, unique=True),
    st.sampled_from(["jitter", "copy", "hit", "zero", "huge"]),
)
_scan = st.tuples(
    st.just("scan"), st.sampled_from([0.5, 2.0**-7, 0.3]), st.integers(1, 2)
)


@pytest.mark.parametrize(
    "k, n",
    [(8, 1026), (16, 1537), (8, 200), (1, 300), (2, 500)],
    ids=["k8-n1026", "k16-n1537", "k8-n200", "k1", "k2"],
)
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    grid=st.booleans(),
    steps=st.lists(st.one_of(_move, _scan), min_size=1, max_size=4),
)
@example(seed=0, grid=False, steps=[("scan", 0.5, 2), ("move", [3], "copy")])
@example(seed=1, grid=True, steps=[("move", [0, 5], "copy"), ("scan", 0.3, 1)])
@example(seed=2, grid=False, steps=[("move", [1], "huge"), ("move", [2], "jitter")])
@example(seed=3, grid=False, steps=[("move", [15], "jitter"), ("scan", 0.5, 1)])
def test_column_updates_match_fresh_instance(k, n, seed, grid, steps):
    """Points that move 1..k centroids of the point before, including the
    D1 probes y +- mu*e_i in the order a direct-search scan makes them and
    the return to y after the scan, at several n, and at k = 1 and 2: the
    memo and every oracle have the bits of a fresh instance and, where
    finite, of the whole-matrix formulas.  A scan may be centred on a
    probe of the last whole pass (a move of one centroid, then a scan).

    ``grid`` puts data and centroids on integers, so that equidistant
    centroids tie exactly; "copy" moves centroids onto others (tied
    columns), "hit" onto data points (zero distances), "zero" flips the
    sign of zero coordinates (moved by their bytes only), and "huge"
    makes a column non-finite."""
    rng = np.random.default_rng(seed)
    dim_space = 2
    points = rng.normal(0.0, 3.0, (n, dim_space))
    points = np.round(points) if grid else np.round(points, 2)
    data = ClusterData(points)
    shared = MsscProblem(data, k)
    pss = make_d1(k * dim_space)
    y = rng.normal(0.0, 3.0, (k, dim_space))
    if grid:
        y = np.round(y)
    direction = rng.normal(0.0, 1.0, k * dim_space)

    def oracles(problem, x):
        return {
            name: _bits(
                problem.dir_deriv_h(x, direction)
                if name == "dir_deriv_h"
                else getattr(problem, name)(x)
            )
            for name in POINT_ORACLES
        }

    def check(x):
        with np.errstate(over="ignore", invalid="ignore"):
            got = _memo_bits(shared, x)  # the first call at x builds it
            fresh = MsscProblem(data, k)
            assert got == _memo_bits(fresh, x)
            values = oracles(shared, x)
            assert values == oracles(fresh, x)
        if not np.isfinite(shared._at(x)[1].total):
            return
        dists, expected = _whole_matrix_oracles(shared, x, direction)
        assert got[0] == dists.tobytes()
        assert values == {name: _bits(v) for name, v in expected.items()}

    check(y.ravel())
    for step in steps:
        if step[0] == "scan":
            _, mu, radii = step
            x = y.ravel().copy()
            for r in range(radii):
                for probe in x + (mu * 0.5**r) * pss.directions:
                    check(probe)
            check(x)
            continue
        _, rows, kind = step
        y = y.copy()
        for j in (r % k for r in rows):
            if kind == "jitter":
                y[j] += np.round(rng.normal(0.0, 1.0, dim_space), 0 if grid else 6)
            elif kind == "copy":
                y[j] = y[rng.integers(k)]
            elif kind == "hit":
                y[j] = points[rng.integers(n)]
            elif kind == "zero":
                y[j] = np.where(y[j] == 0.0, -y[j], 0.0)
            else:
                y[j] = 1e200
        check(y.ravel())


@pytest.mark.parametrize("n", [1, 2, 50])
@pytest.mark.parametrize("dim_space", [2, 3, 8, 16, 32])
def test_scan_bits_match_fresh_instance_in_any_dimension(dim_space, n):
    """A D1 scan around a whole-pass point, k=4, on blob data with 2 to 32
    coordinates: every probe's memo and oracles have a fresh instance's
    bits.  (A probe's two-row product ``c[[j, j]] @ a.T`` can round
    differently from the whole pass's k-row product once the data have
    many coordinates, so only 2-D data take the probe path.)"""
    n_blobs, per = {1: (1, 1), 2: (2, 1), 50: (5, 10)}[n]
    box = ((-10.0,) * dim_space, (10.0,) * dim_space)
    data = generate_blobs(n_blobs, per, box=box, seed=0)
    k = 4
    shared = MsscProblem(data, k)
    y = shared.sample_start(np.random.default_rng(1))
    shared.eval_g(y)
    for x in (*(y + 0.5 * make_d1(shared.dim).directions), y):
        assert _all_bits(shared, x) == _all_bits(MsscProblem(data, k), x)


def test_certification_scan_makes_no_whole_pass_per_probe(matrix_count, monkeypatch):
    """A D1 scan that certifies its point, at n = 1200 and at the size of
    the ``cluster`` workload (4x200, k=8), evaluates each probe from the
    centre's distances instead of building a new matrix."""
    params = SolverParams()
    cases = []
    for data in (generate_blobs(8, 150, spread=0.5, seed=3), generate_blobs(4, 200, seed=0)):
        problem = MsscProblem(data, k=8)
        x0 = problem.sample_start(np.random.default_rng(3))
        cases.append((data, run_bdca_plus(problem, x0).final_point))
    evals = {"eval_g": 0}
    eval_g = MsscProblem.eval_g

    def counted_eval_g(self, x):
        evals["eval_g"] += 1
        return eval_g(self, x)

    monkeypatch.setattr(MsscProblem, "eval_g", counted_eval_g)
    for data, y in cases:
        problem = MsscProblem(data, k=8)
        problem.eval_g(y)
        before = matrix_count["matrices"]
        evals["eval_g"] = 0
        pss = make_d1(problem.dim)
        outcome = dfo_escape(problem, y, pss, DfoState(mu=params.mu_bar), params)
        assert not outcome.escaped
        probes = len(outcome.event.mu_tried) * len(pss.directions)
        assert evals["eval_g"] == 1 + probes
        assert matrix_count["matrices"] == before, data.n


# ---------------------------------------------------------------------------
# The column path in place: each thread's buffers are updated, never copied.


def test_row_sum_plan_matches_numpy_reduce():
    """The partial row sums end in the bits of ``np.add.reduce(d, axis=1)``
    for every k up to 300 (numpy's pairwise order: 8 accumulators, a fixed
    tree, a sequential tail, halving above 128 terms): the whole pass's
    sums over the base's columns, and a probe's both when the path from a
    column adds the base's own value again and when that column is
    replaced.  Rows mix values of very different magnitudes, so any other
    order of the additions rounds differently."""
    rng = np.random.default_rng(0)
    values = np.array([0.0, 1e-300, 1.0, 1e300, np.inf])
    n = 24

    def rows(count, width):
        # Half the rows draw from ``values``, half are finite and spread
        # over 16 orders of magnitude.
        out = values[rng.integers(0, values.size, (count, width))]
        out *= rng.uniform(1.0, 2.0, (count, width))
        half = count // 2
        out[:half] = rng.uniform(0.0, 1.0, (half, width)) * 10.0 ** rng.integers(
            -8, 9, (half, width)
        )
        return out

    for k in range(1, 301):
        problem = MsscProblem(ClusterData(np.zeros((n, 1))), k)
        ws = problem._workspace()
        ws.cols[...] = rows(n, k).T
        base_sums, probe_sums = ws.row_sums
        problem._row_sums(ws)
        dists = ws.cols.T.copy()  # C order: numpy adds rows pairwise
        assert base_sums.tobytes() == np.add.reduce(dists, axis=1).tobytes(), k
        for j in sorted(rng.choice(k, size=min(k, 3), replace=False).tolist()):
            problem._add_row_sums(ws, j, ws.cols[j].copy())
            expected = np.add.reduce(dists, axis=1)
            assert probe_sums.tobytes() == expected.tobytes(), (k, j)
            col = rows(n, 1)[:, 0]
            problem._add_row_sums(ws, j, col)
            changed = dists.copy()
            changed[:, j] = col
            expected = np.add.reduce(changed, axis=1)
            assert probe_sums.tobytes() == expected.tobytes(), (k, j)


def _all_bits(problem, x):
    """Bytes of the memo entry and of every point oracle at ``x``."""
    direction = np.linspace(-1.0, 1.0, problem.dim)
    return _memo_bits(problem, x) + [
        _bits(
            problem.dir_deriv_h(x, direction)
            if name == "dir_deriv_h"
            else getattr(problem, name)(x)
        )
        for name in POINT_ORACLES
    ]


def _blob_means(data, n_blobs):
    """Centroids at the means of the blobs of ``generate_blobs``, so each
    cluster holds about n/k points, as at a solver's stall point."""
    return data.points.reshape(n_blobs, -1, data.dim_space).mean(axis=1).ravel()


def test_probe_updates_buffers_without_allocating_a_matrix(matrix_count):
    """After one warm-up probe, a D1 probe on n=20000, k=16 allocates a few
    n-vectors (its new columns, masks and the rows whose nearest centroid
    moved), not a copy of the n-by-k matrix."""
    import tracemalloc

    data = generate_blobs(16, 1250, seed=0)
    problem = MsscProblem(data, k=16)
    y = _blob_means(data, 16)
    steps = 0.5 * np.eye(problem.dim)
    eval_phi(problem, y)
    eval_phi(problem, y + steps[0])  # the warm-up builds the second-nearest distances
    before_matrices = matrix_count["matrices"]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        eval_phi(problem, y + steps[2])  # moves centroids 0 and 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix_count["matrices"] == before_matrices  # the column path
    vector = data.n * 8
    assert peak - before < 8 * vector


def test_threads_interleaving_probe_scans_match_fresh_instances(monkeypatch):
    """Three threads (more than this suite's cores) take turns, probe by
    probe, scanning D1 around their own points on one shared instance
    at n = 1200, with a short switch interval: each gets the bits of
    the same scan on a fresh instance, through column updates."""
    import sys

    data = generate_blobs(8, 150, seed=3)
    k = 8
    shared = MsscProblem(data, k)
    directions = make_d1(shared.dim).directions
    rng = np.random.default_rng(4)
    starts = [shared.sample_start(rng) for _ in range(3)]
    updates = []
    update = MsscProblem._update_columns

    def counted(self, *args):
        updates.append(threading.get_ident())
        return update(self, *args)

    def scan(problem, y, wait):
        out = []
        for mu in (2.0, 0.5):
            for probe in y + mu * directions:
                wait()
                out.append(_bits(eval_phi(problem, probe)) + _bits(problem.subgrad_h(probe)))
        return out

    expected = [scan(MsscProblem(data, k), y, lambda: None) for y in starts]
    monkeypatch.setattr(MsscProblem, "_update_columns", counted)
    barrier = threading.Barrier(len(starts))
    got: list = [None] * len(starts)

    def worker(t):
        try:
            got[t] = scan(shared, starts[t], lambda: barrier.wait(timeout=60))
        except BaseException as exc:  # reported below; never strands the others
            barrier.abort()
            got[t] = exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(len(starts))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == expected
    assert len(set(updates)) == len(starts)  # every thread took the column path
    assert len(updates) > len(directions)


@pytest.mark.parametrize("then", ["new point", "same point"])
@pytest.mark.parametrize("fault", ["_finish", "_add_row_sums"])
def test_failed_column_update_leaves_no_point_behind(monkeypatch, fault, then):
    """A probe that raises before (``_finish``) or after (``_add_row_sums``)
    it has written its column into the thread's matrix leaves no point to
    reuse and the base whole: the next call, at a new point or at the
    same one, the probes after it and the base itself give a fresh
    instance's bits."""
    data = generate_blobs(8, 150, seed=3)
    k = 8
    problem = MsscProblem(data, k)
    y = problem.sample_start(np.random.default_rng(5))
    step = 0.5 * np.eye(problem.dim)
    a = y + step[0]  # centroid 0 moved
    b = y + step[2]  # centroid 1 instead
    c = y + step[4]  # centroid 2 instead
    problem.eval_g(y)  # the whole pass: the base
    problem.eval_g(a)  # the first probe builds the base's row state
    original = getattr(MsscProblem, fault)
    calls = {"n": 0}

    def failing(*args):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("injected fault")
        return original(*args)

    monkeypatch.setattr(
        MsscProblem, fault, staticmethod(failing) if fault == "_finish" else failing
    )
    with pytest.raises(RuntimeError, match="injected fault"):
        problem.eval_g(b)
    for x in ([c] if then == "new point" else [b]) + [a, b, y, y + step[3]]:
        assert _all_bits(problem, x) == _all_bits(MsscProblem(data, k), x)


@pytest.mark.parametrize("clone", ["pickle", "deepcopy"])
def test_copies_drop_the_buffers_and_match_fresh_instances(clone):
    """Pickling and deep-copying an instance that has evaluated points
    leave its buffers behind, and the copy gives a fresh instance's bits,
    on the column path too."""
    import copy
    import pickle

    data = generate_blobs(8, 150, seed=3)
    k = 8
    problem = MsscProblem(data, k)
    y = problem.sample_start(np.random.default_rng(6))
    probes = y + 0.5 * make_d1(problem.dim).directions[:4]
    for x in (y, *probes):
        problem.eval_g(x)
    assert len(pickle.dumps(problem)) < data.n * k * 8  # no matrix in the state
    # Only the defining state: no derived copy of the points either.
    assert len(pickle.dumps(problem)) <= len(pickle.dumps(data)) + 512
    twin = pickle.loads(pickle.dumps(problem)) if clone == "pickle" else copy.deepcopy(problem)
    for x in (probes[3], *probes, y):
        expected = _all_bits(MsscProblem(data, k), x)
        assert _all_bits(twin, x) == expected
        assert _all_bits(problem, x) == expected
