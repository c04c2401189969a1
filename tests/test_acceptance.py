"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL verdict line (run with ``pytest tests/test_acceptance.py -s``
to see them).  Tolerances are pinned here and nowhere else."""

import numpy as np
import pytest

from dcboost import (
    Example2dProblem,
    MsscProblem,
    SolverParams,
    eval_phi,
    generate_blobs,
    make_d1,
    make_d2,
    make_d3,
    validate_problem,
)
from dcboost.bench import run_pairwise_mssc, run_table1
from dcboost.cli import main as cli_main
from dcboost.core import Termination
from dcboost.solvers import check_d_stationarity, run_bdca, run_bdca_plus, run_dca
from dcboost.spanning import check_positive_spanning

TABLE1_STARTS = 10_000
TABLE1_SEED = 0
PAIRED_STARTS = 50
PAIRED_SEED = 0

SOLVERS = {"DCA": run_dca, "BDCA": run_bdca, "BDCA+": run_bdca_plus}


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    print(f"CRITERION {number} [{name}]: {state}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def table1_report():
    return run_table1(TABLE1_STARTS, TABLE1_SEED)


@pytest.fixture(scope="module")
def paired_data():
    # 4 well-separated blobs, 800 points total.
    return generate_blobs(4, 200, spread=1.0, seed=0)


@pytest.fixture(scope="module")
def paired_reports(paired_data):
    reports = {}
    for k in (4, 8):
        reports[k] = run_pairwise_mssc(
            MsscProblem(paired_data, k), n_starts=PAIRED_STARTS, seed=PAIRED_SEED
        )
    return reports


@pytest.fixture(scope="module")
def invariant_runs():
    """1000 seeded random starts over both problems, all three solvers."""
    runs = []
    example = Example2dProblem()
    for i in range(700):
        rng = np.random.default_rng((100, i))
        x0 = rng.uniform(-1.5, 1.5, 2)
        for algo, solver in SOLVERS.items():
            runs.append((example, solver(example, x0)))
    data = generate_blobs(3, 40, spread=0.6, seed=11)
    mssc = MsscProblem(data, k=3)
    for i in range(300):
        rng = np.random.default_rng((200, i))
        x0 = mssc.sample_start(rng)
        for algo, solver in SOLVERS.items():
            runs.append((mssc, solver(mssc, x0)))
    assert len(runs) == 3000  # 1000 starts x 3 solvers
    return runs


def test_criterion_1_basin_counts(table1_report):
    counts = table1_report.basin_counts
    dca_ok = all(
        2300 <= counts["DCA"][label] <= 2700
        for label in ("(-1,-1)", "(-1,0)", "(0,-1)", "(0,0)")
    )
    bdca_ok = counts["BDCA"]["(-1,-1)"] >= 9900 and counts["BDCA"]["(0,0)"] == 0
    plus_ok = counts["BDCA+"]["(-1,-1)"] == TABLE1_STARTS and all(
        counts["BDCA+"][label] == 0
        for label in ("(-1,0)", "(0,-1)", "(0,0)", "unclassified")
    )
    _verdict(
        1,
        "basin counts at 10k starts",
        dca_ok and bdca_ok and plus_ok,
        f"DCA={counts['DCA']} BDCA={counts['BDCA']} BDCA+={counts['BDCA+']}",
    )


def test_criterion_2_single_trajectories():
    problem = Example2dProblem()  # d|t|/dt = +1 at the kink
    x0 = np.array([0.0, 1.0])
    plus = run_bdca_plus(problem, x0)
    plain = run_dca(problem, x0)
    ok = (
        np.linalg.norm(plus.final_point - [-1.0, -1.0]) <= 1e-4
        and plus.termination is Termination.D_STATIONARY_CERTIFIED
        and np.linalg.norm(plain.final_point - [0.0, 0.0]) <= 1e-4
    )
    _verdict(
        2,
        "trajectories from (0,1)",
        ok,
        f"BDCA+ -> {plus.final_point} [{plus.termination.value}], DCA -> {plain.final_point}",
    )


def test_criterion_3_per_iteration_descent(invariant_runs):
    worst = -np.inf
    for problem, res in invariant_runs:
        for rec in res.iterations:
            dd = float(np.dot(rec.d_k, rec.d_k))
            excess = rec.phi_y - (rec.phi_x - problem.rho * dd) - 1e-9 * (
                1.0 + abs(rec.phi_x)
            )
            worst = max(worst, excess)
    _verdict(3, "per-iteration descent", worst <= 0.0, f"worst excess {worst:.3e}")


def test_criterion_4_armijo_postcondition(invariant_runs):
    checked = 0
    worst = -np.inf
    params = SolverParams()
    for problem, res in invariant_runs:
        for rec in res.iterations:
            if rec.lambda_k <= 0.0:
                continue
            checked += 1
            dd = float(np.dot(rec.d_k, rec.d_k))
            lhs = eval_phi(problem, rec.y_k + rec.lambda_k * rec.d_k)
            worst = max(
                worst, lhs - (rec.phi_y - params.alpha * rec.lambda_k**2 * dd)
            )
    _verdict(
        4,
        "line-search postcondition",
        checked > 0 and worst <= 0.0,
        f"{checked} accepted steps, worst excess {worst:.3e}",
    )


def test_criterion_5_certification(table1_report, paired_reports):
    checked = 0
    ok = True
    pss2 = make_d1(2)
    problem2 = Example2dProblem()
    for s in table1_report.runs["BDCA+"]:
        if s.termination is not Termination.D_STATIONARY_CERTIFIED:
            continue
        checked += 1
        if not check_d_stationarity(problem2, s.final_point, pss2, tol=1e-4).is_d_stationary:
            ok = False

    res = run_bdca_plus(problem2, np.array([0.0, 1.0]))
    checked += 1
    ok &= check_d_stationarity(problem2, res.final_point, pss2, tol=1e-4).is_d_stationary

    data = paired_reports[4].runs["BDCA+"][0]  # touch to ensure fixture ran
    del data
    for k, report in paired_reports.items():
        problem = MsscProblem(
            generate_blobs(4, 200, spread=1.0, seed=0), k=k
        )
        pss = make_d1(problem.dim)
        for s in report.runs["BDCA+"]:
            if s.termination is not Termination.D_STATIONARY_CERTIFIED:
                continue
            checked += 1
            if not check_d_stationarity(problem, s.final_point, pss, tol=1e-4).is_d_stationary:
                ok = False
    _verdict(5, "certified points pass the analytic test", ok, f"{checked} runs checked")


def test_criterion_6_spanning_sets():
    worst_dot = 0.0
    worst_norm = 0.0
    for m in range(1, 201):
        dirs = make_d3(m).directions
        gram = dirs @ dirs.T
        worst_norm = max(worst_norm, float(np.max(np.abs(np.diag(gram) - 1.0))))
        off = gram[~np.eye(m + 1, dtype=bool)]
        worst_dot = max(worst_dot, float(np.max(np.abs(off + 1.0 / m))))
    relations_ok = worst_dot <= 1e-12 and worst_norm <= 1e-12

    spanning_ok = all(
        check_positive_spanning(make(m), 10_000, rng_seed=123)
        for make in (make_d1, make_d2, make_d3)
        for m in range(1, 21)
    )
    _verdict(
        6,
        "spanning-set properties",
        relations_ok and spanning_ok,
        f"max |v.v'+1/m|={worst_dot:.2e}, max |norm-1|={worst_norm:.2e}",
    )


def test_criterion_7_paired_clustering(paired_reports):
    details = []
    ok = True
    for k, report in paired_reports.items():
        gaps = np.array([p.gap for p in report.pairs])
        never_worse = bool(np.all(gaps >= -1e-12))
        strict = float(np.mean(gaps > 1e-6))
        ok &= never_worse and strict >= 0.5
        details.append(f"k={k}: min_gap={gaps.min():.2e}, strict_frac={strict:.2f}")
    _verdict(7, "paired clustering improvement", ok, "; ".join(details))


def test_criterion_8_oracle_cross_checks():
    rng = np.random.default_rng(321)
    data = generate_blobs(4, 200, spread=1.0, seed=0)
    mssc = MsscProblem(data, k=4)
    example = Example2dProblem()

    identity_ok = True
    for _ in range(100):
        x = mssc.sample_start(rng)
        direct = mssc.phi_direct(x)
        if abs(eval_phi(mssc, x) - direct) > 1e-9 * (1.0 + abs(direct)):
            identity_ok = False

    residual_ok = True
    for problem in (example, mssc):
        for _ in range(100):
            u = rng.normal(0.0, 5.0, problem.dim)
            y = problem.solve_subproblem(u)
            res = float(np.linalg.norm(problem.grad_g(y) - u))
            if res > 1e-8 * (1.0 + float(np.linalg.norm(u))):
                residual_ok = False

    grad_details = []
    grad_ok = True
    for problem, sampler in (
        (example, lambda r: r.uniform(-2.0, 2.0, 2)),
        (mssc, lambda r: mssc.sample_start(r)),
    ):
        samples = [sampler(rng) for _ in range(100)]
        check = validate_problem(problem, samples).checks[0]  # "gradient"
        grad_ok &= check.passed and check.max_violation <= 1e-5
        grad_details.append(f"{type(problem).__name__}: {check.max_violation:.2e}")

    _verdict(
        8,
        "oracle cross-checks",
        identity_ok and residual_ok and grad_ok,
        "; ".join(grad_details),
    )


def test_criterion_9_byte_determinism(tmp_path):
    def files_match(cmd_args, names):
        outs = []
        for tag, extra in (("r1", []), ("r2", []), ("w2", ["--workers", "2"])):
            paths = {n: tmp_path / f"{tag}_{n}" for n in names}
            argv = cmd_args + extra
            for n in names:
                argv = argv + [f"--{n.split('.')[1]}", str(paths[n])]
            assert cli_main(argv) == 0
            outs.append(paths)
        return all(
            outs[0][n].read_bytes() == outs[1][n].read_bytes() == outs[2][n].read_bytes()
            for n in names
        )

    table1_ok = files_match(
        ["table1", "--starts", "300", "--seed", "5"], ["t.csv", "t.json"]
    )
    cluster_ok = files_match(
        ["cluster", "--blobs", "3x40", "--k", "2", "--starts", "8", "--seed", "5"],
        ["c.csv", "c.json"],
    )
    _verdict(
        9,
        "byte-identical outputs across reruns and workers",
        table1_ok and cluster_ok,
    )
