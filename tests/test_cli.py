import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from dcboost.bench import run_pairwise_mssc, run_table1
from dcboost.cli import _fmt, _params_from_args, _write_json, build_parser, main
from dcboost.core import SolverParams
from dcboost.problems.mssc import MsscProblem, generate_blobs, load_points_csv


def run_cli(*argv):
    return main(list(argv))


# ------------------------------------------------------------------ solve


def test_solve_bdca_plus_reaches_minimum(tmp_path):
    out = tmp_path / "run.json"
    code = run_cli(
        "solve", "--problem", "example2d", "--algo", "bdca+", "--x0=0,1",
        "--json", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["algorithm"] == "bdca+"
    assert payload["termination"] == "DStationaryCertified"
    assert np.allclose(payload["final_point"], [-1.0, -1.0], atol=1e-4)
    assert payload["wall_time_s"] is None
    assert payload["dfo_invocations"] >= 1
    assert len(payload["iterations"]) >= 1


def test_solve_dca_fixed_point_single_iteration(tmp_path):
    out = tmp_path / "run.json"
    code = run_cli(
        "solve", "--problem", "example2d", "--algo", "dca", "--x0=-1,-1",
        "--json", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["iterations"]) == 1
    assert payload["final_point"] == [-1.0, -1.0]
    assert payload["termination"] == "CriticalPoint"


def test_solve_survives_line_search_trials_that_overflow(tmp_path, caplog):
    # Every trial y + lam*d of the first line search (lam from 1e308 down
    # by 1/4, 201 trials) is finite while its objective overflows.  They
    # fail the decrease test; none blames the problem.
    out = tmp_path / "run.json"
    with caplog.at_level("WARNING"):
        code = run_cli(
            "solve", "--problem", "example2d", "--algo", "bdca", "--x0=0.3,0.7",
            "--lambda-bar1", "1e308", "--json", str(out),
        )
    assert code == 0
    payload = json.loads(out.read_text())
    assert np.allclose(payload["final_point"], [0.0, 0.0], rtol=0.0, atol=2e-9)
    assert len(payload["iterations"]) == 18
    assert "line search rejected 201 trials with a non-finite objective" in caplog.messages


@pytest.mark.parametrize(
    "flags, logged",
    [
        (["--algo", "bdca", "--lambda-bar1", "1e300"],
         "line search rejected 201 trials with a non-finite objective"),
        (["--algo", "bdca+", "--mu-bar", "1e300"],
         "direct search rejected 7824 probes with a non-finite objective"),
    ],
    ids=["line-search", "direct-search"],
)
def test_clustering_solve_survives_points_that_overflow(tmp_path, caplog, flags, logged):
    # The trials and probes far out overflow the distance matrices; numpy
    # warns of none of it (this suite makes warnings errors), and each
    # fails its test only.
    with caplog.at_level("WARNING"):
        code = run_cli(
            "solve", "--problem", "mssc", "--blobs", "3x30", "--k", "4", *flags,
            "--json", str(tmp_path / "run.json"),
        )
    assert code == 0
    assert logged in caplog.messages


def test_solve_timings_flag(tmp_path):
    out = tmp_path / "run.json"
    run_cli(
        "solve", "--problem", "example2d", "--algo", "dca", "--x0=0,1",
        "--json", str(out), "--timings",
    )
    payload = json.loads(out.read_text())
    assert isinstance(payload["wall_time_s"], float)


def test_solve_mssc_structure(tmp_path):
    out = tmp_path / "run.json"
    code = run_cli(
        "solve", "--problem", "mssc", "--blobs", "3x30", "--k", "4",
        "--algo", "bdca+", "--seed", "7", "--json", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["final_point"]) == 8  # k * 2 coordinates
    assert payload["termination"] == "DStationaryCertified"


def test_solve_trace_csv(tmp_path):
    out = tmp_path / "run.json"
    trace = tmp_path / "trace.csv"
    run_cli(
        "solve", "--problem", "example2d", "--algo", "bdca+", "--x0=0,1",
        "--json", str(out), "--trace-csv", str(trace),
    )
    lines = trace.read_text().splitlines()
    assert lines[0] == "k,phi_x,phi_y,norm_d,lambda,mu_event"
    payload = json.loads(out.read_text())
    assert len(lines) == 1 + len(payload["iterations"])
    assert any(line.endswith("certified") for line in lines[1:])


def test_solve_json_records_round_trip(tmp_path):
    out = tmp_path / "run.json"
    run_cli(
        "solve", "--problem", "example2d", "--algo", "bdca+", "--x0=0,1",
        "--json", str(out),
    )
    payload = json.loads(out.read_text())
    records = payload["iterations"]
    assert all(
        np.array_equal(r["d_k"], np.subtract(r["y_k"], r["x_k"])) for r in records
    )
    assert any(r["dfo_event"] is not None for r in records)


def test_solve_oracle_failure_exits_one(tmp_path, capsys, monkeypatch):
    from dcboost.core import ProblemDefinitionError
    from dcboost.problems.example2d import Example2dProblem

    def boom(*args, **kwargs):
        raise ProblemDefinitionError("synthetic oracle failure")

    monkeypatch.setattr(Example2dProblem, "eval_g", boom)
    code = run_cli("solve", "--problem", "example2d", "--algo", "dca", "--x0=0,1")
    assert code == 1
    assert "synthetic oracle failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "x0, message",
    [("1,2,3", "length"), ("1,b", "could not parse '1,b'")],
    ids=["dimension", "unparsable"],
)
def test_solve_bad_x0_is_usage_error(capsys, x0, message):
    code = run_cli("solve", "--problem", "example2d", "--algo", "dca", f"--x0={x0}")
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--problem", "example2d", "--x0=1e200,0"],
        ["--problem", "mssc", "--blobs", "3x30", "--k", "2", "--x0=1e200,0,0,0"],
    ],
    ids=["example2d", "mssc"],
)
def test_solve_start_where_the_objective_overflows_is_usage_error(capsys, argv):
    # The start is finite but g and h overflow there: the caller's input,
    # not a fault of the problem (which would exit 1).  Warnings are errors
    # in this suite, so numpy's overflow warning would fail the run too.
    code = run_cli("solve", "--algo", "dca", *argv)
    assert code == 2
    assert "the objective overflows at the start x0=array([1.e+200," in capsys.readouterr().err


def test_solve_unknown_flag_is_usage_error(capsys):
    code = run_cli("solve", "--problem", "example2d", "--algo", "dca", "--nope")
    assert code == 2


def test_solve_mssc_requires_data(capsys):
    code = run_cli("solve", "--problem", "mssc", "--algo", "dca", "--k", "2")
    assert code == 2
    assert "needs --data or --blobs" in capsys.readouterr().err
    code = run_cli(
        "solve", "--problem", "mssc", "--algo", "dca", "--k", "2",
        "--data", "pts.csv", "--blobs", "2x10",
    )
    assert code == 2
    assert "not both" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag", [["--data", "pts.csv"], ["--blobs", "3x3"], ["--k", "4"], ["--rho", "0.5"]],
    ids=["data", "blobs", "k", "rho"],
)
@pytest.mark.parametrize(
    "argv", [["solve", "--algo", "dca", "--x0=0,1"], ["check", "--point=-1,-1"]], ids=["solve", "check"]
)
def test_example2d_rejects_the_clustering_flags(capsys, argv, flag):
    # Unchecked, the flag is ignored and the run exits 0.
    code = run_cli(argv[0], "--problem", "example2d", *argv[1:], *flag)
    assert code == 2
    assert f"--problem example2d takes no {flag[0]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--problem", "example2d", "--algo", "dca", "--x0=0.3,0.7", "--eps1", "nan"], "eps1"),
        (["--problem", "example2d", "--algo", "bdca+", "--x0=0.3,0.7", "--eps2", "nan"], "eps2"),
        (["--problem", "mssc", "--algo", "dca", "--blobs", "2x10", "--k", "2", "--rho", "nan"], "rho"),
    ],
)
def test_solve_non_finite_parameter_is_usage_error(capsys, argv, name):
    # NaN passes every sign check.  Unchecked, --eps1 nan stops DCA at a
    # point that is not critical, and the other two are blamed on the
    # oracles (exit 1).
    code = run_cli("solve", *argv)
    assert code == 2
    assert f"{name} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--mu-bar", "1e308"]], ids=["overflow"])
def test_solve_first_escape_radius_outside_the_open_range_is_usage_error(capsys, flags):
    # Unchecked, radius inf is blamed on the oracles (exit 1).
    code = run_cli("solve", "--problem", "example2d", "--algo", "bdca+", "--x0=0,1", *flags)
    assert code == 2
    assert "mu_bar/beta2 + eps2" in capsys.readouterr().err


# ------------------------------------------------------------------ check


def test_check_minimum_exits_zero(tmp_path):
    out = tmp_path / "check.json"
    code = run_cli(
        "check", "--problem", "example2d", "--point=-1,-1", "--json", str(out)
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["is_d_stationary"] is True
    assert report["min_deriv"] >= -1e-6


def test_check_origin_exits_three(tmp_path):
    out = tmp_path / "check.json"
    code = run_cli(
        "check", "--problem", "example2d", "--point=0,0", "--json", str(out)
    )
    assert code == 3
    report = json.loads(out.read_text())
    assert report["min_deriv"] == pytest.approx(-2.0, abs=1e-12)


def test_check_saddle_exits_three():
    assert run_cli("check", "--problem", "example2d", "--point=0,-1") == 3


def test_check_a_nan_derivative_exits_three(tmp_path, monkeypatch):
    from dcboost import cli
    from test_solvers import NanAlongMinusE1

    monkeypatch.setattr(cli, "Example2dProblem", NanAlongMinusE1)
    out = tmp_path / "check.json"
    code = run_cli("check", "--problem", "example2d", "--point=0,-1", "--json", str(out))
    assert code == 3
    payload = json.loads(out.read_text())
    assert payload["is_d_stationary"] is False and np.isnan(payload["min_deriv"])


def test_check_nan_tol_is_usage_error(capsys):
    # Unchecked, a NaN tolerance rejects the global minimum (exit 3).
    code = run_cli("check", "--problem", "example2d", "--point=-1,-1", "--tol", "nan")
    assert code == 2
    assert "finite" in capsys.readouterr().err


def test_check_dimension_mismatch_exits_two(capsys):
    code = run_cli("check", "--problem", "example2d", "--point=1,2,3")
    assert code == 2


# ----------------------------------------------------------------- output


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--problem", "example2d", "--algo", "bdca+", "--x0=0,1"],
        ["check", "--problem", "example2d", "--point=0,-1"],
    ],
    ids=["solve", "check"],
)
def test_stdout_holds_the_json_file_bytes(tmp_path, capsysbinary, argv):
    out = tmp_path / "report.json"
    code = run_cli(*argv, "--json", str(out))
    assert capsysbinary.readouterr().out == b""
    assert run_cli(*argv) == code
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_write_json_encodes_into_the_file(tmp_path):
    # A report is encoded as it is written: no copy of its text is held.
    payload = run_table1(300, seed=0).to_dict()
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _write_json(str(out), payload)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(payload, indent=2) + "\n"
    assert peak < len(text) / 4


# ----------------------------------------------------------------- table1


@pytest.fixture
def pools(monkeypatch):
    """The standard library pools that runs start, by worker count; the
    pool itself is not replaced."""
    import concurrent.futures

    import dcboost.bench

    started = []

    class Recorded(dcboost.bench.ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            assert type(self._pool) is concurrent.futures.ProcessPoolExecutor
            started.append(max_workers)

    monkeypatch.setattr(dcboost.bench, "ProcessPoolExecutor", Recorded)
    return started


def test_table1_outputs_and_determinism(tmp_path, pools):
    csv1, json1 = tmp_path / "a.csv", tmp_path / "a.json"
    csv2, json2 = tmp_path / "b.csv", tmp_path / "b.json"
    csv3, json3 = tmp_path / "c.csv", tmp_path / "c.json"
    base = ["table1", "--starts", "40", "--seed", "2"]
    assert run_cli(*base, "--csv", str(csv1), "--json", str(json1)) == 0
    assert run_cli(*base, "--csv", str(csv2), "--json", str(json2)) == 0
    assert (
        run_cli(*base, "--csv", str(csv3), "--json", str(json3), "--workers", "2") == 0
    )
    assert pools == [2]
    assert csv1.read_bytes() == csv2.read_bytes() == csv3.read_bytes()
    assert json1.read_bytes() == json2.read_bytes() == json3.read_bytes()

    lines = csv1.read_text().splitlines()
    assert lines[0] == "algorithm,(-1,-1),(-1,0),(0,-1),(0,0),unclassified"
    assert len(lines) == 4
    counts = lines[1].split(",")
    assert counts[0] == "DCA"
    assert sum(int(c) for c in counts[1:]) == 40

    report = json.loads(json1.read_text())
    assert sum(report["basin_counts"]["BDCA+"].values()) == 40


def test_table1_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("table1", "--starts", "40", "--seed", "2", "--csv", str(a), "--json", str(tmp_path / "a.json"))
    run_cli("table1", "--starts", "40", "--seed", "3", "--csv", str(b), "--json", str(tmp_path / "b.json"))
    ja = json.loads((tmp_path / "a.json").read_text())
    jb = json.loads((tmp_path / "b.json").read_text())
    assert ja["runs"]["DCA"][0]["x0"] != jb["runs"]["DCA"][0]["x0"]


# ---------------------------------------------------------------- cluster


def test_cluster_outputs_and_determinism(tmp_path, pools):
    args = [
        "cluster", "--blobs", "3x30", "--k", "2", "--starts", "6", "--seed", "1",
    ]
    csv1, json1 = tmp_path / "a.csv", tmp_path / "a.json"
    csv2, json2 = tmp_path / "b.csv", tmp_path / "b.json"
    csv3, json3 = tmp_path / "c.csv", tmp_path / "c.json"
    assert run_cli(*args, "--csv", str(csv1), "--json", str(json1)) == 0
    assert run_cli(*args, "--csv", str(csv2), "--json", str(json2)) == 0
    assert run_cli(*args, "--csv", str(csv3), "--json", str(json3), "--workers", "2") == 0
    assert pools == [2]
    assert csv1.read_bytes() == csv2.read_bytes() == csv3.read_bytes()
    assert json1.read_bytes() == json2.read_bytes() == json3.read_bytes()

    lines = csv1.read_text().splitlines()
    assert (
        lines[0]
        == "instance,phi_dca,phi_bdcaplus,gap,iters_dca,iters_bdcaplus,dfo_invocations,time_ratio"
    )
    assert len(lines) == 7
    # Timings are redacted by default.
    assert all(line.endswith("nan") for line in lines[1:])
    gaps = [float(line.split(",")[3]) for line in lines[1:]]
    assert gaps == sorted(gaps, reverse=True)

    stats = json.loads(json1.read_text())["paired_stats"]
    assert 0.0 <= stats["win_fraction"] <= 1.0
    assert stats["max_gap"] >= stats["mean_gap"] - 1e-12


def test_cluster_k1_gaps_are_zero(tmp_path):
    csv_out, json_out = tmp_path / "p.csv", tmp_path / "s.json"
    code = run_cli(
        "cluster", "--blobs", "3x30", "--k", "1", "--starts", "5", "--seed", "4",
        "--csv", str(csv_out), "--json", str(json_out),
    )
    assert code == 0
    for line in csv_out.read_text().splitlines()[1:]:
        assert abs(float(line.split(",")[3])) <= 1e-12


def test_cluster_with_alternative_basis(tmp_path):
    code = run_cli(
        "cluster", "--blobs", "3x20", "--k", "2", "--starts", "3", "--seed", "1",
        "--pss", "d3",
        "--csv", str(tmp_path / "p.csv"), "--json", str(tmp_path / "s.json"),
    )
    assert code == 0
    summary = json.loads((tmp_path / "s.json").read_text())
    assert summary["pss"] == "d3"


def test_cluster_from_csv_file(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("# tiny\n0,0\n0.2,0\n5,5\n5.2,5\n")
    code = run_cli(
        "cluster", "--data", str(pts), "--k", "2", "--starts", "3", "--seed", "0",
        "--csv", str(tmp_path / "p.csv"), "--json", str(tmp_path / "s.json"),
    )
    assert code == 0


def test_cluster_bad_csv_exit_code(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("1,nope\n")
    code = run_cli(
        "cluster", "--data", str(pts), "--k", "2",
        "--csv", str(tmp_path / "p.csv"), "--json", str(tmp_path / "s.json"),
    )
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_cluster_passes_rho_to_the_problem(tmp_path):
    """``cluster --rho R`` writes the rows of the paired runner on the
    problem built with that ``rho``, which differ from the default's."""
    out = tmp_path / "p.csv"
    assert run_cli(
        "cluster", "--blobs", "3x20", "--k", "3", "--rho", "0.5", "--starts", "3",
        "--seed", "2", "--csv", str(out), "--json", str(tmp_path / "s.json"),
    ) == 0
    data = generate_blobs(3, 20)
    rows = {}
    for rho in (0.5, None):
        report = run_pairwise_mssc(MsscProblem(data, 3, rho), n_starts=3, seed=2)
        rows[rho] = [",".join(_fmt(v) for v in p.to_dict().values()) for p in report.pairs]
    assert out.read_text().splitlines()[1:] == rows[0.5]
    assert rows[0.5] != rows[None]


def test_cluster_without_k_names_it_before_reading_data(tmp_path, capsys):
    code = run_cli(
        "cluster", "--data", str(tmp_path / "missing.csv"),
        "--csv", str(tmp_path / "p.csv"), "--json", str(tmp_path / "s.json"),
    )
    assert code == 2
    assert "--k" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--starts", "2"],
        ["cluster", "--blobs", "2x10", "--k", "2", "--starts", "1"],
    ],
    ids=["table1", "cluster"],
)
def test_non_positive_workers_is_usage_error(tmp_path, capsys, argv, workers):
    csv_out, json_out = tmp_path / "out.csv", tmp_path / "out.json"
    code = run_cli(
        *argv, "--workers", workers, "--csv", str(csv_out), "--json", str(json_out)
    )
    assert code == 2
    assert "workers must be an integer >= 1" in capsys.readouterr().err
    assert not csv_out.exists() and not json_out.exists()


# -------------------------------------------------------------------- gen


def test_gen_round_trips_through_loader(tmp_path):
    out = tmp_path / "blobs.csv"
    assert run_cli("gen", "--blobs", "4x25", "--seed", "6", "--out", str(out)) == 0
    data = load_points_csv(out)
    assert data.n == 100
    out2 = tmp_path / "blobs2.csv"
    run_cli("gen", "--blobs", "4x25", "--seed", "6", "--out", str(out2))
    assert out.read_bytes() == out2.read_bytes()


def test_gen_bad_spec(capsys):
    assert run_cli("gen", "--blobs", "4by25", "--out", "x.csv") == 2


@pytest.mark.parametrize("box", ["-1,-1,-1,1,1,1", "-1,1", "-1,-1,1"], ids=["3d", "1d", "odd"])
def test_gen_rejects_a_box_that_is_not_2d(tmp_path, capsys, box):
    """``gen`` writes ``x,y`` lines, so a box of other than 2 dimensions
    is a usage error, reported before the output file is opened."""
    out = tmp_path / "blobs.csv"
    assert run_cli("gen", "--blobs", "2x3", f"--box={box}", "--out", str(out)) == 2
    assert "--box" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------ seed plumbing


def test_solve_without_x0_uses_table1_start_zero(tmp_path):
    solve, report = tmp_path / "run.json", tmp_path / "report.json"
    assert run_cli("solve", "--problem", "example2d", "--algo", "dca", "--seed", "5",
                   "--json", str(solve)) == 0
    assert run_cli("table1", "--starts", "1", "--seed", "5", "--csv",
                   str(tmp_path / "counts.csv"), "--json", str(report)) == 0
    x0 = json.loads(report.read_text())["runs"]["DCA"][0]["x0"]
    assert json.loads(solve.read_text())["x0"] == x0


def test_solve_without_x0_uses_cluster_start_zero(tmp_path):
    out = tmp_path / "run.json"
    assert run_cli("solve", "--problem", "mssc", "--algo", "dca", "--blobs", "2x20",
                   "--k", "3", "--seed", "5", "--json", str(out)) == 0
    report = run_pairwise_mssc(MsscProblem(generate_blobs(2, 20), 3), n_starts=1, seed=5)
    assert json.loads(out.read_text())["x0"] == report.runs["DCA"][0].x0.tolist()


def test_seed_defaults_to_zero_and_ignores_the_environment(tmp_path, monkeypatch):
    """``--seed`` is the one way to set the seed; an old ``DCBOOST_SEED``
    in the environment changes nothing."""
    monkeypatch.setenv("DCBOOST_SEED", "7")
    outs = [tmp_path / "default.json", tmp_path / "zero.json"]
    for out, extra in zip(outs, ([], ["--seed", "0"])):
        assert run_cli("solve", "--problem", "example2d", "--algo", "dca", *extra,
                       "--json", str(out)) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--problem", "example2d", "--algo", "dca", "--x0=0,1", "--seed", "-1"],
        ["table1", "--starts", "1", "--seed", "-1"],
        ["cluster", "--blobs", "2x10", "--k", "2", "--seed", "-1"],
        ["gen", "--blobs", "2x10", "--out", "blobs.csv", "--seed", "-1"],
        ["solve", "--problem", "mssc", "--algo", "dca", "--blobs", "2x10", "--k", "2",
         "--blob-seed", "-1"],
        ["solve", "--problem", "example2d", "--algo", "dca", "--x0=0,1", "--seed", "abc"],
        ["solve", "--problem", "mssc", "--algo", "dca", "--blobs", "2x10", "--k", "2",
         "--blob-seed", "abc"],
    ],
    ids=["solve", "table1", "cluster", "gen", "blob-seed", "seed-abc", "blob-seed-abc"],
)
def test_negative_seed_is_usage_error_naming_the_flag(tmp_path, monkeypatch, capsys, argv):
    # numpy rejects a negative seed only when it draws, and solve --x0 never draws.
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 2
    message = f"argument {argv[-2]}: expected an integer >= 0, got {argv[-1]!r}"
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["-v", "solve", "--problem", "example2d", "--algo", "dca"],
        ["check", "--problem", "example2d", "--point=-1,-1", "--fd-step", "1e-7"],
    ],
    ids=["verbose", "fd-step"],
)
def test_removed_options_are_usage_errors(argv, capsys):
    assert run_cli(*argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--eta", "--tau"])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--problem", "example2d", "--algo", "bdca+", "--x0=0,1", "--json"],
        ["table1", "--starts", "2", "--csv", "counts.csv", "--json"],
        ["cluster", "--blobs", "2x10", "--k", "2", "--starts", "1", "--csv", "pairs.csv", "--json"],
    ],
    ids=["solve", "table1", "cluster"],
)
def test_direct_search_growth_flags_are_usage_errors(tmp_path, capsys, argv, flag):
    # The direct search re-enters at mu/beta2 + eps2, with no flag of its own.
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
    assert run_cli(*argv, str(tmp_path / "out.json"), flag, "1e-3") == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------- solver parameters


@pytest.mark.parametrize(
    "field", dataclasses.fields(SolverParams), ids=lambda f: f.name
)
def test_param_flag_reaches_solver_params(field):
    default = getattr(SolverParams(), field.name)
    value = type(default)(default * 1.5)
    flag = "--" + field.name.replace("_", "-")
    args = build_parser().parse_args(["table1", "--starts", "1", flag, str(value)])
    got = getattr(_params_from_args(args), field.name)
    assert got == value and type(got) is type(default)


# ------------------------------------------------------------ python -m


def test_module_runs_from_a_source_checkout(tmp_path):
    """``python -m dcboost`` works with only ``src`` on the path, as the
    README's commands do before any install, and exits with ``main``'s
    code through ``cli.entry``, the installed console script."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "dcboost", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )

    proc = run("--help")
    assert proc.returncode == 0, proc.stderr
    assert "solve" in proc.stdout
    proc = run("solve", "--problem", "example2d", "--algo", "dca", "--seed", "-1")
    assert proc.returncode == 2
    assert "argument --seed" in proc.stderr


def test_a_run_without_a_pool_loads_no_multiprocessing(tmp_path):
    """A fresh interpreter that solves and clusters with one worker never
    imports the process pool; ``--workers 2`` above starts the real one."""
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    code = f"""
import sys
sys.path.insert(0, {str(src)!r})
from dcboost.cli import main
assert main(["solve", "--problem", "example2d", "--algo", "bdca+", "--x0=0,1"]) == 0
assert main(["cluster", "--blobs", "3x30", "--k", "2", "--starts", "2", "--workers", "1"]) == 0
print(sorted({{"multiprocessing", "concurrent.futures.process"}} & set(sys.modules)))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
