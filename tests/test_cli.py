import dataclasses
import json

import numpy as np
import pytest

from dcboost.bench import MultiStartReport
from dcboost.cli import _params_from_args, build_parser, main
from dcboost.core import SolverParams
from dcboost.problems.mssc import load_points_csv
from dcboost.solvers import StationarityReport


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
    from dcboost.core import IterationRecord

    out = tmp_path / "run.json"
    run_cli(
        "solve", "--problem", "example2d", "--algo", "bdca+", "--x0=0,1",
        "--json", str(out),
    )
    payload = json.loads(out.read_text())
    records = [IterationRecord.from_dict(r) for r in payload["iterations"]]
    assert all(np.array_equal(r.d_k, r.y_k - r.x_k) for r in records)
    assert any(r.dfo_event is not None for r in records)


def test_solve_oracle_failure_exits_one(tmp_path, capsys, monkeypatch):
    from dcboost import cli
    from dcboost.core import ProblemDefinitionError

    def boom(*args, **kwargs):
        raise ProblemDefinitionError("synthetic oracle failure")

    monkeypatch.setattr(cli, "run_dca", boom)
    code = run_cli("solve", "--problem", "example2d", "--algo", "dca", "--x0=0,1")
    assert code == 1
    assert "synthetic oracle failure" in capsys.readouterr().err


def test_solve_bad_x0_dimension_is_usage_error(tmp_path, capsys):
    code = run_cli("solve", "--problem", "example2d", "--algo", "dca", "--x0=1,2,3")
    assert code == 2
    assert "length" in capsys.readouterr().err


def test_solve_unknown_flag_is_usage_error(capsys):
    code = run_cli("solve", "--problem", "example2d", "--algo", "dca", "--nope")
    assert code == 2


def test_solve_mssc_requires_data(capsys):
    code = run_cli("solve", "--problem", "mssc", "--algo", "dca", "--k", "2")
    assert code == 2


# ------------------------------------------------------------------ check


def test_check_minimum_exits_zero(tmp_path):
    out = tmp_path / "check.json"
    code = run_cli(
        "check", "--problem", "example2d", "--point=-1,-1", "--json", str(out)
    )
    assert code == 0
    report = StationarityReport.from_dict(json.loads(out.read_text()))
    assert report.is_d_stationary
    assert report.min_deriv >= -1e-6


def test_check_origin_exits_three(tmp_path):
    out = tmp_path / "check.json"
    code = run_cli(
        "check", "--problem", "example2d", "--point=0,0", "--json", str(out)
    )
    assert code == 3
    report = StationarityReport.from_dict(json.loads(out.read_text()))
    assert report.min_deriv == pytest.approx(-2.0, abs=1e-12)


def test_check_saddle_exits_three():
    assert run_cli("check", "--problem", "example2d", "--point=0,-1") == 3


def test_check_dimension_mismatch_exits_two(capsys):
    code = run_cli("check", "--problem", "example2d", "--point=1,2,3")
    assert code == 2


# ----------------------------------------------------------------- table1


def test_table1_outputs_and_determinism(tmp_path):
    csv1, json1 = tmp_path / "a.csv", tmp_path / "a.json"
    csv2, json2 = tmp_path / "b.csv", tmp_path / "b.json"
    csv3, json3 = tmp_path / "c.csv", tmp_path / "c.json"
    base = ["table1", "--starts", "40", "--seed", "2"]
    assert run_cli(*base, "--csv", str(csv1), "--json", str(json1)) == 0
    assert run_cli(*base, "--csv", str(csv2), "--json", str(json2)) == 0
    assert (
        run_cli(*base, "--csv", str(csv3), "--json", str(json3), "--workers", "2") == 0
    )
    assert csv1.read_bytes() == csv2.read_bytes() == csv3.read_bytes()
    assert json1.read_bytes() == json2.read_bytes() == json3.read_bytes()

    lines = csv1.read_text().splitlines()
    assert lines[0] == "algorithm,(-1,-1),(-1,0),(0,-1),(0,0),unclassified"
    assert len(lines) == 4
    counts = lines[1].split(",")
    assert counts[0] == "DCA"
    assert sum(int(c) for c in counts[1:]) == 40

    report = MultiStartReport.from_dict(json.loads(json1.read_text()))
    assert sum(report.basin_counts["BDCA+"].values()) == 40


def test_table1_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("table1", "--starts", "40", "--seed", "2", "--csv", str(a), "--json", str(tmp_path / "a.json"))
    run_cli("table1", "--starts", "40", "--seed", "3", "--csv", str(b), "--json", str(tmp_path / "b.json"))
    ja = json.loads((tmp_path / "a.json").read_text())
    jb = json.loads((tmp_path / "b.json").read_text())
    assert ja["runs"]["DCA"][0]["x0"] != jb["runs"]["DCA"][0]["x0"]


# ---------------------------------------------------------------- cluster


def test_cluster_outputs_and_determinism(tmp_path):
    args = [
        "cluster", "--blobs", "3x30", "--k", "2", "--starts", "6", "--seed", "1",
    ]
    csv1, json1 = tmp_path / "a.csv", tmp_path / "a.json"
    csv2, json2 = tmp_path / "b.csv", tmp_path / "b.json"
    csv3, json3 = tmp_path / "c.csv", tmp_path / "c.json"
    assert run_cli(*args, "--csv", str(csv1), "--json", str(json1)) == 0
    assert run_cli(*args, "--csv", str(csv2), "--json", str(json2)) == 0
    assert run_cli(*args, "--csv", str(csv3), "--json", str(json3), "--workers", "2") == 0
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

    summary = json.loads(json1.read_text())
    from dcboost.bench import PairedStats

    stats = PairedStats.from_dict(summary["paired_stats"])
    assert 0.0 <= stats.win_fraction <= 1.0
    assert stats.max_gap >= stats.mean_gap - 1e-12


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


# ------------------------------------------------------------ seed plumbing


def test_env_seed_used_when_flag_absent(tmp_path, monkeypatch):
    out_env = tmp_path / "env.json"
    out_flag = tmp_path / "flag.json"
    monkeypatch.setenv("DCBOOST_SEED", "7")
    run_cli("solve", "--problem", "example2d", "--algo", "dca", "--json", str(out_env))
    monkeypatch.delenv("DCBOOST_SEED")
    run_cli(
        "solve", "--problem", "example2d", "--algo", "dca", "--seed", "7",
        "--json", str(out_flag),
    )
    assert json.loads(out_env.read_text())["x0"] == json.loads(out_flag.read_text())["x0"]


def test_flag_wins_over_env(tmp_path, monkeypatch):
    out = tmp_path / "o.json"
    monkeypatch.setenv("DCBOOST_SEED", "7")
    run_cli(
        "solve", "--problem", "example2d", "--algo", "dca", "--seed", "9",
        "--json", str(out),
    )
    monkeypatch.delenv("DCBOOST_SEED")
    out9 = tmp_path / "o9.json"
    run_cli(
        "solve", "--problem", "example2d", "--algo", "dca", "--seed", "9",
        "--json", str(out9),
    )
    assert json.loads(out.read_text())["x0"] == json.loads(out9.read_text())["x0"]


def test_bad_env_seed_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("DCBOOST_SEED", "abc")
    assert run_cli("solve", "--problem", "example2d", "--algo", "dca") == 2


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
