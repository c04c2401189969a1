"""Tests of the benchmark harness itself (not part of the tier-1 suite).

Run from the repository root with ``python3 -m pytest benchmarks/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402

SMALL_RUNS = [
    ["table1", "--starts", "20", "--workers", "1", "--seed", "3"],
    ["cluster", "--blobs", "2x30", "--k", "2", "--starts", "2", "--workers", "1",
     "--seed", "3", "--blob-seed", "3"],
]


def _outputs(args: list[str], outdir: str) -> list[str]:
    if args[0] == "table1":
        return args + ["--csv", os.path.join(outdir, "c.csv"), "--json", os.path.join(outdir, "r.json")]
    return args + ["--csv", os.path.join(outdir, "p.csv"), "--json", os.path.join(outdir, "s.json")]


PROFILE_SCRIPT = textwrap.dedent(
    """
    import cProfile, json, pstats, sys
    sys.path[:0] = [sys.argv[1], sys.argv[2]]
    import dcboost.cli
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    profile = cProfile.Profile()
    profile.enable()
    rc = dcboost.cli.main(sys.argv[4:])
    profile.disable()
    tracer.save(sys.argv[3])
    stats = pstats.Stats(profile).stats
    ncalls = {}
    for name, fns in tracer.originals.items():
        keys = {(f.__code__.co_filename, f.__code__.co_firstlineno, f.__code__.co_name) for f in fns}
        ncalls[name] = sum(stats[k][1] for k in keys if k in stats)
    print(json.dumps({"rc": rc, "ncalls": ncalls, "skipped": tracer.skipped}))
    """
)


@pytest.mark.parametrize("args", SMALL_RUNS, ids=["table1", "cluster"])
def test_traced_counts_equal_cprofile_ncalls(tmp_path, args):
    spans_path = str(tmp_path / "spans.npz")
    out = subprocess.run(
        [sys.executable, "-c", PROFILE_SCRIPT, BENCH, os.path.join(ROOT, "src"), spans_path]
        + _outputs(args, str(tmp_path)),
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["rc"] == 0
    assert report["skipped"] == []
    traced = tracing.counts(tracing.load(spans_path))
    for name, ncalls in report["ncalls"].items():
        assert traced.get(name, 0) == ncalls, name
    # The run exercised the layers it is meant to.
    assert traced["solvers.dfo"] > 0 and traced["core.eval_phi"] > 0


def _launch_traced(tmp_path, args, tag):
    outdir = tmp_path / tag
    outdir.mkdir()
    probe = tmp_path / f"{tag}.jsonl"
    spans = tmp_path / f"{tag}.npz"
    subprocess.run(
        [sys.executable, run.LAUNCH, "--t0", repr(time.monotonic()), "--probe", str(probe),
         "--trace", str(spans), "--"] + _outputs(args, str(outdir)),
        check=True, cwd=ROOT,
    )
    with open(probe, encoding="utf-8") as fh:
        totals = json.loads(fh.readline())["totals"]
    return totals, tracing.analyse(tracing.load(str(spans)))


@pytest.mark.parametrize("args", SMALL_RUNS, ids=["table1", "cluster"])
def test_deterministic_counters_repeat_and_probe_matches_trace(tmp_path, args):
    totals_a, a = _launch_traced(tmp_path, args, "a")
    totals_b, b = _launch_traced(tmp_path, args, "b")
    for key in ("calls", "counters", "line_search", "dfo"):
        assert a[key] == b[key], key
    assert a["driver"]["runs"] == b["driver"]["runs"]
    assert totals_a == totals_b
    # The probe's trajectory-implied work equals what the tracer saw.
    assert totals_a["evals"] == sum(a["counters"].values())
    assert totals_a["dc_steps"] == a["calls"]["solvers.dc_step"]
    assert totals_a["runs"] == a["driver"]["runs"]


class ShiftedDataWorkload(run.Workload):
    """Plain DCA on blobs translated by +1e5, a known failure of the
    clustering split's rounding (it raises ProblemDefinitionError)."""

    def __init__(self, data_path: str):
        super().__init__("shifted", workers=1, attempted=1, family="mssc")
        self.data_path = data_path

    def cli_args(self, seed, outdir, workers):
        return ["solve", "--problem", "mssc", "--algo", "dca", "--data", self.data_path,
                "--k", "8", "--seed", str(seed), "--json", os.path.join(outdir, "solve.json")]


def test_failure_is_counted_not_fatal(tmp_path):
    from dcboost.problems.mssc import generate_blobs

    points = generate_blobs(4, 200, seed=0).points + 1e5
    data = tmp_path / "shifted.csv"
    data.write_text("".join(f"{float(x)!r},{float(y)!r}\n" for x, y in points))
    bench = run.Run(ShiftedDataWorkload(str(data)), seed=0, tmp=str(tmp_path))
    rep = bench.cli_run()
    assert rep["rc"] == 1
    assert (bench.attempted, bench.failed) == (1, 1)
    assert "descent guarantee violated" in bench.errors[0]


def test_benchmark_json_lists_the_metrics_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "table1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_run_work_counts_line_search_and_scan_evaluations():
    from types import SimpleNamespace as NS

    import launch

    dfo_accept = NS(mu_tried=[20.0, 10.0], mu_accepted=10.0, direction_index=2)
    dfo_cert = NS(mu_tried=[1.0], mu_accepted=None, direction_index=None)
    result = NS(iterations=[
        NS(dfo_event=None, lambda_trial=0.0, lambda_k=0.0),  # DC step only
        NS(dfo_event=None, lambda_trial=8.0, lambda_k=0.5),  # 8, 2, 0.5
        NS(dfo_event=dfo_accept, lambda_trial=0.0, lambda_k=0.0),
        NS(dfo_event=dfo_cert, lambda_trial=0.0, lambda_k=0.0),
    ])
    evals, steps = launch.run_work(result, n_dirs=4, beta1=0.25)
    # start + 4 DC steps + 3 line-search trials + (1 + 4 + 3) + (1 + 4)
    assert (evals, steps) == (1 + 4 + 3 + 8 + 5, 4)
