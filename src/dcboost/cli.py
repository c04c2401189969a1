"""Command-line interface.

Subcommands: ``solve`` (single run), ``check`` (d-stationarity test),
``table1`` (basin-count experiment), ``cluster`` (paired clustering
comparison), ``gen`` (synthetic CSV data).  Results go to JSON and CSV
files whose bytes are reproducible: ``--seed`` defaults to 0, floats
are serialized with shortest round-trip precision, and measured wall
times are written only when ``--timings`` is passed, since they are the
one thing that cannot be reproduced byte-for-byte.

Exit codes: 0 success, 1 internal/oracle failure, 2 usage error,
3 negative verdict from ``check``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from contextlib import nullcontext
from typing import Optional

import numpy as np

from dcboost.bench import ALGORITHMS, PairRow, draw_start, run_algorithm, run_pairwise_mssc, run_table1
from dcboost.core import ProblemDefinitionError, SolverParams, norm
from dcboost.problems.example2d import Example2dProblem
from dcboost.problems.mssc import ClusterData, MsscProblem, generate_blobs, load_points_csv
from dcboost.solvers import check_d_stationarity
from dcboost.spanning import PSS_KINDS, make_pss

_EXIT_OK = 0
_EXIT_FAILURE = 1
_EXIT_USAGE = 2
_EXIT_NOT_STATIONARY = 3


def _fmt(value) -> str:
    """CSV cell formatting: shortest round-trip floats, 'nan' for missing."""
    if value is None:
        return "nan"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: str, rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Optional[str], payload) -> None:
    """Encode ``payload`` straight into ``path`` (stdout when None), so no
    copy of the report's text is held; a failed write can leave the file
    truncated."""
    if path is None:
        sink = nullcontext(sys.stdout)
    else:
        sink = open(path, "w", encoding="utf-8", newline="\n")
    with sink as fh:
        # Each payload is built for this write (from to_dict) and holds no
        # cycle, so the encoder's cycle check would find none.
        json.dump(payload, fh, indent=2, check_circular=False)
        fh.write("\n")


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",")])
    except ValueError:
        raise ValueError(f"could not parse {text!r} as comma-separated numbers")


def _parse_point(text: str, flag: str, dim: int) -> np.ndarray:
    point = _parse_floats(text)
    if point.shape[0] != dim:
        raise ValueError(
            f"{flag} has length {point.shape[0]}, problem dimension is {dim}"
        )
    return point


def _parse_box(text: str) -> tuple[tuple, tuple]:
    """``--box`` as (lower corner, upper corner)."""
    box = _parse_floats(text)
    if box.shape[0] % 2 != 0:
        raise ValueError("--box needs an even number of coordinates")
    half = box.shape[0] // 2
    return tuple(box[:half]), tuple(box[half:])


def _seed(text: str) -> int:
    """A ``--seed`` or ``--blob-seed`` value: numpy's seeds are integers >= 0."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return seed


def _parse_blob_spec(text: str) -> tuple[int, int]:
    """``--blobs`` as (N, P); ``generate_blobs`` checks they are positive."""
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except ValueError:
        raise ValueError(f"--blobs expects 'NxP' (e.g. 4x200), got {text!r}")


# One --flag per SolverParams field (``mu_bar`` -> ``--mu-bar``), parsed
# as the type of its default: int for max_iter, float for the others.
_PARAM_TYPES = {f.name: type(f.default) for f in dataclasses.fields(SolverParams)}


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    grp = p.add_argument_group("solver parameters")
    for name, type_ in _PARAM_TYPES.items():
        grp.add_argument("--" + name.replace("_", "-"), type=type_, default=None)


def _params_from_args(args) -> SolverParams:
    overrides = {
        name: getattr(args, name)
        for name in _PARAM_TYPES
        if getattr(args, name, None) is not None
    }
    return SolverParams(**overrides)


def _add_blob_flags(grp, required: bool) -> None:
    grp.add_argument("--blobs", required=required, help="spec 'NxP' (N blobs, P points each)")
    grp.add_argument("--spread", type=float, default=1.0, help="blob standard deviation")
    grp.add_argument(
        "--box",
        default="-10,-10,10,10",
        help="blob-center box: the lower corner, then the upper corner, in any "
        "even number of coordinates (xmin,ymin,xmax,ymax in 2-D; gen needs 2-D)",
    )


def _blobs_from_args(args, seed: int) -> ClusterData:
    n_blobs, per = _parse_blob_spec(args.blobs)
    return generate_blobs(n_blobs, per, spread=args.spread, box=_parse_box(args.box), seed=seed)


def _add_mssc_flags(p: argparse.ArgumentParser) -> None:
    grp = p.add_argument_group("clustering problem")
    grp.add_argument("--data", help="CSV file with one 'x,y' point per line")
    grp.add_argument("--k", type=int, help="number of centroids")
    grp.add_argument("--rho", type=float, default=None, help="strong convexity modulus (default 1/(n*k))")
    _add_blob_flags(grp, required=False)
    grp.add_argument("--blob-seed", dest="blob_seed", type=_seed, default=0)


def _load_cluster_data(args) -> MsscProblem:
    """The clustering problem: ``--k`` centroids and ``--rho`` over the
    data from ``--data`` or ``--blobs``."""
    if args.k is None:
        raise ValueError("--k is required for the clustering problem")
    if args.data and args.blobs:
        raise ValueError("use either --data or --blobs, not both")
    if args.data:
        data = load_points_csv(args.data)
    elif args.blobs:
        data = _blobs_from_args(args, args.blob_seed)
    else:
        raise ValueError("clustering needs --data or --blobs")
    return MsscProblem(data, args.k, args.rho)


def _build_problem(args):
    if args.problem == "mssc":
        return _load_cluster_data(args)
    given = [f"--{name}" for name in ("data", "blobs", "k", "rho") if getattr(args, name) is not None]
    if given:
        raise ValueError(f"--problem example2d takes no {', '.join(given)}")
    return Example2dProblem()


def cmd_solve(args) -> int:
    params = _params_from_args(args)
    problem = _build_problem(args)
    if args.x0:
        x0 = _parse_point(args.x0, "--x0", problem.dim)
    else:
        x0 = draw_start(problem, args.seed, 0)
    pss = make_pss(args.pss, problem.dim)
    result = run_algorithm(args.algo.upper(), problem, x0, pss, params)
    payload = {
        "algorithm": args.algo,
        "problem": args.problem,
        "x0": x0.tolist(),
        "final_point": result.final_point.tolist(),
        "final_phi": result.final_phi,
        "termination": result.termination.value,
        "iterations": [r.to_dict() for r in result.iterations],
        "dfo_invocations": result.dfo_invocations,
        "wall_time_s": result.wall_time if args.timings else None,
    }
    _write_json(args.json, payload)
    if args.trace_csv:
        rows: list[list] = [["k", "phi_x", "phi_y", "norm_d", "lambda", "mu_event"]]
        for rec in result.iterations:
            if rec.dfo_event is None:
                mu_event = ""
            elif rec.dfo_event.mu_accepted is not None:
                mu_event = repr(rec.dfo_event.mu_accepted)
            else:
                mu_event = "certified"
            rows.append(
                [
                    rec.k,
                    rec.phi_x,
                    rec.phi_y,
                    norm(rec.d_k),
                    rec.lambda_k,
                    mu_event,
                ]
            )
        _write_csv(args.trace_csv, rows)
    return _EXIT_OK


def cmd_check(args) -> int:
    problem = _build_problem(args)
    point = _parse_point(args.point, "--point", problem.dim)
    pss = make_pss(args.pss, problem.dim)
    report = check_d_stationarity(problem, point, pss, tol=args.tol)
    _write_json(args.json, report.to_dict())
    return _EXIT_OK if report.is_d_stationary else _EXIT_NOT_STATIONARY


def cmd_table1(args) -> int:
    params = _params_from_args(args)
    report = run_table1(
        args.starts, args.seed, params, workers=args.workers, pss_kind=args.pss
    )
    # Keyed by algorithm, then by label, both in column order.
    counts = report.basin_counts
    rows: list[list] = [["algorithm", *counts[ALGORITHMS[0]]]]
    rows += [[algo, *by_label.values()] for algo, by_label in counts.items()]
    _write_csv(args.csv, rows)
    _write_json(args.json, report.to_dict(include_timings=args.timings))
    return _EXIT_OK


def cmd_cluster(args) -> int:
    params = _params_from_args(args)
    report = run_pairwise_mssc(
        _load_cluster_data(args),
        args.starts,
        args.seed,
        params,
        workers=args.workers,
        pss_kind=args.pss,
    )
    # One column per PairRow field, in field order; the header spells
    # "bdca_plus" as "bdcaplus".
    fields = dataclasses.fields(PairRow)
    rows: list[list] = [[f.name.replace("bdca_plus", "bdcaplus") for f in fields]]
    rows += [list(p.to_dict(args.timings).values()) for p in report.pairs]
    _write_csv(args.csv, rows)
    stats = report.paired_stats
    _write_json(
        args.json,
        {
            "problem": "mssc",
            "k": args.k,
            "n_starts": args.starts,
            "seed": args.seed,
            "pss": args.pss,
            "paired_stats": stats.to_dict(),
        },
    )
    return _EXIT_OK


def cmd_gen(args) -> int:
    data = _blobs_from_args(args, args.seed)
    if data.dim_space != 2:  # the file holds 'x,y' lines
        raise ValueError("gen needs a 2-D --box: xmin,ymin,xmax,ymax")
    header = f"# blobs={args.blobs} spread={_fmt(args.spread)} box={args.box} seed={args.seed}"
    _write_csv(args.out, [[header], *data.points])
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcboost",
        description="DC solvers with line-search boosting and a direct-search escape step.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solver from one start")
    p_solve.add_argument("--problem", choices=["example2d", "mssc"], required=True)
    p_solve.add_argument("--algo", choices=[a.lower() for a in ALGORITHMS], required=True)
    p_solve.add_argument("--x0", help="comma-separated start (e.g. --x0=0,1)")
    p_solve.add_argument("--seed", type=_seed, default=0, help="random start seed (used when --x0 is absent)")
    p_solve.add_argument("--pss", choices=PSS_KINDS, default="d1")
    p_solve.add_argument("--json", default=None, help="result path (default: stdout)")
    p_solve.add_argument("--trace-csv", dest="trace_csv", default=None, help="per-iteration CSV path")
    p_solve.add_argument("--timings", action="store_true", help="include measured wall time (breaks byte reproducibility)")
    _add_mssc_flags(p_solve)
    _add_param_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="d-stationarity test at a point")
    p_check.add_argument("--problem", choices=["example2d", "mssc"], required=True)
    p_check.add_argument("--point", required=True, help="comma-separated coordinates (e.g. --point=-1,-1)")
    p_check.add_argument("--pss", choices=PSS_KINDS, default="d1")
    p_check.add_argument("--tol", type=float, default=1e-6)
    p_check.add_argument("--json", default=None, help="report path (default: stdout)")
    _add_mssc_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_t1 = sub.add_parser("table1", help="basin counts on the 2-D test problem")
    p_t1.add_argument("--starts", type=int, required=True)
    p_t1.add_argument("--seed", type=_seed, default=0)
    p_t1.add_argument("--pss", choices=PSS_KINDS, default="d1")
    p_t1.add_argument("--csv", default="table1_counts.csv")
    p_t1.add_argument("--json", default="table1_report.json")
    p_t1.add_argument("--workers", type=int, default=1)
    p_t1.add_argument("--timings", action="store_true")
    _add_param_flags(p_t1)
    p_t1.set_defaults(func=cmd_table1)

    p_cl = sub.add_parser("cluster", help="paired DCA vs escape-step comparison on clustering data")
    p_cl.add_argument("--starts", type=int, default=50)
    p_cl.add_argument("--seed", type=_seed, default=0)
    p_cl.add_argument("--pss", choices=PSS_KINDS, default="d1")
    p_cl.add_argument("--csv", default="cluster_pairs.csv")
    p_cl.add_argument("--json", default="cluster_summary.json")
    p_cl.add_argument("--workers", type=int, default=1)
    p_cl.add_argument("--timings", action="store_true")
    _add_mssc_flags(p_cl)
    _add_param_flags(p_cl)
    p_cl.set_defaults(func=cmd_cluster)

    p_gen = sub.add_parser("gen", help="write synthetic blob data as CSV")
    _add_blob_flags(p_gen, required=True)
    p_gen.add_argument("--seed", type=_seed, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _EXIT_USAGE
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ProblemDefinitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_FAILURE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


def entry() -> None:
    sys.exit(main())
