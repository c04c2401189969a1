"""Output checks for the benchmark workloads.

Each check reads the files one ``dcboost`` run wrote and verifies them
against the problem's mathematics, recomputed here independently where
that is cheap (basin labels, the 2-D objective, the clustering objective
at the final point, paired statistics, monotone descent).  It returns the
errors found, how many solver runs failed, and the deterministic
counters that go into the behaviour fingerprint.

A solver run fails when it ends at ``MaxIterations`` or, in the basin
experiment, at a point that matches no critical point.  A non-zero exit
fails every run of that invocation; the caller accounts for that.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

CRITICAL_POINTS = [
    ("(-1,-1)", (-1.0, -1.0)),
    ("(-1,0)", (-1.0, 0.0)),
    ("(0,-1)", (0.0, -1.0)),
    ("(0,0)", (0.0, 0.0)),
]
LABELS = [label for label, _ in CRITICAL_POINTS] + ["unclassified"]
ALGORITHMS = ("DCA", "BDCA", "BDCA+")


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def hashes(outdir: str) -> dict[str, str]:
    return {
        name: sha256(os.path.join(outdir, name))
        for name in sorted(os.listdir(outdir))
        if name.endswith((".csv", ".json"))
    }


def output_bytes(outdir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(outdir, name))
        for name in os.listdir(outdir)
        if name.endswith((".csv", ".json"))
    )


class Result:
    def __init__(self):
        self.errors: list[str] = []
        self.failed = 0
        self.counters: dict[str, object] = {}

    def expect(self, ok: bool, message: str) -> None:
        if not ok and len(self.errors) < 20:
            self.errors.append(message)


def _classify(x) -> str:
    for label, p in CRITICAL_POINTS:
        if math.hypot(x[0] - p[0], x[1] - p[1]) <= 1e-3:
            return label
    return "unclassified"


def check_table1(outdir: str, starts: int, seed: int) -> Result:
    r = Result()
    with open(os.path.join(outdir, "counts.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    r.expect(lines[0] == "algorithm," + ",".join(LABELS), f"table1 CSV header {lines[0]!r}")
    csv_counts = {}
    for line in lines[1:]:
        algo, *cells = line.split(",")
        csv_counts[algo] = [int(c) for c in cells]
    r.expect(list(csv_counts) == list(ALGORITHMS), f"table1 CSV rows {list(csv_counts)}")
    with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    basin = report["basin_counts"]
    failed = 0
    certified = 0
    for algo in ALGORITHMS:
        counts = csv_counts.get(algo, [])
        r.expect(sum(counts) == starts, f"table1 {algo}: counts sum to {sum(counts)}")
        r.expect(
            [basin[algo][label] for label in LABELS] == counts,
            f"table1 {algo}: JSON and CSV basin counts differ",
        )
        runs = report["runs"][algo]
        r.expect(len(runs) == starts, f"table1 {algo}: {len(runs)} runs")
        recount = dict.fromkeys(LABELS, 0)
        for i, run in enumerate(runs):
            x0, xf = run["x0"], run["final_point"]
            label = _classify(xf)
            recount[label] += 1
            r.expect(run["index"] == i, f"table1 {algo}: run {i} has index {run['index']}")
            r.expect(run["label"] == label, f"table1 {algo} run {i}: label {run['label']} != {label}")
            r.expect(all(-1.5 <= v <= 1.5 for v in x0), f"table1 {algo} run {i}: x0 outside box")
            a, b = xf
            phi = a * a + b * b + a + b - abs(a) - abs(b)
            r.expect(
                abs(run["final_phi"] - phi) <= 1e-9,
                f"table1 {algo} run {i}: final_phi {run['final_phi']} != {phi}",
            )
            if label == "unclassified" or run["termination"] == "MaxIterations":
                failed += 1
            if algo == "BDCA+" and run["termination"] == "DStationaryCertified":
                certified += 1
        r.expect(recount == basin[algo], f"table1 {algo}: recomputed basins {recount}")
        r.counters[f"iterations.{algo}"] = sum(run["n_iterations"] for run in runs)
        r.counters[f"dfo_invocations.{algo}"] = sum(run["dfo_invocations"] for run in runs)
    x0s = [[run["x0"] for run in report["runs"][algo]] for algo in ALGORITHMS]
    r.expect(x0s[0] == x0s[1] == x0s[2], "table1: algorithms started from different points")
    r.failed = failed
    r.counters["basin_counts"] = {algo: csv_counts.get(algo) for algo in ALGORITHMS}
    r.counters["certified.BDCA+"] = certified
    return r


CLUSTER_HEADER = (
    "instance,phi_dca,phi_bdcaplus,gap,iters_dca,iters_bdcaplus,dfo_invocations,time_ratio"
)


def check_cluster(outdir: str, starts: int, seed: int, k: int, max_iter: int) -> Result:
    r = Result()
    with open(os.path.join(outdir, "pairs.csv"), encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        rows = list(csv.reader(fh))
    r.expect(header == CLUSTER_HEADER, f"cluster CSV header {header!r}")
    r.expect(len(rows) == starts, f"cluster CSV has {len(rows)} rows")
    instances, gaps, failed = [], [], 0
    for row in rows:
        inst, phi_a, phi_b, gap = int(row[0]), float(row[1]), float(row[2]), float(row[3])
        it_a, it_b, dfo = int(row[4]), int(row[5]), int(row[6])
        instances.append(inst)
        gaps.append(gap)
        r.expect(
            math.isfinite(phi_a) and math.isfinite(phi_b) and phi_a >= 0 and phi_b >= 0,
            f"cluster instance {inst}: objective values {phi_a}, {phi_b}",
        )
        r.expect(gap == phi_a - phi_b, f"cluster instance {inst}: gap {gap} != difference")
        r.expect(it_a >= 1 and it_b >= 1 and dfo >= 1, f"cluster instance {inst}: counts")
        r.expect(row[7] == "nan", f"cluster instance {inst}: time_ratio {row[7]} without --timings")
        failed += (it_a >= max_iter) + (it_b >= max_iter)
    r.expect(sorted(instances) == list(range(starts)), "cluster: instances are not 0..N-1")
    order = sorted(zip(gaps, instances), key=lambda t: (-t[0], t[1]))
    r.expect(order == list(zip(gaps, instances)), "cluster: rows not sorted by gap")
    with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    g = np.array(gaps)
    stats = summary["paired_stats"]
    r.expect(
        summary["problem"] == "mssc" and summary["k"] == k and summary["n_starts"] == starts
        and summary["seed"] == seed,
        f"cluster summary header {summary}",
    )
    r.expect(stats["win_fraction"] == float(np.mean(g > 1e-9)), "cluster: win_fraction")
    r.expect(stats["mean_gap"] == float(g.mean()), "cluster: mean_gap")
    r.expect(stats["max_gap"] == float(g.max()), "cluster: max_gap")
    r.failed = failed
    r.counters["iterations.DCA"] = sum(int(row[4]) for row in rows)
    r.counters["iterations.BDCA+"] = sum(int(row[5]) for row in rows)
    r.counters["dfo_invocations.BDCA+"] = sum(int(row[6]) for row in rows)
    return r


def mssc_objective(points: np.ndarray, centroids: np.ndarray) -> float:
    """Mean squared distance to the nearest centroid, from differences."""
    best = np.full(points.shape[0], np.inf)
    for c in centroids:
        diff = points - c
        np.minimum(best, np.einsum("ij,ij->i", diff, diff), out=best)
    return float(best.mean())


def check_solve(outdir: str, points: np.ndarray, k: int) -> Result:
    r = Result()
    with open(os.path.join(outdir, "solve.json"), encoding="utf-8") as fh:
        out = json.load(fh)
    its = out["iterations"]
    r.expect(out["algorithm"] == "bdca+" and out["problem"] == "mssc", "solve: header")
    xf = np.asarray(out["final_point"], dtype=float)
    r.expect(xf.shape == (k * points.shape[1],), f"solve: final point shape {xf.shape}")
    phi = out["final_phi"]
    direct = mssc_objective(points, xf.reshape(k, points.shape[1]))
    r.expect(
        abs(phi - direct) <= 1e-8 * (1.0 + abs(direct)),
        f"solve: final_phi {phi!r} but the objective at the final point is {direct!r}",
    )
    phis = [rec["phi_x"] for rec in its]
    r.expect(
        all(b <= a + 1e-9 * (1.0 + abs(a)) for a, b in zip(phis, phis[1:])),
        "solve: objective increased between iterations",
    )
    events = [rec["dfo_event"] for rec in its if rec["dfo_event"]]
    r.expect(out["dfo_invocations"] == len(events), "solve: dfo_invocations")
    r.expect(out["wall_time_s"] is None, "solve: wall time written without --timings")
    with open(os.path.join(outdir, "trace.csv"), encoding="utf-8") as fh:
        trace = fh.read().splitlines()
    r.expect(trace[0] == "k,phi_x,phi_y,norm_d,lambda,mu_event", "solve: trace CSV header")
    r.expect(len(trace) == len(its) + 1, f"solve: trace CSV has {len(trace) - 1} rows")
    certified = out["termination"] == "DStationaryCertified"
    r.expect(
        trace[-1].endswith(",certified") == certified,
        "solve: trace CSV last row disagrees with the termination",
    )
    r.failed = int(out["termination"] == "MaxIterations")
    r.counters["iterations"] = len(its)
    r.counters["dfo_invocations"] = len(events)
    r.counters["radii"] = sum(len(e["mu_tried"]) for e in events)
    r.counters["termination"] = out["termination"]
    return r
