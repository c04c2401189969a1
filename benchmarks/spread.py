"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread.

Usage (from the repository root)::

    python3 benchmarks/spread.py --workload cluster --seeds 1 2 3 4 5 \\
        [--seconds 30] [--baseline]

The spread is ``(Q3 - Q1) / median`` with the quartiles of
``statistics.quantiles(values, n=4)``; a metric is steady when its spread
is below a third of its bound in ``run.END_TO_END`` (``setup_s`` has no
spread requirement).  ``--baseline`` stores the medians, quartiles, seeds
and machine in ``benchmarks/baseline.json`` under the workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        line = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v:.6g}" for k, v in line.items()), flush=True)
        if not result["correct"]:
            return 1
        for name, value in line.items():
            values.setdefault(name, []).append(value)

    summary = {}
    for name, unit, _better, bound in run.END_TO_END:
        vals = values[name]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        steady = name == "setup_s" or spread < bound / 3
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bound, "unit": unit}
        print(f"{args.workload} {name}: median {med:.6g} {unit}, spread {spread:.4f} "
              f"(bound {bound}) {'steady' if steady else 'NOT STEADY'}")
    if args.baseline:
        path = os.path.join(HERE, "baseline.json")
        baseline = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                baseline = json.load(fh)
        baseline[args.workload] = {
            "seeds": args.seeds,
            "seconds": args.seconds,
            "machine": run.machine(),
            "metrics": summary,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
