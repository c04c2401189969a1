"""Run the ``dcboost`` command line from source with the benchmark's probes.

Usage::

    python3 benchmarks/launch.py --t0 T --probe PROBE.jsonl [--trace SPANS.npz]
        [--setup-only] -- <dcboost arguments>

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide, so the two processes share it).

The probe wraps the public solver entry points (``run_dca``, ``run_bdca``,
``run_bdca_plus``) where the CLI and the multi-start harness call them.
Per solver run it costs one extra Python call plus a pass over the run's
iteration records, which is how the benchmark learns the deterministic
work of a run without tracing: the number of objective evaluations and
DC steps that the trajectory implies.  Every process that runs a solver
(the CLI process itself, or each forked pool worker) appends one JSON
line to PROBE.jsonl when it exits.  With ``--setup-only`` the process
stops at the first solver call, so only set-up is measured.

``--trace`` additionally installs the span tracer of ``tracing.py``; it
only sees the CLI process, so traced runs use one worker.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The line search evaluates trial, beta1*trial, ...; a non-accepting search
# stops below this step or after this many shrinks (see dcboost.solvers).
LAMBDA_FLOOR = 1e-14
MAX_SHRINKS = 200


def line_search_evals(trial: float, lam: float, beta1: float) -> int:
    """Objective evaluations a line search made, from its trial and result."""
    if lam > 0.0:
        evals, step = 1, trial
        while step != lam and evals <= MAX_SHRINKS:
            step *= beta1
            evals += 1
        return evals
    evals, step = 0, trial
    for _ in range(MAX_SHRINKS + 1):
        evals += 1
        step *= beta1
        if step < LAMBDA_FLOOR:
            break
    return evals


def run_work(result, n_dirs: int, beta1: float) -> tuple[int, int]:
    """(objective evaluations, DC steps) implied by a run's trajectory.

    One evaluation at the start, one per DC step (at ``y_k``), one per
    line-search trial, and per direct-search invocation one at ``y_k`` plus
    one per probe.  Identical trajectories give identical counts, however
    the program computes them.
    """
    evals = 1
    steps = 0
    for rec in result.iterations:
        steps += 1
        evals += 1
        event = rec.dfo_event
        if event is not None:
            probes = n_dirs * len(event.mu_tried)
            if event.mu_accepted is not None:
                probes -= n_dirs - 1 - event.direction_index
            evals += 1 + probes
        elif rec.lambda_trial > 0.0:
            evals += line_search_evals(rec.lambda_trial, rec.lambda_k, beta1)
    return evals, steps


class Probe:
    """Per-process first-call time and work totals, written at exit."""

    def __init__(self, path: str, setup_only: bool):
        self.path = path
        self.setup_only = setup_only
        self.pid = os.getpid()
        # Process whose first solver call has been seen (none yet).
        self.owner = None
        self.first_call = None
        self.totals = {
            "runs": 0,
            "runs_bdca_plus": 0,
            "certified": 0,
            "max_iterations": 0,
            "evals": 0,
            "dc_steps": 0,
            "sum_phi_bdca_plus": 0.0,
        }
        self.events: dict[str, float] = {}

    def write(self) -> None:
        line = json.dumps(
            {
                "pid": os.getpid(),
                "first_call": self.first_call,
                "events": self.events,
                "totals": self.totals,
            }
        )
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, (line + "\n").encode())
        finally:
            os.close(fd)

    def _on_first_call(self) -> None:
        self.first_call = time.monotonic()
        if self.setup_only:
            self.write()
            os._exit(0)
        if os.getpid() != self.pid:
            # A forked pool worker: it ends through multiprocessing's exit
            # path, which runs registered finalizers but no atexit hooks.
            from multiprocessing import util

            self.totals = dict.fromkeys(self.totals, 0)
            self.events = {}
            util.Finalize(None, self.write, exitpriority=100)

    def record(self, result, algo: str, n_dirs: int, beta1: float) -> None:
        t = self.totals
        evals, steps = run_work(result, n_dirs, beta1)
        t["runs"] += 1
        t["evals"] += evals
        t["dc_steps"] += steps
        term = result.termination.value
        if term == "MaxIterations":
            t["max_iterations"] += 1
        if algo == "bdca_plus":
            t["runs_bdca_plus"] += 1
            t["sum_phi_bdca_plus"] += result.final_phi
            if term == "DStationaryCertified":
                t["certified"] += 1

    def wrap(self, fn, algo: str):
        from dcboost.core import SolverParams

        default_beta1 = SolverParams().beta1
        probe = self

        # Positional parameters after (problem, x0), as the solvers define them.
        names = ("pss", "params") if algo == "bdca_plus" else ("params",)

        def probed(problem, x0, *args, **kwargs):
            if probe.owner != os.getpid():
                probe.owner = os.getpid()
                probe._on_first_call()
            result = fn(problem, x0, *args, **kwargs)
            given = dict(zip(names, args), **kwargs)
            params, pss = given.get("params"), given.get("pss")
            beta1 = default_beta1 if params is None else params.beta1
            n_dirs = 2 * problem.dim if pss is None else pss.directions.shape[0]
            probe.record(result, algo, n_dirs, beta1)
            return result

        probed.__wrapped__ = fn
        return probed


def install_probe(probe: Probe) -> None:
    import dcboost.bench
    import dcboost.cli
    import dcboost.solvers

    for attr, algo in (
        ("run_dca", "dca"),
        ("run_bdca", "bdca"),
        ("run_bdca_plus", "bdca_plus"),
    ):
        wrapped = probe.wrap(getattr(dcboost.solvers, attr), algo)
        for module in (dcboost.bench, dcboost.cli):
            if hasattr(module, attr):
                setattr(module, attr, wrapped)

    pool_cls = getattr(dcboost.bench, "ProcessPoolExecutor", None)
    if pool_cls is not None:

        class TimedPool(pool_cls):
            def __init__(self, *args, **kwargs):
                probe.events.setdefault("pool_created", time.monotonic())
                super().__init__(*args, **kwargs)

        dcboost.bench.ProcessPoolExecutor = TimedPool


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: launch.py --t0 T --probe PATH [--trace PATH] "
              "[--setup-only] -- <dcboost args>", file=sys.stderr)
        return 2
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    t0 = float(opts[opts.index("--t0") + 1])
    probe_path = opts[opts.index("--probe") + 1]
    trace_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import dcboost.cli

    probe = Probe(probe_path, setup_only="--setup-only" in opts)
    probe.events.update(t0=t0, imported=time.monotonic())
    tracer = None
    if trace_path is not None:
        from tracing import Tracer

        # Tracer first, so the probe wraps the traced entry points and its
        # own bookkeeping stays outside every span.
        tracer = Tracer()
        tracer.add_span("setup.import", t0, probe.events["imported"])
        tracer.install()
    install_probe(probe)
    rc = dcboost.cli.main(cli_args)
    probe.events["main_done"] = time.monotonic()
    probe.write()
    if tracer is not None:
        tracer.save(trace_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
