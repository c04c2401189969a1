"""Span tracer for the benchmark's traced pass, and the analysis of its spans.

The tracer wraps the program's layer boundaries at run time, from outside
the program: each wrapped call records a span (name, start, end, parent)
into flat in-memory arrays, and the spans are written to one ``.npz``
file when the run ends.  A function is wrapped once and the wrapper is put
in every ``dcboost`` module namespace that holds the original, so callers
that imported it by name are traced too.

A layer's self time is the time its spans cover minus the time their
child spans cover.  Whatever no span covers is reported as unattributed.
"""

from __future__ import annotations

import math
import pickle
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute path).  Private names are the layer
# boundaries inside the solver loop; a target that no longer exists is
# skipped with a note on stderr rather than failing the run.
ORACLES = ("eval_g", "eval_h", "grad_g", "subgrad_h", "solve_subproblem")
TARGETS = (
    [
        (f"problems.{family}.{oracle}", f"dcboost.problems.{family}", f"{cls}.{oracle}")
        for family, cls in (("example2d", "Example2dProblem"), ("mssc", "MsscProblem"))
        for oracle in ORACLES
    ]
    + [
        ("core.eval_phi", "dcboost.core", "eval_phi"),
        ("solvers.dc_step", "dcboost.solvers", "_dc_step"),
        ("solvers.line_search", "dcboost.solvers", "_armijo"),
        ("solvers.dfo", "dcboost.solvers", "dfo_escape"),
        ("solvers.driver", "dcboost.solvers", "_drive"),
        ("solvers.run", "dcboost.solvers", "run_dca"),
        ("solvers.run", "dcboost.solvers", "run_bdca"),
        ("solvers.run", "dcboost.solvers", "run_bdca_plus"),
        ("bench.run", "dcboost.bench", "run_table1"),
        ("bench.run", "dcboost.bench", "run_pairwise_mssc"),
        ("bench.pool", "dcboost.bench", "_run_chunks"),
        ("bench.chunk", "dcboost.bench", "_table1_chunk"),
        ("bench.chunk", "dcboost.bench", "_pairwise_chunk"),
        ("bench.classify", "dcboost.bench", "classify_limit_point"),
        ("cli.write", "dcboost.cli", "_write_csv"),
        ("cli.write", "dcboost.cli", "_write_json"),
        ("setup.data", "dcboost.cli", "_load_cluster_data"),
        ("setup.data", "dcboost.cli", "_build_problem"),
    ]
)

# Layer of each span name, for self time.  "trace" spans are the tracer's
# own measurements; they count as tracing overhead, not as a layer.
LAYER_OF = {
    "core.eval_phi": "core.eval_phi",
    "solvers.dc_step": "solvers.dc_step",
    "solvers.line_search": "solvers.line_search",
    "solvers.dfo": "solvers.dfo",
    "solvers.driver": "solvers.driver",
    "solvers.run": "solvers.driver",
    "cli.write": "cli.write",
    "trace.measure": "trace",
}
LAYERS = (
    "problems",
    "core.eval_phi",
    "solvers.dc_step",
    "solvers.line_search",
    "solvers.dfo",
    "solvers.driver",
    "bench",
    "cli.write",
    "setup",
)


def layer_of(name: str) -> str:
    if name in LAYER_OF:
        return LAYER_OF[name]
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.nid = array("q")
        # Per-span extra values (nan when unused): line search trial and
        # accepted step; DFO escaped flag and radii; chunk result bytes.
        self.aux1 = array("d")
        self.aux2 = array("d")
        self.stack = [-1]
        self.skipped: list[str] = []
        self.originals: dict[str, list] = {}

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.parent.append(self.stack[-1])
        self.nid.append(nid)
        self.aux1.append(math.nan)
        self.aux2.append(math.nan)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.monotonic())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.monotonic()
        self.stack.pop()

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere, as a root span."""
        self.parent.append(-1)
        self.nid.append(self._id(name))
        self.start.append(start)
        self.end.append(end)
        self.aux1.append(math.nan)
        self.aux2.append(math.nan)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        observe = OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if observe is not None:
                observe(tracer, i, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every target in every loaded dcboost module that holds it."""
        import importlib

        modules = [m for n, m in list(sys.modules.items()) if n.startswith("dcboost") and m]
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if original is None:
                self.skipped.append(f"{module_name}.{path}")
                continue
            traced = self.wrap(name, original)
            self.originals.setdefault(name, []).append(original)
            if outer:
                setattr(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        for missing in self.skipped:
            print(f"trace: target {missing} not found, not traced", file=sys.stderr)

    def save(self, path: str) -> None:
        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            nid=np.frombuffer(self.nid, dtype=np.int64),
            aux1=np.frombuffer(self.aux1, dtype=float),
            aux2=np.frombuffer(self.aux2, dtype=float),
            names=np.array(self.names),
        )


def _observe_line_search(tracer: Tracer, i: int, args, result) -> None:
    # _armijo(problem, y, d, phi_y, lambda_trial, alpha, beta1) -> (lam, phi)
    tracer.aux1[i] = args[4]
    tracer.aux2[i] = result[0]


def _observe_dfo(tracer: Tracer, i: int, args, result) -> None:
    tracer.aux1[i] = 1.0 if result.x_next is not None else 0.0
    tracer.aux2[i] = len(result.event.mu_tried)


def _observe_chunk(tracer: Tracer, i: int, args, result) -> None:
    # The bytes a pool worker would send back for this chunk.  Pickling is
    # the tracer's own work, so it gets a "trace.measure" span.
    j = tracer._open(tracer._id("trace.measure"))
    try:
        tracer.aux1[i] = len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
    finally:
        tracer._close(j)


OBSERVERS = {
    "solvers.line_search": _observe_line_search,
    "solvers.dfo": _observe_dfo,
    "bench.chunk": _observe_chunk,
}


def load(path: str) -> dict:
    with np.load(path) as z:
        return {key: z[key] for key in z.files}


def counts(spans: dict) -> dict[str, int]:
    """Calls per span name."""
    names = [str(n) for n in spans["names"]]
    per = np.bincount(spans["nid"], minlength=len(names))
    return {name: int(per[k]) for k, name in enumerate(names)}


# Purpose codes for objective evaluations, by the nearest enclosing span.
PURPOSES = ("other", "dc_step", "line_search", "dfo_scan", "certification")


def analyse(spans: dict) -> dict:
    """Self time per layer, call counts, and the deterministic counters."""
    names = [str(n) for n in spans["names"]]
    start, end = spans["start"], spans["end"]
    parent, nid = spans["parent"], spans["nid"]
    aux1, aux2 = spans["aux1"], spans["aux2"]
    n = start.shape[0]
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child

    name_index = {name: k for k, name in enumerate(names)}
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    trace_self = 0.0
    per_name_self = np.bincount(nid, weights=self_time, minlength=len(names))
    for k, name in enumerate(names):
        layer = layer_of(name)
        if layer == "trace":
            trace_self += float(per_name_self[k])
        else:
            layer_self[layer] = layer_self.get(layer, 0.0) + float(per_name_self[k])

    def mask(name: str) -> np.ndarray:
        k = name_index.get(name)
        if k is None:
            return np.zeros(n, dtype=bool)
        return nid == k

    # Nearest enclosing purpose span of every span (-1 if none); parents
    # precede children in the arrays.
    code_of = np.zeros(len(names), dtype=np.int64)
    for name, code in (("solvers.dc_step", 1), ("solvers.line_search", 2)):
        if name in name_index:
            code_of[name_index[name]] = code
    own = code_of[nid]
    dfo = mask("solvers.dfo")
    own[dfo] = np.where(aux1[dfo] == 1.0, 3, 4)
    own_l = own.tolist()
    par = parent.tolist()
    anc_l = [-1] * n
    for i in range(n):
        if own_l[i]:
            anc_l[i] = i
        elif par[i] >= 0:
            anc_l[i] = anc_l[par[i]]
    anc = np.array(anc_l, dtype=np.int64)
    purpose = np.where(anc >= 0, own[np.maximum(anc, 0)], 0)

    # An objective evaluation is one call of eval_g (eval_phi and the
    # direct search both evaluate g once per point).
    evals = mask("problems.example2d.eval_g") | mask("problems.mssc.eval_g")
    eval_purpose = np.bincount(purpose[evals], minlength=len(PURPOSES))
    counters = {f"evals.{p}": int(eval_purpose[c]) for c, p in enumerate(PURPOSES)}

    ls = mask("solvers.line_search")
    trial, lam = aux1[ls], aux2[ls]
    per_call = np.bincount(anc[evals & (purpose == 2)], minlength=n)[ls]
    searched = trial > 0.0
    line_search = {
        "calls": int(ls.sum()),
        "evals": int(per_call.sum()),
        "backtracks": int(np.maximum(per_call[searched] - 1, 0).sum()),
        "fallbacks": int((searched & (lam == 0.0)).sum()),
        "accept_first_frac": (
            float(((per_call == 1) & searched & (lam > 0.0)).sum() / searched.sum())
            if searched.any()
            else 0.0
        ),
    }
    dfo_stats = {
        "invocations": int(dfo.sum()),
        "escape_frac": float(aux1[dfo].mean()) if dfo.any() else 0.0,
        "radii": int(aux2[dfo].sum()),
        "evals": counters["evals.dfo_scan"] + counters["evals.certification"],
        "cert_evals": counters["evals.certification"],
    }

    driver = mask("solvers.driver")
    run_ms = np.sort(dur[driver]) * 1e3
    chunk = mask("bench.chunk")
    return {
        "layer_self_s": layer_self,
        "trace_self_s": trace_self,
        "attributed_s": float(self_time.sum()),
        "calls": counts(spans),
        "counters": counters,
        "line_search": line_search,
        "dfo": dfo_stats,
        "driver": {
            "runs": int(driver.sum()),
            "run_ms_p50": float(np.percentile(run_ms, 50)) if run_ms.size else 0.0,
            "run_ms_p99": float(np.percentile(run_ms, 99)) if run_ms.size else 0.0,
        },
        "bench": {
            "chunks": int(chunk.sum()),
            "result_bytes": int(np.nansum(aux1[chunk])),
        },
    }
