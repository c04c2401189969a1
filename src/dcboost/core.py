"""Problem abstraction, solver parameters, and run traces shared by all solvers.

A DC objective is minimized in the split form ``phi(x) = g(x) - h(x)`` where
both components are convex with a common strong-convexity modulus ``rho`` and
``g`` is smooth.  Solvers never see ``phi`` directly: they work through the
oracles bundled in a :class:`DcProblem` (values, gradient of ``g``, a
subgradient selection for ``h``, and the strongly convex linearized
subproblem ``min g(x) - <u, x>``).
"""

from __future__ import annotations

import dataclasses
import math
import types
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from typing import Any, Callable, Optional, Sequence, TypeVar, Union
from typing import get_args, get_origin, get_type_hints

import numpy as np

__all__ = [
    "Point",
    "ProblemDefinitionError",
    "Termination",
    "SolverParams",
    "Record",
    "timing",
    "DfoEvent",
    "IterationRecord",
    "RunResult",
    "DcProblem",
    "eval_phi",
    "phi_and_scale",
    "CheckResult",
    "ValidationReport",
    "validate_problem",
    "as_point",
    "as_count",
    "sq_norm",
    "norm",
]

#: Dense real vector of length ``problem.dim``.
Point = np.ndarray

# Contract tolerances used by the runtime oracle checks.
SUBPROBLEM_RESIDUAL_RTOL = 1e-8
DESCENT_SLACK = 1e-9


class ProblemDefinitionError(RuntimeError):
    """A problem oracle violated its contract (non-finite value, bad
    subproblem solution, or a broken descent guarantee).  This always
    indicates a bug in the problem definition, not in the solver."""


class Termination(str, Enum):
    """Why a run stopped."""

    CRITICAL_POINT = "CriticalPoint"
    D_STATIONARY_CERTIFIED = "DStationaryCertified"
    MAX_ITERATIONS = "MaxIterations"


def as_point(x: Sequence[float] | np.ndarray, dim: int | None = None) -> Point:
    """Coerce to a finite 1-D float64 vector, optionally checking its length."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"expected a 1-D point, got shape {p.shape}")
    if dim is not None and p.shape[0] != dim:
        raise ValueError(f"point has length {p.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point has non-finite entries")
    return p


def as_count(value: Any, name: str) -> int:
    """``value`` as an int, checked to be a count: an integer >= 1 (numpy
    integers included).  A bool or a float is not a count, even 2.0."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1")
    return int(value)


def sq_norm(v: Point) -> float:
    """Squared Euclidean length ``||v||^2`` of a 1-D float vector.  Every
    decision the solvers take on a length (the stall test, the Armijo
    bound, the subproblem residual) is computed here."""
    return float(np.dot(v, v))


def norm(v: Point) -> float:
    """Euclidean length of a 1-D float vector; the same bits as
    ``np.linalg.norm(v)``, which computes exactly this, without its
    per-call overhead."""
    return math.sqrt(sq_norm(v))


@dataclass(frozen=True)
class SolverParams:
    """Tuning constants for the boosted solvers and the direct-search step.

    Attributes:
        alpha: sufficient-decrease coefficient of the line search.
        beta1: backtracking shrink factor of the line search, in (0, 1).
        beta2: shrink factor of the direct-search radius, in (0, 1).
        eps1: criticality tolerance on the DC displacement ``||y_k - x_k||``.
        eps2: direct-search stopping radius.
        mu_bar: initial direct-search radius.
        eta: growth factor applied to the radius when the direct search is
            re-entered.  Defaults to ``1 / beta2`` (undo the last shrink).
        tau: additive offset applied alongside ``eta``.  Defaults to ``eps2``.
        gamma: growth factor of the self-adaptive trial step, > 1.
        lambda_bar1: trial step used the second time the line search runs
            (the first trial is always 0).
        max_iter: hard iteration cap; purely a guard against runaway runs.
    """

    alpha: float = 1e-4
    beta1: float = 0.25
    beta2: float = 0.5
    eps1: float = 1e-8
    eps2: float = 1e-4
    mu_bar: float = 10.0
    eta: Optional[float] = None
    tau: Optional[float] = None
    gamma: float = 2.0
    lambda_bar1: float = 10.0
    max_iter: int = 10000

    def __post_init__(self) -> None:
        if self.eta is None:
            object.__setattr__(self, "eta", 1.0 / self.beta2)
        if self.tau is None:
            object.__setattr__(self, "tau", self.eps2)
        # range() in the driver loop takes integers only, not 1e3 or inf.
        object.__setattr__(self, "max_iter", as_count(self.max_iter, "max_iter"))
        for f in dataclasses.fields(self):
            # NaN passes every comparison below.
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if not 0.0 < self.beta1 < 1.0:
            raise ValueError("beta1 must lie in (0, 1)")
        if not 0.0 < self.beta2 < 1.0:
            raise ValueError("beta2 must lie in (0, 1)")
        if self.gamma <= 1.0:
            raise ValueError("gamma must be > 1")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.eps1 < 0.0:
            raise ValueError("eps1 must be nonnegative")
        if self.eps2 <= 0.0:
            raise ValueError("eps2 must be positive")
        if self.mu_bar <= 0.0:
            raise ValueError("mu_bar must be positive")
        if self.eta < 0.0:
            raise ValueError("eta must be nonnegative")
        if self.tau < 0.0:
            raise ValueError("tau must be nonnegative")
        # The first direct-search radius: at 0 the scan "certifies" any
        # point, at inf every probe overflows (plain floats: no warning).
        first_mu = float(self.eta) * float(self.mu_bar) + float(self.tau)
        if not 0.0 < first_mu < math.inf:
            raise ValueError("eta*mu_bar + tau must be positive and finite")
        if self.lambda_bar1 <= 0.0:
            raise ValueError("lambda_bar1 must be positive")


def timing(**kwargs: Any) -> Any:
    """Dataclass field holding a measured time (or a ratio of times).
    Timings are the one value that cannot be reproduced byte for byte, so
    :meth:`Record.to_dict` writes them as ``None`` unless requested."""
    return field(metadata={"timing": True}, **kwargs)


_SCALARS = frozenset({int, float, str, bool, type(None)})


def _encode(value: Any, include_timings: bool) -> Any:
    if type(value) in _SCALARS:
        return value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Record):
        return value.to_dict(include_timings)
    if isinstance(value, dict):
        return {k: _encode(v, include_timings) for k, v in value.items()}
    if isinstance(value, list):
        return [_encode(v, include_timings) for v in value]
    if isinstance(value, np.generic):  # e.g. a float64 from a user's oracle
        return value.item()
    raise TypeError(f"cannot encode {type(value).__name__} as JSON")


_Decoder = Optional[Callable[[Any], Any]]  # None: the JSON value is used as is


def _decoder(tp: Any) -> _Decoder:
    """Conversion from the JSON value of a field annotated ``tp``."""
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, types.UnionType):  # Optional[X]
        (inner,) = [a for a in args if a is not type(None)]
        dec = _decoder(inner)
        return None if dec is None else (lambda v: None if v is None else dec(v))
    if origin is list:
        dec = _decoder(args[0])
        return list if dec is None else (lambda v: [dec(x) for x in v])
    if origin is dict:
        dec = _decoder(args[1])
        return dict if dec is None else (lambda v: {k: dec(x) for k, x in v.items()})
    if tp is np.ndarray:
        return lambda v: np.asarray(v, dtype=float)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return tp
    if isinstance(tp, type) and issubclass(tp, Record):
        return tp.from_dict
    return None


# Per-class field lists, built once: (name, is timing) to encode and
# (name, decoder) to decode.
@cache
def _encode_plan(cls: type) -> tuple[tuple[str, bool], ...]:
    return tuple(
        (f.name, bool(f.metadata.get("timing"))) for f in dataclasses.fields(cls)
    )


@cache
def _decode_plan(cls: type) -> tuple[tuple[str, _Decoder], ...]:
    hints = get_type_hints(cls)
    return tuple((f.name, _decoder(hints[f.name])) for f in dataclasses.fields(cls))


_R = TypeVar("_R", bound="Record")


class Record:
    """Mixin giving a dataclass a lossless JSON-ready dict form.

    Keys follow field order.  Arrays become nested lists (read back as
    float arrays), enums their values, and nested records, lists and
    dicts convert recursively; the field annotations drive the way back.  Fields declared with
    :func:`timing` encode as ``None`` unless ``include_timings`` is set.
    """

    def to_dict(self, include_timings: bool = False) -> dict[str, Any]:
        out = {}
        for name, is_timing in _encode_plan(type(self)):
            value = None if is_timing and not include_timings else getattr(self, name)
            if type(value) not in _SCALARS:
                value = _encode(value, include_timings)
            out[name] = value
        return out

    @classmethod
    def from_dict(cls: type[_R], d: dict[str, Any]) -> _R:
        return cls(
            **{
                name: d[name] if dec is None else dec(d[name])
                for name, dec in _decode_plan(cls)
            }
        )


@dataclass
class DfoEvent(Record):
    """Outcome of one direct-search invocation.

    ``mu_tried`` lists the radii at which full direction scans ran, in
    order.  On a successful escape ``mu_accepted`` is the radius kept and
    ``direction_index`` the index (within the spanning set) of the winning
    direction; both are ``None`` when the scan exhausted all radii.
    """

    mu_tried: list[float]
    mu_accepted: Optional[float]
    direction_index: Optional[int]


@dataclass
class IterationRecord(Record):
    """One iteration of any solver: the DC step and what followed it.

    ``lambda_k`` is 0 for pure DC steps and for direct-search iterations;
    ``d_k`` is exactly ``y_k - x_k``.
    """

    k: int
    x_k: Point
    y_k: Point
    d_k: Point
    phi_x: float
    phi_y: float
    lambda_k: float
    lambda_trial: float
    dfo_event: Optional[DfoEvent] = None


@dataclass
class RunResult(Record):
    """Full outcome of a solver run: termination point, reason, and trace.

    ``wall_time`` is ``None`` when read back from a dict written without
    timings."""

    final_point: Point
    final_phi: float
    iterations: list[IterationRecord]
    termination: Termination
    dfo_invocations: int = 0
    wall_time: Optional[float] = timing(default=0.0)

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)


class DcProblem(ABC):
    """A DC objective given through its oracles.

    Subclasses fix ``dim`` (problem dimension) and ``rho`` (the common
    strong-convexity modulus of both components, > 0) and implement the
    five oracles below.  All oracles must be pure: instances are treated
    as immutable and may be shared across concurrent runs.  A problem may
    keep private per-thread buffers (say, of work shared by the oracles at
    one point, updated in place from one point to the next) as long as
    every result stays bit-identical to a fresh instance's and a shared
    instance stays safe under concurrent calls.

    ``solve_subproblem(u)`` must return the unique minimizer ``y`` of
    ``g(x) - <u, x>``, i.e. the point with ``grad_g(y) = u``.  Solvers
    verify the residual ``||grad_g(y) - u|| <= 1e-8 * (1 + ||u||)`` at
    every step and abort with :class:`ProblemDefinitionError` otherwise.

    ``sample_start(rng)``, a random start drawn from the numpy
    ``Generator`` ``rng``, is optional: the solvers do not need it, but
    ``bench.draw_start``, and through it the multi-start harness and
    ``solve`` without ``--x0``, does.
    """

    dim: int
    rho: float

    #: Exact one-sided directional derivative ``h'(x; d)``, or ``None``
    #: when unavailable.  The solvers do not need it; the d-stationarity
    #: test does, and raises ValueError without it.  Subclasses override
    #: this as a method.
    dir_deriv_h = None

    @abstractmethod
    def eval_g(self, x: Point) -> float: ...

    @abstractmethod
    def eval_h(self, x: Point) -> float: ...

    @abstractmethod
    def grad_g(self, x: Point) -> Point: ...

    @abstractmethod
    def subgrad_h(self, x: Point) -> Point: ...

    @abstractmethod
    def solve_subproblem(self, u: Point) -> Point: ...


def eval_phi(problem: DcProblem, x: Point) -> float:
    """Objective value ``g(x) - h(x)``.

    The objective is always formed as the difference of the two component
    oracles; problems may expose a direct formula for cross-checking, but
    solvers never use it.
    """
    return phi_and_scale(problem, x)[0]


def phi_and_scale(problem: DcProblem, x: Point) -> tuple[float, float]:
    """Objective value as :func:`eval_phi` forms it, together with the
    cancellation scale ``|g(x)| + |h(x)|``."""
    g = problem.eval_g(x)
    h = problem.eval_h(x)
    phi = g - h
    if not math.isfinite(phi):
        raise ProblemDefinitionError(
            f"objective is not finite at x={np.asarray(x)!r} (got {phi})"
        )
    return phi, abs(g) + abs(h)


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_violation: float
    detail: str = ""


@dataclass
class ValidationReport:
    """Result of the numerical contract checks on a problem definition."""

    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


# Relative step of the central differences in :func:`validate_problem`.
_FD_STEP = 1e-6


def _fd_grad_g(problem: DcProblem, x: Point) -> Point:
    # Central differences with a per-coordinate step scaled to the point,
    # balancing truncation against round-off in double precision.
    grad = np.empty_like(x)
    for i in range(x.shape[0]):
        step = _FD_STEP * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        grad[i] = (problem.eval_g(xp) - problem.eval_g(xm)) / (2.0 * step)
    return grad


def validate_problem(problem: DcProblem, samples: Sequence[Point]) -> ValidationReport:
    """Spot-check a problem definition on a set of sample points.

    Three checks run, each reported separately:

    * ``gradient``: central finite differences of ``g`` against ``grad_g``,
      relative error at most 1e-5 per sample.
    * ``subgradient``: the inequality
      ``h(y) >= h(x) + <subgrad_h(x), y - x>`` over all ordered sample
      pairs, with 1e-9 slack.
    * ``strong_convexity``: midpoint convexity of ``g - (rho/2)||.||^2``
      over all sample pairs, with 1e-9 slack.
    """
    if len(samples) == 0:
        raise ValueError("samples must be nonempty")
    pts = [as_point(s, problem.dim) for s in samples]
    report = ValidationReport()

    worst = 0.0
    worst_at = -1
    for idx, x in enumerate(pts):
        fd = _fd_grad_g(problem, x)
        exact = problem.grad_g(x)
        err = float(np.linalg.norm(fd - exact) / (1.0 + np.linalg.norm(exact)))
        if err > worst:
            worst, worst_at = err, idx
    report.checks.append(
        CheckResult(
            "gradient",
            worst <= 1e-5,
            worst,
            f"worst sample index {worst_at}",
        )
    )

    h_vals = np.array([problem.eval_h(x) for x in pts])
    subgrads = [problem.subgrad_h(x) for x in pts]
    worst = 0.0
    worst_pair = (-1, -1)
    for i, x in enumerate(pts):
        u = subgrads[i]
        for j, y in enumerate(pts):
            if i == j:
                continue
            gap = h_vals[i] + float(np.dot(u, y - x)) - h_vals[j]
            if gap > worst:
                worst, worst_pair = gap, (i, j)
    report.checks.append(
        CheckResult(
            "subgradient",
            worst <= 1e-9,
            worst,
            f"worst pair {worst_pair}",
        )
    )

    def q(x: Point) -> float:
        return problem.eval_g(x) - 0.5 * problem.rho * float(np.dot(x, x))

    q_vals = np.array([q(x) for x in pts])
    worst = 0.0
    worst_pair = (-1, -1)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            mid = 0.5 * (pts[i] + pts[j])
            gap = q(mid) - 0.5 * (q_vals[i] + q_vals[j])
            if gap > worst:
                worst, worst_pair = gap, (i, j)
    report.checks.append(
        CheckResult(
            "strong_convexity",
            worst <= 1e-9,
            worst,
            f"worst pair {worst_pair}",
        )
    )
    return report
