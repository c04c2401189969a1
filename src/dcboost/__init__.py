"""DC (difference-of-convex) solvers with line-search boosting and a
direct-search escape step, plus bundled test problems and a multi-start
experiment harness."""

from dcboost.core import (
    DcProblem,
    DfoEvent,
    IterationRecord,
    Point,
    ProblemDefinitionError,
    RunResult,
    SolverParams,
    Termination,
    ValidationReport,
    eval_phi,
    validate_problem,
)
from dcboost.spanning import (
    PositiveSpanningSet,
    make_d1,
    make_d2,
    make_d3,
)
from dcboost.solvers import (
    StationarityReport,
    armijo_backtrack,
    check_d_stationarity,
    dca_step,
    dfo_escape,
    next_trial_step,
    run_bdca,
    run_bdca_plus,
    run_dca,
)
from dcboost.problems import (
    ClusterData,
    Example2dProblem,
    MsscProblem,
    generate_blobs,
    load_points_csv,
)
from dcboost.bench import (
    MultiStartReport,
    classify_limit_point,
    run_pairwise_mssc,
    run_table1,
)

__version__ = "0.1.0"

__all__ = [
    "DcProblem",
    "DfoEvent",
    "IterationRecord",
    "Point",
    "ProblemDefinitionError",
    "RunResult",
    "SolverParams",
    "Termination",
    "ValidationReport",
    "eval_phi",
    "validate_problem",
    "PositiveSpanningSet",
    "make_d1",
    "make_d2",
    "make_d3",
    "StationarityReport",
    "armijo_backtrack",
    "check_d_stationarity",
    "dca_step",
    "dfo_escape",
    "next_trial_step",
    "run_bdca",
    "run_bdca_plus",
    "run_dca",
    "ClusterData",
    "Example2dProblem",
    "MsscProblem",
    "generate_blobs",
    "load_points_csv",
    "MultiStartReport",
    "classify_limit_point",
    "run_pairwise_mssc",
    "run_table1",
    "__version__",
]
