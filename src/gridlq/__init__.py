"""Structured solver for finite-horizon LQ optimal control of K x N grids
of coupled linear subsystems: KKT reduction to an SPD multiplier system,
nested block Jacobi preconditioning, and a conjugate gradient driver,
verified against a dense oracle at small scale."""

from .block_linalg import BlockTridiagCholesky, dense_cholesky
from .errors import (
    BreakdownError,
    DimensionGuardError,
    DimensionMismatchError,
    GridLQError,
    InvalidProblemError,
    MaxIterationsExceeded,
    NotPositiveDefiniteError,
)
from .grid_problem import (
    BoundaryData,
    GridLQProblem,
    GridLayout,
    SubsystemData,
    generate_irrigation_case,
    generate_msd_case,
    load_problem,
    save_problem,
    validate,
)
from .kkt_assembly import (
    PairSplitting,
    SchurOperator,
    StackedSystem,
    build_schur,
    build_splitting,
    build_stacked,
    reference_stage_block,
)
from .nested_jacobi import NestedJacobiPreconditioner
from .pcg import SolveReport, cg_solve, pcg_solve
from .recovery import (
    ConditioningReport,
    TrajectorySolution,
    condition_numbers,
    dense_reference_solve,
    kkt_residual,
    recover_solution,
    simulate_states,
    spectral_radius,
    splitting_spectral_radii,
)

__all__ = [
    "BlockTridiagCholesky",
    "BoundaryData",
    "BreakdownError",
    "ConditioningReport",
    "DimensionGuardError",
    "DimensionMismatchError",
    "GridLQError",
    "GridLQProblem",
    "GridLayout",
    "InvalidProblemError",
    "MaxIterationsExceeded",
    "NestedJacobiPreconditioner",
    "NotPositiveDefiniteError",
    "PairSplitting",
    "SchurOperator",
    "SolveReport",
    "StackedSystem",
    "SubsystemData",
    "TrajectorySolution",
    "build_schur",
    "build_splitting",
    "build_stacked",
    "cg_solve",
    "condition_numbers",
    "dense_cholesky",
    "dense_reference_solve",
    "generate_irrigation_case",
    "generate_msd_case",
    "kkt_residual",
    "load_problem",
    "pcg_solve",
    "recover_solution",
    "reference_stage_block",
    "save_problem",
    "simulate_states",
    "spectral_radius",
    "splitting_spectral_radii",
    "validate",
]

__version__ = "0.1.0"
