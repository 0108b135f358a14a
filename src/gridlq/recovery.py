"""Primal recovery from the multipliers, and the first-order optimality
residuals of a recovered trajectory."""

from __future__ import annotations

import numpy as np

from .grid_problem import TrajectorySolution
from .kkt_assembly import StackedSystem


def recover_solution(stacked: StackedSystem, multipliers) -> TrajectorySolution:
    """Primal trajectory from converged multipliers.

    x = -Qinv (A' lam), u = -Rinv (B' lam), evaluated block-wise through
    the stacked operators.
    """
    multipliers = np.asarray(multipliers, dtype=float)
    x = -stacked.apply_cost_inverse_x(stacked.apply_constraint_t(multipliers))
    u = -stacked.apply_cost_inverse_u(stacked.apply_input_map_t(multipliers))
    return TrajectorySolution(
        layout=stacked.layout,
        x_flat=x,
        u_flat=u,
        multipliers=multipliers,
        objective_value=0.5 * float(x @ stacked.apply_cost_x(x) + u @ stacked.apply_cost_u(u)),
    )


def kkt_residual(stacked: StackedSystem, sol: TrajectorySolution):
    """Infinity norms of the three first-order optimality residuals:
    state stationarity, input stationarity, and dynamics feasibility."""
    lam = sol.multipliers
    r_x = stacked.apply_cost_x(sol.x_flat) + stacked.apply_constraint_t(lam)
    r_u = stacked.apply_cost_u(sol.u_flat) + stacked.apply_input_map_t(lam)
    r_dyn = (
        stacked.apply_constraint(sol.x_flat)
        + stacked.apply_input_map(sol.u_flat)
        + stacked.offset
    )
    inf = lambda v: float(np.max(np.abs(v))) if v.size else 0.0
    return inf(r_x), inf(r_u), inf(r_dyn)
