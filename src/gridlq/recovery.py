"""Primal recovery from the multipliers, and the first-order optimality
residuals of a recovered trajectory, both on the padded stacks of
``StackedSystem``: each operand is padded once, and each result is unpadded
once to the natural layout."""

from __future__ import annotations

import numpy as np

from .block_linalg import transposed
from .grid_problem import TrajectorySolution
from .kkt_assembly import StackedSystem


def recover_solution(stacked: StackedSystem, multipliers) -> TrajectorySolution:
    """Primal trajectory from converged multipliers.

    x = -Qinv (A' lam), u = -Rinv (B' lam), evaluated block-wise on the
    padded multipliers.
    """
    multipliers = np.asarray(multipliers, dtype=float)
    xpad, upad = stacked.xpad, stacked.upad
    lp = xpad.pad(multipliers)
    xp = -(stacked.qinv @ stacked.constraint_t.product(lp))
    up = -(stacked.rinv @ (transposed(stacked.b) @ lp[1:]))
    x, u = xpad.unpad(xp, True), upad.unpad(up, True)
    cost = x @ xpad.unpad(stacked.q @ xp, True) + u @ upad.unpad(stacked.r @ up, True)
    return TrajectorySolution(
        layout=stacked.layout,
        x_flat=x,
        u_flat=u,
        multipliers=multipliers,
        objective_value=0.5 * float(cost),
    )


def kkt_residual(stacked: StackedSystem, sol: TrajectorySolution):
    """Infinity norms of the three first-order optimality residuals:
    state stationarity, input stationarity, and dynamics feasibility."""
    xpad, upad = stacked.xpad, stacked.upad
    lp, xp, up = xpad.pad(sol.multipliers), xpad.pad(sol.x_flat), upad.pad(sol.u_flat)
    r_x = stacked.q @ xp + stacked.constraint_t.product(lp)
    r_u = stacked.r @ up + transposed(stacked.b) @ lp[1:]
    r_dyn = stacked.constraint.product(xp)
    r_dyn[1:] += stacked.b @ up
    inf = lambda v: float(np.max(np.abs(v))) if v.size else 0.0
    return (inf(xpad.unpad(r_x, True)), inf(upad.unpad(r_u, True)),
            inf(xpad.unpad(r_dyn, True) + stacked.offset))
