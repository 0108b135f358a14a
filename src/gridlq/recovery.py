"""Primal recovery, optimality residuals and the splitting radii.

The splitting radii work on per-stage blocks: T+1 eigenproblems of size
nhat for the inner radius and one even/odd-stage singular value, of size
floor((T+1)/2)·nhat, for the outer one. They are guarded by the dense
dimension cap.
"""

from __future__ import annotations

import numpy as np

from .errors import DENSE_GUARD, guard
from .grid_problem import TrajectorySolution
from .kkt_assembly import PairSplitting, SchurOperator, StackedSystem


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


def _stage_blocks(stencil, layout, shift=0):
    """Dense blocks of a stencil from stage t into stage t + shift, for every
    t with both stages on the grid; the stencil is densified once."""
    dense = stencil.densify()
    return [dense[layout.stage_x_slice(t + shift), layout.stage_x_slice(t)]
            for t in range(layout.T + 1 - shift)]


def splitting_spectral_radii(schur: SchurOperator, splitting: PairSplitting,
                             max_dim=DENSE_GUARD):
    """Spectral radii of the two stationary iteration matrices:
    (pair-diagonal)^-1 (inter-pair couplings) and
    (stage-diagonal)^-1 (stage couplings).

    D^-1 C, with D SPD and C symmetric, is similar to L^-1 C L^-T with L
    the Cholesky factor of D, whose spectrum is real. Both radii are taken
    stage by stage, so no matrix of the full dimension (T+1)·nhat is
    factored or eigen-decomposed:

    - the pair diagonal and the inter-pair couplings never couple stages,
      so the inner radius is the largest of T+1 symmetric eigenproblems of
      size nhat;
    - the stage couplings join stage t to t ± 1 only, so L^-1 C L^-T has a
      zero block diagonal over a block tri-diagonal chain and is 2-cyclic:
      its eigenvalues are ± the singular values of B, the blocks
      L_s^-1 C_se L_e^-T from even stages e into odd stages s. The outer
      radius is sqrt(λ_max(B B')), one eigenproblem of size
      floor((T+1)/2)·nhat.

    That is T+1 factorizations and eigenproblems of size nhat, O((T+1)·nhat^3),
    plus one eigenproblem of half the full dimension, about an eighth of
    the cost of a full-dimension one, and one dense view of each stencil.
    """
    guard(schur.dim, max_dim)
    lay = schur.layout
    rho_inner = 0.0
    for d, c in zip(_stage_blocks(splitting.pair_diag, lay),
                    _stage_blocks(splitting.inner, lay)):
        linv = np.linalg.inv(np.linalg.cholesky(d))
        m = linv @ c @ linv.T
        evals = np.linalg.eigvalsh(0.5 * (m + m.T))
        rho_inner = max(rho_inner, float(np.max(np.abs(evals))))

    linv = [np.linalg.inv(np.linalg.cholesky(d)) for d in _stage_blocks(schur.diag, lay)]
    odd = (lay.T + 1) // 2
    b = np.zeros((odd, lay.nhat, lay.T + 1 - odd, lay.nhat))
    for t, c in enumerate(_stage_blocks(schur.outer, lay, shift=1)):
        m = linv[t + 1] @ c @ linv[t].T
        # row: odd stage t or t + 1; column: the even one
        b[t // 2, :, (t + 1) // 2] = m if t % 2 == 0 else m.T
    b = b.reshape(odd * lay.nhat, -1)
    rho_outer = float(np.sqrt(np.linalg.eigvalsh(b @ b.T)[-1]))
    return rho_inner, rho_outer
