"""Primal recovery, optimality residuals, and dense oracle diagnostics.

Everything in here that is labelled an oracle assembles its operators
dense, straight from the problem data, without touching the stencil
assembly machinery; the two paths share only the natural index layout. Dense
routines are guarded by an overridable dimension cap since their cost and
memory grow cubically. The splitting radii work on per-stage blocks: T+1
eigenproblems of size nhat for the inner radius and one even/odd-stage
singular value, of size floor((T+1)/2)·nhat, for the outer one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError
from .grid_problem import GridLQProblem, GridLayout
from .kkt_assembly import DENSE_GUARD, PairSplitting, SchurOperator, StackedSystem, guard


@dataclass
class TrajectorySolution:
    """Recovered primal trajectory plus the multipliers it came from."""

    layout: GridLayout
    x_flat: np.ndarray
    u_flat: np.ndarray
    multipliers: np.ndarray
    objective_value: float

    def state(self, i, j):
        """States of subsystem (i, j) as a (T+1, n) array."""
        lay = self.layout
        return np.stack(
            [self.x_flat[lay.x_slice(i, j, t)] for t in range(lay.T + 1)]
        )

    def input(self, i, j):
        """Inputs of subsystem (i, j) as a (T, m) array."""
        lay = self.layout
        return np.stack([self.u_flat[lay.u_slice(i, j, t)] for t in range(lay.T)])


def _objective(stacked: StackedSystem, x, u):
    return 0.5 * float(x @ stacked.apply_cost_x(x) + u @ stacked.apply_cost_u(u))


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
        objective_value=_objective(stacked, x, u),
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


def simulate_states(problem: GridLQProblem, layout: GridLayout, u_flat):
    """Forward-simulate the grid dynamics under the given inputs.

    Walks the update equations subsystem by subsystem straight from the
    problem data (couplings, boundary trajectories, initial states), so it
    is independent of the stacked assembly and pins down its conventions.
    """
    K, N, T = problem.K, problem.N, problem.T
    bnd = problem.boundary
    x = np.zeros(layout.n_total)
    for i in range(K):
        for j in range(N):
            x[layout.x_slice(i, j, 0)] = np.asarray(bnd.init[i][j], dtype=float)
    for t in range(T):
        for i in range(K):
            for j in range(N):
                sub = problem.sub(i, j)
                nxt = np.asarray(sub.A[t]) @ x[layout.x_slice(i, j, t)]
                nxt += np.asarray(sub.B[t]) @ u_flat[layout.u_slice(i, j, t)]
                for direction, (ni, nj) in (
                    ("west", (i, j - 1)),
                    ("east", (i, j + 1)),
                    ("north", (i - 1, j)),
                    ("south", (i + 1, j)),
                ):
                    blocks = sub.coupling(direction)
                    if blocks is None:
                        continue
                    if 0 <= ni < K and 0 <= nj < N:
                        nxt += np.asarray(blocks[t]) @ x[layout.x_slice(ni, nj, t)]
                    else:
                        traj = getattr(bnd, direction)
                        if traj is None:
                            continue
                        sig = traj[j if direction in ("north", "south") else i][t]
                        nxt += np.asarray(blocks[t]) @ np.asarray(sig, dtype=float)
                x[layout.x_slice(i, j, t + 1)] = nxt
    return x


# ---------------------------------------------------------------------------
# dense oracle


def _dense_kkt(problem: GridLQProblem, lay: GridLayout):
    """Dense stacked operators built directly from the problem data."""
    nt, mt = lay.n_total, lay.m_total
    K, N, T = problem.K, problem.N, problem.T
    a = np.zeros((nt, nt))
    b = np.zeros((nt, mt))
    q = np.zeros((nt, nt))
    r = np.zeros((mt, mt))
    offset = np.zeros(nt)

    for t in range(T + 1):
        s = lay.stage_x_slice(t)
        a[s, s] = -np.eye(lay.nhat)
    for i in range(K):
        for j in range(N):
            sub = problem.sub(i, j)
            offset[lay.x_slice(i, j, 0)] = np.asarray(
                problem.boundary.init[i][j], dtype=float
            )
            for t in range(T + 1):
                q[lay.x_slice(i, j, t), lay.x_slice(i, j, t)] = sub.Q[t]
            for t in range(T):
                rows = lay.x_slice(i, j, t + 1)
                a[rows, lay.x_slice(i, j, t)] = sub.A[t]
                b[rows, lay.u_slice(i, j, t)] = sub.B[t]
                r[lay.u_slice(i, j, t), lay.u_slice(i, j, t)] = sub.R[t]
                for direction, (ni, nj) in (
                    ("west", (i, j - 1)),
                    ("east", (i, j + 1)),
                    ("north", (i - 1, j)),
                    ("south", (i + 1, j)),
                ):
                    blocks = sub.coupling(direction)
                    if blocks is None:
                        continue
                    if 0 <= ni < K and 0 <= nj < N:
                        a[rows, lay.x_slice(ni, nj, t)] = blocks[t]
                    else:
                        traj = getattr(problem.boundary, direction)
                        if traj is None:
                            continue
                        sig = traj[j if direction in ("north", "south") else i][t]
                        offset[rows] += np.asarray(blocks[t]) @ np.asarray(sig, dtype=float)
    return a, b, q, r, offset


def dense_reference_solve(problem: GridLQProblem, max_dim=DENSE_GUARD) -> TrajectorySolution:
    """Direct dense solve of the optimality system; the oracle every
    iterative path is checked against."""
    lay = GridLayout(problem)
    guard(lay.n_total, max_dim)
    a, b, q, r, offset = _dense_kkt(problem, lay)
    delta_mat = a @ np.linalg.solve(q, a.T) + b @ np.linalg.solve(r, b.T)
    delta_mat = 0.5 * (delta_mat + delta_mat.T)
    try:
        np.linalg.cholesky(delta_mat)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "densified reduced operator is not positive definite"
        ) from exc
    lam = np.linalg.solve(delta_mat, offset)
    x = -np.linalg.solve(q, a.T @ lam)
    u = -np.linalg.solve(r, b.T @ lam)
    objective = 0.5 * float(x @ q @ x + u @ r @ u)
    return TrajectorySolution(
        layout=lay,
        x_flat=x,
        u_flat=u,
        multipliers=lam,
        objective_value=objective,
    )


# ---------------------------------------------------------------------------
# conditioning diagnostics


@dataclass
class ConditioningReport:
    kappa_delta: float
    kappa_preconditioned: float
    lambda_min_delta: float
    lambda_max_delta: float
    lambda_min_preconditioned: float
    lambda_max_preconditioned: float


def _congruence_eigvalsh(a, f):
    """Ascending eigenvalues of the symmetric part of F' A F."""
    m = f.T @ a @ f
    return np.linalg.eigvalsh(0.5 * (m + m.T))


def condition_numbers(schur: SchurOperator, precond, max_dim=DENSE_GUARD) -> ConditioningReport:
    """Extreme eigenvalues and condition numbers of the reduced operator
    and of its preconditioned transform.

    The preconditioned spectrum is computed from L' D L with L the
    Cholesky factor of the materialized preconditioner map, which shares
    its spectrum with the symmetric split preconditioned operator without
    forming matrix square roots.
    """
    dense = schur.densify(max_dim)
    evals = np.linalg.eigvalsh(dense)
    lo, hi = float(evals[0]), float(evals[-1])
    pmat = precond.materialize(max_dim)
    pevals = _congruence_eigvalsh(dense, np.linalg.cholesky(0.5 * (pmat + pmat.T)))
    plo, phi = float(pevals[0]), float(pevals[-1])
    return ConditioningReport(
        kappa_delta=hi / lo,
        kappa_preconditioned=phi / plo,
        lambda_min_delta=lo,
        lambda_max_delta=hi,
        lambda_min_preconditioned=plo,
        lambda_max_preconditioned=phi,
    )


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
        rho_inner = max(rho_inner, float(np.max(np.abs(_congruence_eigvalsh(c, linv.T)))))

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
