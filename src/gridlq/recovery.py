"""Primal recovery, optimality residuals, and dense oracle diagnostics.

Everything in here that is labelled an oracle assembles its operators
dense, straight from the problem data, without touching the stencil
assembly machinery; the two paths share only the natural index layout. Dense
routines are guarded by an overridable dimension cap since their cost and
memory grow cubically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionGuardError, NotPositiveDefiniteError
from .grid_problem import GridLQProblem, GridLayout
from .kkt_assembly import PairSplitting, SchurOperator, StackedSystem

ORACLE_GUARD = 2000


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


def dense_reference_solve(problem: GridLQProblem, max_dim=ORACLE_GUARD) -> TrajectorySolution:
    """Direct dense solve of the optimality system; the oracle every
    iterative path is checked against."""
    lay = GridLayout(problem)
    if lay.n_total > max_dim:
        raise DimensionGuardError(
            f"dense reference solve of dimension {lay.n_total} exceeds cap {max_dim}"
        )
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


def condition_numbers(schur: SchurOperator, precond, max_dim=ORACLE_GUARD) -> ConditioningReport:
    """Extreme eigenvalues and condition numbers of the reduced operator
    and of its preconditioned transform.

    The preconditioned spectrum is computed from L' D L with L the
    Cholesky factor of the materialized preconditioner map, which shares
    its spectrum with the symmetric split preconditioned operator without
    forming matrix square roots.
    """
    if schur.dim > max_dim:
        raise DimensionGuardError(
            f"conditioning of dimension {schur.dim} exceeds cap {max_dim}"
        )
    dense = schur.densify(max_dim)
    evals = np.linalg.eigvalsh(dense)
    lo, hi = float(evals[0]), float(evals[-1])
    pmat = precond.materialize(max_dim)
    lfac = np.linalg.cholesky(0.5 * (pmat + pmat.T))
    transformed = lfac.T @ dense @ lfac
    pevals = np.linalg.eigvalsh(0.5 * (transformed + transformed.T))
    plo, phi = float(pevals[0]), float(pevals[-1])
    return ConditioningReport(
        kappa_delta=hi / lo,
        kappa_preconditioned=phi / plo,
        lambda_min_delta=lo,
        lambda_max_delta=hi,
        lambda_min_preconditioned=plo,
        lambda_max_preconditioned=phi,
    )


def spectral_radius(operator, dim=None, max_dim=ORACLE_GUARD):
    """Largest eigenvalue magnitude of a dense matrix or of a linear map
    given as a callable together with its dimension."""
    if callable(operator):
        if dim is None:
            raise ValueError("a callable operator needs its dimension")
        if dim > max_dim:
            raise DimensionGuardError(f"dimension {dim} exceeds cap {max_dim}")
        mat = operator(np.eye(dim))
    else:
        mat = np.asarray(operator, dtype=float)
        if mat.shape[0] > max_dim:
            raise DimensionGuardError(
                f"dimension {mat.shape[0]} exceeds cap {max_dim}"
            )
    if mat.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


def splitting_spectral_radii(schur: SchurOperator, splitting: PairSplitting,
                             max_dim=ORACLE_GUARD):
    """Spectral radii of the two stationary iteration matrices:
    (pair-diagonal)^-1 (inter-pair couplings) and
    (stage-diagonal)^-1 (stage couplings)."""
    dense = schur.densify(max_dim)
    stage_diag = schur.densify_block_diag(max_dim)
    outer = stage_diag - dense
    rho_outer = spectral_radius(np.linalg.solve(stage_diag, outer), max_dim=max_dim)
    pair_diag = splitting.densify_pair_diag(max_dim)
    inner = pair_diag - stage_diag
    rho_inner = spectral_radius(np.linalg.solve(pair_diag, inner), max_dim=max_dim)
    return rho_inner, rho_outer
