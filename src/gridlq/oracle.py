"""Dense references and dense diagnostics, the checks the structured solver
is verified against. Built dense straight from the problem data, they share
only the ``GridLayout`` index map with the solver core; the dense
diagnostics take the core's operators and densify them. All are guarded by
an overridable dimension cap since their cost and memory grow cubically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DENSE_GUARD, NotPositiveDefiniteError, guard
from .grid_problem import GridLQProblem, GridLayout, TrajectorySolution

# (direction, row step, column step) to the state each coupling multiplies;
# kept apart from the core's table, so the two agree only by the convention
_DIRECTIONS = (("west", 0, -1), ("east", 0, 1), ("north", -1, 0), ("south", 1, 0))


def _coupling_terms(problem: GridLQProblem, lay: GridLayout, i, j, t):
    """Stage-t coupling terms of subsystem (i, j), in direction order:
    ``(block, neighbour state slice, None)`` for a neighbour on the grid and
    ``(block, None, boundary signal)`` for a declared boundary trajectory."""
    sub = problem.sub(i, j)
    for direction, di, dj in _DIRECTIONS:
        blocks = sub.coupling(direction)
        if blocks is None:
            continue
        ni, nj = i + di, j + dj
        if 0 <= ni < problem.K and 0 <= nj < problem.N:
            yield np.asarray(blocks[t]), lay.x_slice(ni, nj, t), None
            continue
        traj = getattr(problem.boundary, direction)
        if traj is not None:
            sig = traj[j if di else i][t]
            yield np.asarray(blocks[t]), None, np.asarray(sig, dtype=float)


def simulate_states(problem: GridLQProblem, layout: GridLayout, u_flat):
    """Forward-simulate the grid dynamics under the given inputs.

    Walks the update equations subsystem by subsystem straight from the
    problem data (couplings, boundary trajectories, initial states), so it
    is independent of the stacked assembly and pins down its conventions.
    """
    K, N, T = problem.K, problem.N, problem.T
    x = np.zeros(layout.n_total)
    for i in range(K):
        for j in range(N):
            x[layout.x_slice(i, j, 0)] = np.asarray(problem.boundary.init[i][j], dtype=float)
    for t in range(T):
        for i in range(K):
            for j in range(N):
                sub = problem.sub(i, j)
                nxt = np.asarray(sub.A[t]) @ x[layout.x_slice(i, j, t)]
                nxt += np.asarray(sub.B[t]) @ u_flat[layout.u_slice(i, j, t)]
                for block, nbr, sig in _coupling_terms(problem, layout, i, j, t):
                    nxt += block @ (sig if nbr is None else x[nbr])
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
                for block, nbr, sig in _coupling_terms(problem, lay, i, j, t):
                    if nbr is None:
                        offset[rows] += block @ sig
                    else:
                        a[rows, nbr] = block
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
    return TrajectorySolution(layout=lay, x_flat=x, u_flat=u, multipliers=lam,
                              objective_value=objective)


# ---------------------------------------------------------------------------
# closed-form cross-check of the stage-diagonal blocks


def _dense_col_dyn(problem, lay, t, j):
    """Dense column operators at stage t: within-column map, west map,
    east map (None when the column has no such coupling)."""
    K = problem.K
    nb = lay.nbar[j]
    a = np.zeros((nb, nb))
    off = lay.sub_x_offset[j]
    for i in range(K):
        sub = problem.sub(i, j)
        a[off[i] : off[i + 1], off[i] : off[i + 1]] = sub.A[t]
        if i > 0 and sub.north is not None:
            a[off[i] : off[i + 1], off[i - 1] : off[i]] = sub.north[t]
        if i < K - 1 and sub.south is not None:
            a[off[i] : off[i + 1], off[i + 1] : off[i + 2]] = sub.south[t]

    def diag_dir(direction, jc):
        if not (0 <= jc < problem.N):
            return None
        cols = lay.sub_x_offset[jc]
        out = np.zeros((nb, lay.nbar[jc]))
        seen = False
        for i in range(K):
            blocks = problem.sub(i, j).coupling(direction)
            if blocks is None:
                continue
            seen = True
            out[off[i] : off[i + 1], cols[i] : cols[i + 1]] = blocks[t]
        return out if seen else None

    return a, diag_dir("west", j - 1), diag_dir("east", j + 1)


def reference_stage_block(problem: GridLQProblem, t, j, jc):
    """Closed-form dense value of the stage-t diagonal's (j, jc) block,
    built directly from per-column formulas.

    Independent of the banded assembly path: column operators are formed
    dense straight from the problem data and combined per the elimination
    formulas (within-column, one-apart and two-apart cases), including the
    cost-inverse and input block-diagonal terms on the main case. Only
    stages t >= 1 carry dynamics data (at stage index t - 1).
    """
    if not 1 <= t <= problem.T:
        raise ValueError("closed form applies to stages 1..T")
    if not 0 <= j - jc <= 2:
        raise ValueError("blocks exist for 0 <= j - jc <= 2")
    lay = GridLayout(problem)
    td = t - 1

    def qinv_col(jq):
        off = lay.sub_x_offset[jq]
        out = np.zeros((lay.nbar[jq], lay.nbar[jq]))
        for i in range(problem.K):
            out[off[i] : off[i + 1], off[i] : off[i + 1]] = np.linalg.inv(
                np.asarray(problem.sub(i, jq).Q[td], dtype=float)
            )
        return out

    a_j, w_j, e_j = _dense_col_dyn(problem, lay, td, j)
    if jc == j:
        out = a_j @ qinv_col(j) @ a_j.T
        if w_j is not None:
            out = out + w_j @ qinv_col(j - 1) @ w_j.T
        if e_j is not None:
            out = out + e_j @ qinv_col(j + 1) @ e_j.T
        off = lay.sub_x_offset[j]
        for i in range(problem.K):
            sub = problem.sub(i, j)
            sl = slice(off[i], off[i + 1])
            out[sl, sl] += np.linalg.inv(np.asarray(sub.Q[t], dtype=float))
            b = np.asarray(sub.B[td], dtype=float)
            out[sl, sl] += b @ np.linalg.inv(np.asarray(sub.R[td], dtype=float)) @ b.T
        return out
    a_c, _, e_c = _dense_col_dyn(problem, lay, td, jc)
    out = np.zeros((lay.nbar[j], lay.nbar[jc]))
    if jc == j - 1:
        if w_j is not None:
            out = out + w_j @ qinv_col(jc) @ a_c.T
        if e_c is not None:
            out = out + a_j @ qinv_col(j) @ e_c.T
    elif w_j is not None and e_c is not None:
        out = out + w_j @ qinv_col(j - 1) @ e_c.T
    return out


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


def condition_numbers(schur, precond, max_dim=DENSE_GUARD) -> ConditioningReport:
    """Extreme eigenvalues and condition numbers of the reduced operator
    and of its preconditioned transform.

    ``schur`` is any operator with ``densify(max_dim)`` and ``precond`` any
    map with ``materialize(max_dim)``, each returning its dense matrix. The
    preconditioned spectrum is computed from L' D L with L the Cholesky
    factor of the materialized preconditioner map, which shares its
    spectrum with the symmetric split preconditioned operator without
    forming matrix square roots.
    """
    dense = schur.densify(max_dim)
    evals = np.linalg.eigvalsh(dense)
    lo, hi = float(evals[0]), float(evals[-1])
    pmat = precond.materialize(max_dim)
    f = np.linalg.cholesky(0.5 * (pmat + pmat.T))
    m = f.T @ dense @ f
    pevals = np.linalg.eigvalsh(0.5 * (m + m.T))
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
    """Dense blocks of a stencil from stage t into stage t + shift, stacked
    over every t with both stages on the grid; densified once."""
    dense = stencil.densify()
    return np.stack([dense[layout.stage_x_slice(t + shift), layout.stage_x_slice(t)]
                     for t in range(layout.T + 1 - shift)])


def splitting_spectral_radii(schur, splitting, max_dim=DENSE_GUARD):
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

    The check of ``NestedJacobiPreconditioner.splitting_radii``.
    """
    guard(schur.dim, max_dim)
    lay = schur.layout
    linv = np.linalg.inv(np.linalg.cholesky(_stage_blocks(splitting.pair_diag, lay)))
    m = linv @ _stage_blocks(splitting.inner, lay) @ linv.swapaxes(-1, -2)
    rho_inner = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (m + m.swapaxes(-1, -2))))))

    linv = np.linalg.inv(np.linalg.cholesky(_stage_blocks(schur.diag, lay)))
    m = linv[1:] @ _stage_blocks(schur.outer, lay, shift=1) @ linv[:-1].swapaxes(-1, -2)
    odd = (lay.T + 1) // 2
    b = np.zeros((odd, lay.nhat, lay.T + 1 - odd, lay.nhat))
    for t in range(lay.T):
        # row: odd stage t or t + 1; column: the even one
        b[t // 2, :, (t + 1) // 2] = m[t] if t % 2 == 0 else m[t].T
    b = b.reshape(odd * lay.nhat, -1)
    rho_outer = float(np.sqrt(np.linalg.eigvalsh(b @ b.T)[-1]))
    return rho_inner, rho_outer
