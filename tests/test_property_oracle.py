"""Random problems across what the problem format allows, solved by every
structured path and checked against the dense oracle.

The ranges cover heterogeneous state and input sizes per subsystem, odd K
and N, T = 1, couplings present or absent per subsystem and direction,
boundary trajectories on or off, and SPD cost weights that are not the
identity. The splitting radii, dense and matrix-free, are checked against
the dense iteration matrices on every instance. Hypothesis draws the shape and a seed; the
seed draws the data.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridlq import (
    BoundaryData,
    GridLQProblem,
    NestedJacobiPreconditioner,
    SubsystemData,
    build_schur,
    build_stacked,
    cg_solve,
    dense_reference_solve,
    kkt_assembly,
    kkt_residual,
    pcg_solve,
    recover_solution,
    simulate_states,
    splitting_spectral_radii,
    validate,
)
from gridlq.kkt_assembly import DENSE_PAIR_ROWS
from gridlq.nested_jacobi import PAIRS

NEIGHBOURS = {"west": (0, -1), "east": (0, 1), "north": (-1, 0), "south": (1, 0)}


def random_spd(rng, n):
    g = rng.uniform(-1.0, 1.0, (n, n))
    return g @ g.T + rng.uniform(0.5, 2.0) * np.eye(n)


def random_problem(K, N, T, boundary_on, seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(1, 5, (K, N))
    m = rng.integers(1, 4, (K, N))
    # boundary signal length per edge direction and row/column index
    edge = {d: rng.integers(1, 4, K if d in ("west", "east") else N) for d in NEIGHBOURS}
    subsystems = []
    for i in range(K):
        row = []
        for j in range(N):
            ni, mi = int(n[i, j]), int(m[i, j])
            couplings = {}
            for d, (di, dj) in NEIGHBOURS.items():
                inside = 0 <= i + di < K and 0 <= j + dj < N
                if (not inside and not boundary_on) or rng.uniform() < 0.3:
                    continue
                width = n[i + di, j + dj] if inside else edge[d][j if di else i]
                couplings[d] = [0.2 * rng.uniform(-1.0, 1.0, (ni, width)) for _ in range(T)]
            row.append(SubsystemData(
                n=ni, m=mi,
                A=[rng.uniform(0.5, 1.0) * np.eye(ni) + 0.2 * rng.uniform(-1.0, 1.0, (ni, ni))
                   for _ in range(T)],
                B=[rng.uniform(-1.0, 1.0, (ni, mi)) for _ in range(T)],
                Q=[random_spd(rng, ni) for _ in range(T + 1)],
                R=[random_spd(rng, mi) for _ in range(T)],
                **couplings,
            ))
        subsystems.append(row)
    init = [[rng.uniform(-1.0, 1.0, n[i, j]) for j in range(N)] for i in range(K)]

    def trajectory(d, count):
        if not boundary_on:
            return None
        return [[rng.uniform(-1.0, 1.0, edge[d][k]) for _ in range(T)] for k in range(count)]

    boundary = BoundaryData(init=init, north=trajectory("north", N),
                            south=trajectory("south", N), west=trajectory("west", K),
                            east=trajectory("east", K))
    return GridLQProblem(K, N, T, subsystems, boundary)


def rel_err(got, want):
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-30)


def check_against_oracle(K, N, T, boundary_on, seed, mutate=None, inner_tol=1e-8):
    """Solve ``random_problem(K, N, T, boundary_on, seed)`` by every
    structured path and check each against the dense oracle, the radii
    against the dense iteration matrices; the matrix-free inner radius to
    ``inner_tol``. ``mutate(schur, precond)``, when given, alters the fresh
    set-up before the solves. Returns the preconditioner."""
    problem = random_problem(K, N, T, boundary_on, seed)
    assert validate(problem) == []
    reference = dense_reference_solve(problem)
    stacked = build_stacked(problem)
    schur = build_schur(stacked)
    precond = NestedJacobiPreconditioner(schur, inner_sweeps=2, outer_sweeps=2)
    if mutate is not None:
        mutate(schur, precond)
    lam, report = pcg_solve(schur, precond, stacked.offset, tol=1e-11)
    solutions = {
        "pcgm": lam,
        "cg": cg_solve(schur, stacked.offset, tol=1e-11)[0],
        "nbjm": precond.solve(stacked.offset, tol=1e-13)[0],
    }
    assert float(np.max(np.abs(schur.apply(solutions["nbjm"]) - stacked.offset))) < 1e-13
    for name, lam in solutions.items():
        assert rel_err(lam, reference.multipliers) <= 1e-6, name
        sol = recover_solution(stacked, lam)
        assert rel_err(sol.x_flat, reference.x_flat) <= 1e-6, name
        assert rel_err(sol.u_flat, reference.u_flat) <= 1e-6, name
        sim = simulate_states(problem, stacked.layout, sol.u_flat)
        scale = max(1.0, float(np.max(np.abs(sol.x_flat))))
        assert float(np.max(np.abs(sim - sol.x_flat))) <= 1e-6 * scale, name
        assert max(kkt_residual(stacked, sol)) <= 1e-9 * scale, name

    # the structured radii against D^-1 C of the full densified splitting
    split = precond.splitting
    rho_inner, rho_outer = splitting_spectral_radii(schur, split)
    for got, d, c in ((rho_inner, split.pair_diag, split.inner),
                      (rho_outer, schur.diag, schur.outer)):
        want = np.max(np.abs(np.linalg.eigvals(np.linalg.solve(d.densify(), c.densify()))))
        assert abs(got - want) <= 1e-10
    if max(K, N) <= 2:
        assert rho_inner == 0.0
    # the matrix-free estimates; the outer one is exact only for exact inner
    # solves, and L = 2 sweeps leave an error of order rho_inner^2
    inner, outer = precond.splitting_radii(report)
    assert abs(inner - rho_inner) <= inner_tol
    assert abs(outer - rho_outer) <= rho_inner**2 + 1e-6
    return precond


def check_pair_solve(precond):
    """The pair factor inverts the pair diagonal it was built from."""
    phi = precond.splitting.densify_pair_diag()
    x = np.random.default_rng(0).standard_normal(precond.dim)
    assert float(np.max(np.abs(precond.factors[PAIRS].solve(phi @ x) - x))) < 1e-10, "pair solve"


@settings(max_examples=40, derandomize=True, deadline=None)
@given(K=st.integers(1, 5), N=st.integers(1, 5), T=st.integers(1, 4),
       boundary_on=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_structured_solvers_match_dense_oracle(K, N, T, boundary_on, seed):
    check_against_oracle(K, N, T, boundary_on, seed)


def test_structured_solvers_match_dense_oracle_on_pair_sweeps():
    # every pair takes the block tri-diagonal sweep, none its dense inverse;
    # hypothesis refuses function-scoped fixtures, hence mock, not monkeypatch
    with mock.patch.object(kkt_assembly, "DENSE_PAIR_ROWS", 0):
        test_structured_solvers_match_dense_oracle()


@pytest.mark.parametrize("rows_longer", [False, True])
@settings(max_examples=4, derandomize=True, deadline=None)
@given(short=st.integers(9, 10), extra=st.integers(1, 3), T=st.integers(1, 2),
       boundary_on=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_deep_pairs_match_dense_oracle(rows_longer, short, extra, T, boundary_on, seed):
    # at least 9 lines across: more than DENSE_PAIR_ROWS block rows per pair,
    # so every instance sweeps; K > N pairs rows, K < N columns. The 30
    # Lanczos steps of the inner radius resolve it only to ~4e-8 at these
    # 500-800 unknowns (10 x 13 x 1, seed 43)
    K, N = (short + extra, short) if rows_longer else (short, short + extra)
    precond = check_against_oracle(K, N, T, boundary_on, seed, inner_tol=1e-6)
    assert precond.factors[PAIRS].cholesky is not None
    assert precond.splitting.axis == (2 if rows_longer else 1)
    check_pair_solve(precond)


# One fixed instance whose set-up each check below perturbs by 1e-3: the
# suite's checks must notice.
PROBE = (5, 4, 2, True, 7)


def test_oracle_check_catches_a_perturbed_operator():
    def perturb(schur, precond):
        # a stage-diagonal block whose source, column 0 and row 1, is on the grid
        schur.stencil.weights[(0, -2, 0)][1, 2, 1] += 1e-3

    check_against_oracle(*PROBE)
    with pytest.raises(AssertionError, match="pcgm"):
        check_against_oracle(*PROBE, mutate=perturb)


@pytest.mark.parametrize("dense_rows", [DENSE_PAIR_ROWS, 0])
def test_pair_solve_check_catches_a_perturbed_factor(dense_rows):
    # PCG converges under any SPD preconditioner, so a perturbed pair factor
    # passes the oracle check on this instance: the pair solve must fail
    with mock.patch.object(kkt_assembly, "DENSE_PAIR_ROWS", dense_rows):
        precond = NestedJacobiPreconditioner(build_schur(build_stacked(random_problem(*PROBE))))
    factor = precond.factors[PAIRS]
    assert (factor.inverse is None) == (dense_rows == 0)
    check_pair_solve(precond)
    if factor.inverse is not None:
        factor.inverse[0, 0] += 1e-3  # a rank-one SPD update of one pair's inverse
    else:
        factor.cholesky.linv[0, 0, 0] += 1e-3
    with pytest.raises(AssertionError, match="pair solve"):
        check_pair_solve(precond)
