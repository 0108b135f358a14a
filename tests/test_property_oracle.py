"""Random problems across what the problem format allows, solved by every
structured path and checked against the dense oracle.

The ranges cover heterogeneous state and input sizes per subsystem, odd K
and N, T = 1, couplings present or absent per subsystem and direction,
boundary trajectories on or off, and SPD cost weights that are not the
identity. Hypothesis draws the shape and a seed; the seed draws the data.
"""

import numpy as np
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
    pcg_solve,
    recover_solution,
    simulate_states,
    validate,
)

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


@settings(max_examples=40, derandomize=True, deadline=None)
@given(K=st.integers(1, 4), N=st.integers(1, 4), T=st.integers(1, 3),
       boundary_on=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_structured_solvers_match_dense_oracle(K, N, T, boundary_on, seed):
    problem = random_problem(K, N, T, boundary_on, seed)
    assert validate(problem) == []
    reference = dense_reference_solve(problem)
    stacked = build_stacked(problem)
    schur = build_schur(stacked)
    precond = NestedJacobiPreconditioner(schur, inner_sweeps=2, outer_sweeps=2)
    solutions = {
        "pcgm": pcg_solve(schur, precond, stacked.offset, tol=1e-11)[0],
        "cg": cg_solve(schur, stacked.offset, tol=1e-11)[0],
        "nbjm": precond.solve(stacked.offset, tol=1e-13)[0],
    }
    for name, lam in solutions.items():
        assert rel_err(lam, reference.multipliers) <= 1e-6, name
        sol = recover_solution(stacked, lam)
        assert rel_err(sol.x_flat, reference.x_flat) <= 1e-6, name
        assert rel_err(sol.u_flat, reference.u_flat) <= 1e-6, name
        sim = simulate_states(problem, stacked.layout, sol.u_flat)
        scale = max(1.0, float(np.max(np.abs(sol.x_flat))))
        assert float(np.max(np.abs(sim - sol.x_flat))) <= 1e-6 * scale, name
