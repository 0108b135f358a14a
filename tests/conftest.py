from dataclasses import replace

import numpy as np
import pytest

from gridlq import (
    BoundaryData,
    GridLQProblem,
    SubsystemData,
    build_schur,
    build_stacked,
    generate_msd_case,
)


def make_uncoupled_problem(K=1, N=1, T=2, n=2, m=1, a_scale=0.0, q_scale=1.0,
                           init_scale=0.0, seed=None):
    """Tiny problem with no spatial coupling; a_scale=0 gives an identity
    reduced operator when q_scale=1 and the input matrix is zero."""
    rng = np.random.default_rng(seed) if seed is not None else None
    subsystems = []
    init = []
    for i in range(K):
        row, init_row = [], []
        for j in range(N):
            a = a_scale * np.eye(n)
            b = np.zeros((n, m)) if a_scale == 0.0 else 0.1 * np.ones((n, m))
            row.append(
                SubsystemData(
                    n=n, m=m,
                    A=[a] * T,
                    B=[b] * T,
                    Q=[q_scale * np.eye(n)] * (T + 1),
                    R=[np.eye(m)] * T,
                )
            )
            if rng is not None:
                init_row.append(rng.uniform(-1, 1, n) * init_scale)
            else:
                init_row.append(init_scale * np.ones(n))
        subsystems.append(row)
        init.append(init_row)
    return GridLQProblem(K, N, T, subsystems, BoundaryData(init=init))


def make_scalar_chain(a=0.7, b=0.5, q=2.0, r=3.0, T=1):
    """K=N=1 scalar subsystem; the stage blocks have closed forms."""
    sub = SubsystemData(
        n=1, m=1,
        A=[np.array([[a]])] * T,
        B=[np.array([[b]])] * T,
        Q=[np.array([[q]])] * (T + 1),
        R=[np.array([[r]])] * T,
    )
    boundary = BoundaryData(init=[[np.array([1.0])]])
    return GridLQProblem(1, 1, T, [[sub]], boundary)


def make_boundary_problem(K=2, N=2, T=2):
    """Small grid with boundary-facing couplings and nonzero boundary
    trajectories on all four edges."""
    rng = np.random.default_rng(42)
    n, m = 2, 1
    couple = 0.05 * np.eye(n)
    subsystems = []
    init = []
    for i in range(K):
        row, init_row = [], []
        for j in range(N):
            a = np.eye(n) + 0.1 * rng.uniform(-0.5, 0.5, (n, n))
            row.append(
                SubsystemData(
                    n=n, m=m,
                    A=[a] * T,
                    B=[0.1 * np.ones((n, m))] * T,
                    Q=[np.eye(n)] * (T + 1),
                    R=[np.eye(m)] * T,
                    west=[couple] * T,
                    east=[couple] * T,
                    north=[couple] * T,
                    south=[couple] * T,
                )
            )
            init_row.append(rng.uniform(-1, 1, n))
        subsystems.append(row)
        init.append(init_row)
    boundary = BoundaryData(
        init=init,
        north=[[rng.uniform(-1, 1, n) for _ in range(T)] for _ in range(N)],
        south=[[rng.uniform(-1, 1, n) for _ in range(T)] for _ in range(N)],
        west=[[rng.uniform(-1, 1, n) for _ in range(T)] for _ in range(K)],
        east=[[rng.uniform(-1, 1, n) for _ in range(T)] for _ in range(K)],
    )
    return GridLQProblem(K, N, T, subsystems, boundary)


def make_padded_tiny_q_problem():
    """msd 2x2x2 with subsystem (0, 0) shrunk to n = 2, m = 1 and
    Q = 1e-20 I: SPD as given, but not once unit-padded to n = 4, where the
    padding's unit diagonal lifts the relative pivot threshold to 1e-14."""
    p = generate_msd_case(2, 2, 2, seed=0)
    sub = p.sub(0, 0)
    sub.n, sub.m = 2, 1
    sub.A = [a[:2, :2] for a in sub.A]
    sub.B = [b[:2, :1] for b in sub.B]
    sub.Q = [1e-20 * np.eye(2)] * 3
    sub.R = [r[:1, :1] for r in sub.R]
    sub.east = [c[:2] for c in sub.east]
    sub.south = [c[:2] for c in sub.south]
    p.sub(0, 1).west = [c[:, :2] for c in p.sub(0, 1).west]
    p.sub(1, 0).north = [c[:, :2] for c in p.sub(1, 0).north]
    p.boundary.init[0][0] = p.boundary.init[0][0][:2]
    return p


# each direction and the one it becomes when rows and columns swap
TRANSPOSED = {"west": "north", "north": "west", "east": "south", "south": "east"}


def transpose(problem):
    """The same problem with rows and columns swapped: subsystem (i, j)
    becomes (j, i), K and N swap, and west/north and east/south swap, in
    the couplings and the boundary data alike."""
    subs = [[replace(problem.sub(i, j), **{TRANSPOSED[d]: problem.sub(i, j).coupling(d)
                                            for d in TRANSPOSED})
             for i in range(problem.K)] for j in range(problem.N)]
    bnd = problem.boundary
    init = [[bnd.init[i][j] for i in range(problem.K)] for j in range(problem.N)]
    edges = {TRANSPOSED[d]: getattr(bnd, d) for d in TRANSPOSED}
    return GridLQProblem(problem.N, problem.K, problem.T, subs, BoundaryData(init=init, **edges))


def column_pairs(N):
    """The preconditioner's column pairs (j, j + 1), j even, over N grid
    columns; the last pair is a singleton when N is odd. This describes
    K <= N grids: when K > N the rows are paired instead."""
    return [tuple(range(j, min(j + 2, N))) for j in range(0, N, 2)]


@pytest.fixture(scope="session")
def msd_223():
    return generate_msd_case(2, 2, 2, seed=3)


@pytest.fixture(scope="session")
def msd_333():
    return generate_msd_case(3, 3, 3, seed=1)


@pytest.fixture(scope="session")
def msd_333_ops():
    problem = generate_msd_case(3, 3, 3, seed=1)
    stacked = build_stacked(problem)
    schur = build_schur(stacked)
    return problem, stacked, schur
