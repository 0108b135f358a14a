"""Problem definition for LQ optimal control of a K x N grid of coupled
linear subsystems, its validation (one pass that also lays the data out on
``stencil``'s padded grid for ``build_stacked``), the stacked index layout,
the trajectory type solvers return, generators for the two benchmark
families and a JSON problem-file format.

Grid conventions: subsystem (i, j) sits in row i (0..K-1, "vertical") and
column j (0..N-1, "horizontal"). Direction names follow the grid: the
``west`` coupling matrix multiplies the state of (i, j-1), ``east`` that of
(i, j+1), ``north`` (i-1, j) and ``south`` (i+1, j). Missing neighbours at
the grid edge either couple to a declared boundary trajectory or the block
is simply absent.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .block_linalg import dense_cholesky
from .errors import DimensionMismatchError, InvalidProblemError, NotPositiveDefiniteError
from .stencil import Padding

# (row step, column step) from a subsystem to its neighbour in each direction
NEIGHBOURS = {"west": (0, -1), "east": (0, 1), "north": (-1, 0), "south": (1, 0)}
DIRECTIONS = tuple(NEIGHBOURS)

# Forward-Euler step shared by both generators.
EULER_STEP = 0.1


@dataclass
class SubsystemData:
    """Per-subsystem dynamics and cost data.

    A, B and the four coupling lists hold one matrix per stage t in 0..T-1;
    Q holds T+1 weights (a terminal weight exists, a terminal input does
    not), R holds T. A coupling attribute is either None (no neighbour
    influence in that direction) or a full list of T matrices whose column
    count matches the neighbour's state dimension.
    """

    n: int
    m: int
    A: list
    B: list
    Q: list
    R: list
    west: list | None = None
    east: list | None = None
    north: list | None = None
    south: list | None = None

    def coupling(self, direction):
        return getattr(self, direction)


@dataclass
class BoundaryData:
    """Boundary trajectories and initial states.

    ``init[i][j]`` is the required initial state of subsystem (i, j).
    ``north[j][t]`` / ``south[j][t]`` are the states of the virtual rows
    above and below the grid, ``west[i][t]`` / ``east[i][t]`` those of the
    virtual columns; each is None when the corresponding edge is unforced.
    Trajectories carry T entries (they only enter the stage updates).
    """

    init: list
    north: list | None = None
    south: list | None = None
    west: list | None = None
    east: list | None = None


@dataclass
class GridLQProblem:
    K: int
    N: int
    T: int
    subsystems: list
    boundary: BoundaryData

    def sub(self, i, j) -> SubsystemData:
        return self.subsystems[i][j]


class GridLayout:
    """Index map for the stacked state/input vectors.

    States stack column-major inside a stage (all rows of column 0, then
    column 1, ...), and stages stack in time: the full state vector has
    ``nhat * (T + 1)`` entries and the input vector ``mhat * T`` (there is
    no stage-T input).
    """

    def __init__(self, problem: GridLQProblem):
        self.K, self.N, self.T = problem.K, problem.N, problem.T
        self.n = [[problem.sub(i, j).n for j in range(self.N)] for i in range(self.K)]
        self.m = [[problem.sub(i, j).m for j in range(self.N)] for i in range(self.K)]
        self.col_n = [[self.n[i][j] for i in range(self.K)] for j in range(self.N)]
        self.col_m = [[self.m[i][j] for i in range(self.K)] for j in range(self.N)]
        self.nbar = [sum(c) for c in self.col_n]
        self.mbar = [sum(c) for c in self.col_m]
        self.nhat = sum(self.nbar)
        self.mhat = sum(self.mbar)
        self.n_total = self.nhat * (self.T + 1)
        self.m_total = self.mhat * self.T

        self.col_x_offset = np.concatenate([[0], np.cumsum(self.nbar)]).astype(int)
        self.col_u_offset = np.concatenate([[0], np.cumsum(self.mbar)]).astype(int)
        self.sub_x_offset = [
            np.concatenate([[0], np.cumsum(c)]).astype(int) for c in self.col_n
        ]
        self.sub_u_offset = [
            np.concatenate([[0], np.cumsum(c)]).astype(int) for c in self.col_m
        ]

    def x_offset(self, i, j, t):
        return t * self.nhat + int(self.col_x_offset[j] + self.sub_x_offset[j][i])

    def u_offset(self, i, j, t):
        return t * self.mhat + int(self.col_u_offset[j] + self.sub_u_offset[j][i])

    def x_slice(self, i, j, t):
        o = self.x_offset(i, j, t)
        return slice(o, o + self.n[i][j])

    def u_slice(self, i, j, t):
        o = self.u_offset(i, j, t)
        return slice(o, o + self.m[i][j])

    def stage_x_slice(self, t):
        return slice(t * self.nhat, (t + 1) * self.nhat)

    def col_x_slice(self, j):
        """Column j's slice inside one stage vector."""
        return slice(int(self.col_x_offset[j]), int(self.col_x_offset[j + 1]))


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


# ---------------------------------------------------------------------------
# validation


def _shape(x):
    """``np.shape(x)``, or "ragged" for a nested list that has none."""
    try:
        return np.shape(x)
    except ValueError:
        return "ragged"


def _count(x):
    """``len(x)``, or "no" for a value that is not a sequence: a number,
    None or a mapping."""
    try:
        return "no" if isinstance(x, dict) else len(x)
    except TypeError:
        return "no"


def _checked(seq, count, shape, what, msgs):
    """``seq`` as one float array of ``count`` matrices of ``shape``, or None
    after recording why it is not one: a missing list, wrong stage count,
    wrong shapes (then named one matrix at a time) or non-finite entries."""
    if seq is None:
        msgs.append(f"{what} is missing")
        return None
    if (stages := _count(seq)) != count:
        msgs.append(f"{what} has {stages} stages, expected {count}")
        return None
    try:
        mats = np.asarray(seq, dtype=float)
    except (TypeError, ValueError):
        mats = None
    if mats is None or mats.shape != (count, *shape):
        bad = [f"{what}[{t}] shape {got}, expected {shape}"
               for t, mat in enumerate(seq) if (got := _shape(mat)) != shape]
        msgs.extend(bad or [f"{what} holds entries that are not numbers"])
        return None
    finite = np.isfinite(mats)
    if finite.all():
        return mats
    for t in np.flatnonzero(~finite.reshape(count, -1).all(axis=1)):
        msgs.append(f"{what}[{t}] has non-finite entries")
    return None


def _factored(stack, pad, field, msgs):
    """Cholesky factors of the unit-padded weight stack ``field``, in one
    batch with the factorization's pivot threshold; or None after naming each
    real weight that is not symmetric positive definite as it is padded."""
    try:
        return dense_cholesky(stack)
    except (DimensionMismatchError, NotPositiveDefiniteError):
        for i, j, t in np.ndindex(*pad.sizes.shape, len(stack)):
            try:
                dense_cholesky(stack[t, j, i])
            except DimensionMismatchError:
                msgs.append(f"subsystem ({i}, {j}): {field}[{t}]: not symmetric")
            except NotPositiveDefiniteError:
                msgs.append(f"subsystem ({i}, {j}): {field}[{t}]: not positive definite")
        return None


def _padded(problem, stacked=True):
    """Check ``problem`` and lay its data out on the padded grid in one pass.

    Each matrix sequence is converted once and checked. Nothing is sized by
    the declared dimensions before every check holds; then the checked arrays
    fill the padded stacks (A and on-grid couplings at stages 1..T, B,
    unit-padded Q and R, and ``offset``: initial states plus off-grid
    couplings applied to boundary trajectories; only Q and R unless
    ``stacked``), and Q and R are factored in one batch each. Returns the
    messages and, only when there are none, ``(xpad, upad, stacks, factors)``.
    """
    msgs = []
    K, N, T = problem.K, problem.N, problem.T
    if not all(isinstance(d, numbers.Integral) for d in (K, N, T)):
        msgs.append(f"grid dimensions K={K!r} N={N!r} T={T!r} are not integers")
        return msgs, None
    if K < 1 or N < 1 or T < 1:
        msgs.append(f"grid dimensions must be positive, got K={K} N={N} T={T}")
        return msgs, None
    if _count(problem.subsystems) != K or any(_count(r) != N for r in problem.subsystems):
        msgs.append("subsystem table does not match K x N")
        return msgs, None
    for i, j in np.ndindex(K, N):
        if not isinstance(problem.sub(i, j), SubsystemData):
            msgs.append(f"subsystems[{i}][{j}] is not a subsystem record")
    if msgs:
        return msgs, None

    # every declared boundary trajectory that passes its checks, (T, width)
    trajectories = {}
    for direction, count in (("north", N), ("south", N), ("west", K), ("east", K)):
        traj = getattr(problem.boundary, direction)
        if traj is None:
            continue
        if (entries := _count(traj)) != count:
            msgs.append(f"boundary.{direction} has {entries} entries, expected {count}")
            continue
        for idx, seq in enumerate(traj):
            what = f"boundary.{direction}[{idx}]"
            shape = _shape(seq[0]) if _count(seq) not in (0, "no") else None
            if shape is not None and (shape == "ragged" or len(shape) != 1):
                msgs.append(f"{what}[0] shape {shape}, expected a vector")
            elif (sig := _checked(seq, T, shape, what, msgs)) is not None:
                trajectories[direction, idx] = sig

    # (field, i, j, checked array), written into the stacks once all checks
    # hold; an "offset" array is an initial state or a (T, n) boundary term
    fills = []
    for i, j in np.ndindex(K, N):
        sub, tag = problem.sub(i, j), f"subsystem ({i}, {j})"
        n, m = sub.n, sub.m
        if not (isinstance(n, numbers.Integral) and isinstance(m, numbers.Integral)):
            msgs.append(f"{tag}: dimensions n={n!r} m={m!r} are not integers")
            continue
        if n < 1 or m < 1:
            msgs.append(f"{tag}: dimensions n={n} m={m} must be positive")
            continue
        for field, count, shape in (("A", T, (n, n)), ("B", T, (n, m)),
                                    ("Q", T + 1, (n, n)), ("R", T, (m, m))):
            mats = _checked(getattr(sub, field), count, shape, f"{tag}: {field}", msgs)
            if mats is not None:
                fills.append((field, i, j, mats))

        for direction, (di, dj) in NEIGHBOURS.items():
            blocks, sig = sub.coupling(direction), None
            if blocks is None:
                continue
            if 0 <= i + di < K and 0 <= j + dj < N:
                want = problem.sub(i + di, j + dj).n
            elif getattr(problem.boundary, direction) is None:
                msgs.append(f"{tag}: {direction} coupling points off-grid "
                            "but no boundary trajectory is declared")
                continue
            elif (sig := trajectories.get((direction, j if di else i))) is None:
                continue  # the trajectory failed its checks, already reported
            else:
                want = sig.shape[1]
            mats = _checked(blocks, T, (n, want), f"{tag}: {direction} coupling", msgs)
            if mats is not None and sig is None:
                fills.append((direction, i, j, mats))
            elif mats is not None and stacked:
                fills.append(("offset", i, j, (mats @ sig[..., None])[..., 0]))

    init = problem.boundary.init
    if _count(init) != K or any(_count(r) != N for r in init):
        msgs.append("boundary.init does not match K x N")
    else:
        for i, j in np.ndindex(K, N):
            got, want = _shape(init[i][j]), (problem.sub(i, j).n,)
            if got != want:
                msgs.append(f"initial state ({i}, {j}): shape {got}, expected {want}")
                continue
            try:
                x0 = np.asarray(init[i][j], dtype=float)
            except (TypeError, ValueError):
                msgs.append(f"initial state ({i}, {j}) holds entries that are not numbers")
                continue
            if not np.isfinite(x0).all():
                msgs.append(f"initial state ({i}, {j}) has non-finite entries")
            fills.append(("offset", i, j, x0))

    if msgs:
        return msgs, None
    sizes = np.array([[(sub.n, sub.m) for sub in row] for row in problem.subsystems])
    xpad, upad = Padding(sizes[..., 0], T + 1), Padding(sizes[..., 1], T)
    nb, mb, grid = xpad.block, upad.block, xpad.grid[1:]
    stacks = {"Q": np.tile(np.eye(nb), (T + 1, *grid, 1, 1)),
              "R": np.tile(np.eye(mb), (T, *grid, 1, 1))}
    if stacked:
        stacks.update({field: np.zeros((T + 1, *grid, nb, nb)) for field in ("A", *DIRECTIONS)},
                      B=np.zeros((T, *grid, nb, mb)), offset=np.zeros(xpad.shape))
    # drop each array once written, so later allocations reuse its memory:
    # holding all of them to the end raised the process's peak RSS
    fills.reverse()
    while fills:
        field, i, j, mats = fills.pop()
        if field in stacks:
            at = stacks[field][:, j, i]
            if field != "offset":
                at[-len(mats):, :mats.shape[1], :mats.shape[2]] = mats
            elif mats.ndim == 1:
                at[0, :len(mats)] = mats
            else:
                at[1:, :mats.shape[1]] += mats
    factors = [_factored(stacks[f], pad, f, msgs) for f, pad in (("Q", xpad), ("R", upad))]
    return msgs, None if msgs else (xpad, upad, stacks, factors)


def validate(problem: GridLQProblem) -> list:
    """Return a list of human-readable invariant violations; empty means valid.

    Checks shapes and stage counts, finiteness of every number, and that
    off-grid couplings have boundary data; then, once all of that holds,
    that the cost weights are SPD as ``build_stacked`` factors them, in the
    pass ``build_stacked`` runs, here building only the Q and R stacks.
    It never raises on the values themselves: a number or a ragged list
    where a table, sequence or matrix belongs, as a problem file may hold,
    gets a message that locates it.
    """
    return _padded(problem, stacked=False)[0]


# ---------------------------------------------------------------------------
# generators


def generate_msd_case(K, N, T, seed) -> GridLQProblem:
    """Heterogeneous planar mass-spring-damper grid.

    Each node is a point mass moving in the plane with states
    (px, vx, py, vy) and force inputs (fx, fy). Four spring-damper
    attachments per mass act independently per axis, one toward each grid
    direction; attachments without a grid neighbour anchor to a fixed wall
    at zero, so the boundary trajectories are identically zero and edge
    masses see the same local stiffness as interior ones. Mass, spring
    constant and damping coefficient are drawn uniformly from [0.8, 1.5]
    per node (a node's own parameters shape the forces it feels), and the
    continuous dynamics are discretized by forward Euler with step 0.1.
    Cost weights are Q = I and R = 2 I. Initial states are drawn uniformly
    from [-1, 1]. Identical seeds reproduce the problem bit for bit.
    """
    rng = np.random.default_rng(seed)
    h = EULER_STEP
    q_mat = np.eye(4)
    r_mat = 2.0 * np.eye(2)

    subsystems = []
    init = []
    for i in range(K):
        row = []
        init_row = []
        for j in range(N):
            mass, stiff, damp = rng.uniform(0.8, 1.5, size=3)
            gamma = rng.uniform(-1.0, 1.0, size=4)
            a = 4.0 * stiff / mass
            b = 4.0 * damp / mass
            a_cont = np.array(
                [
                    [0.0, 1.0, 0.0, 0.0],
                    [-a, -b, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 1.0],
                    [0.0, 0.0, -a, -b],
                ]
            )
            a_mat = np.eye(4) + h * a_cont
            b_mat = h * np.array(
                [[0.0, 0.0], [1.0 / mass, 0.0], [0.0, 0.0], [0.0, 1.0 / mass]]
            )
            couple = h * np.array(
                [
                    [0.0, 0.0, 0.0, 0.0],
                    [stiff / mass, damp / mass, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, stiff / mass, damp / mass],
                ]
            )
            row.append(
                SubsystemData(
                    n=4,
                    m=2,
                    A=[a_mat] * T,
                    B=[b_mat] * T,
                    Q=[q_mat] * (T + 1),
                    R=[r_mat] * T,
                    west=[couple] * T if j > 0 else None,
                    east=[couple] * T if j < N - 1 else None,
                    north=[couple] * T if i > 0 else None,
                    south=[couple] * T if i < K - 1 else None,
                )
            )
            init_row.append(gamma)
        subsystems.append(row)
        init.append(init_row)
    return GridLQProblem(K, N, T, subsystems, BoundaryData(init=init))


def generate_irrigation_case(K, N, T, seed=None) -> GridLQProblem:
    """Gravity-fed irrigation network under distant-downstream control.

    The first grid row models the head channel: pool (0, j) receives flow
    from pool (0, j-1) through its ``west`` coupling. Every column is a
    secondary channel whose pools feed through their ``south`` coupling,
    so east and north couplings are identically zero and the coupling
    pattern forms a spanning tree of the grid anchored at pool (0, 0).

    Each pool has four states (water-level error, its integral, and a
    two-stage low-pass actuator) and a scalar gate-flow input; the level
    responds to the local actuator and, with rate gain 0.2, to the
    upstream pool's actuator state, discretized by forward Euler with
    step 0.1. Cost weights are Q = I and R = 1. Initial level errors
    default to the deterministic pattern 1 / (1 + i + j); passing a seed
    draws all initial states uniformly from [-1, 1] instead.
    """
    h = EULER_STEP
    a_mat = np.array(
        [
            [1.0 - 0.2 * h, 0.0, 0.0, 0.5 * h],
            [h, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0 - h, 0.0],
            [0.0, 0.0, h, 1.0 - h],
        ]
    )
    b_mat = np.array([[0.0], [0.0], [h], [0.0]])
    couple = np.zeros((4, 4))
    couple[0, 3] = 0.2 * h
    q_mat = np.eye(4)
    r_mat = np.array([[1.0]])
    rng = np.random.default_rng(seed) if seed is not None else None

    subsystems = []
    init = []
    for i in range(K):
        row = []
        init_row = []
        for j in range(N):
            row.append(
                SubsystemData(
                    n=4,
                    m=1,
                    A=[a_mat] * T,
                    B=[b_mat] * T,
                    Q=[q_mat] * (T + 1),
                    R=[r_mat] * T,
                    west=[couple] * T if (i == 0 and j > 0) else None,
                    east=None,
                    north=None,
                    south=[couple] * T if i < K - 1 else None,
                )
            )
            if rng is None:
                gamma = np.array([1.0 / (1.0 + i + j), 0.0, 0.0, 0.0])
            else:
                gamma = rng.uniform(-1.0, 1.0, size=4)
            init_row.append(gamma)
        subsystems.append(row)
        init.append(init_row)
    return GridLQProblem(K, N, T, subsystems, BoundaryData(init=init))


# ---------------------------------------------------------------------------
# problem files (JSON)


def _mats_to_lists(seq):
    if seq is None:
        return None
    return [np.asarray(m).tolist() for m in seq]


def problem_to_dict(problem: GridLQProblem) -> dict:
    subs = []
    for i in range(problem.K):
        row = []
        for j in range(problem.N):
            s = problem.sub(i, j)
            row.append(
                {
                    "n": s.n,
                    "m": s.m,
                    "A": _mats_to_lists(s.A),
                    "B": _mats_to_lists(s.B),
                    "Q": _mats_to_lists(s.Q),
                    "R": _mats_to_lists(s.R),
                    **{d: _mats_to_lists(s.coupling(d)) for d in DIRECTIONS},
                }
            )
        subs.append(row)
    bnd = problem.boundary
    return {
        "format": "grid-lq-problem",
        "version": 1,
        "K": problem.K,
        "N": problem.N,
        "T": problem.T,
        "subsystems": subs,
        "boundary": {
            "init": [[np.asarray(g).tolist() for g in row] for row in bnd.init],
            **{
                d: None
                if getattr(bnd, d) is None
                else [[np.asarray(v).tolist() for v in seq] for seq in getattr(bnd, d)]
                for d in DIRECTIONS
            },
        },
    }


def _record(rec):
    """Subsystem of a document record, every field as written."""
    return SubsystemData(n=rec["n"], m=rec["m"],
                         **{field: rec[field] for field in ("A", "B", "Q", "R")},
                         **{d: rec.get(d) for d in DIRECTIONS})


def problem_from_dict(data: dict) -> GridLQProblem:
    """Problem from its document form, decoding its structure only.

    Raises InvalidProblemError on another document type or a missing key.
    Sizes, matrices, vectors, tables and table entries that are not records
    pass through as written, for ``validate`` to check as it checks an
    in-memory problem, with the same messages.
    """
    if not isinstance(data, dict) or data.get("format") != "grid-lq-problem":
        raise InvalidProblemError("not a grid-lq-problem document")
    try:
        K, N, T = (data[key] for key in ("K", "N", "T"))
        table, bnd = data["subsystems"], data["boundary"]
        if isinstance(table, list) and all(isinstance(row, list) for row in table):
            table = [[_record(rec) if isinstance(rec, dict) else rec for rec in row]
                     for row in table]
        boundary = BoundaryData(bnd["init"], **{d: bnd.get(d) for d in DIRECTIONS})
    except KeyError as exc:
        raise InvalidProblemError(f"problem document lacks key {exc}") from exc
    except (AttributeError, TypeError) as exc:
        raise InvalidProblemError(f"malformed problem document: {exc}") from exc
    return GridLQProblem(K, N, T, table, boundary)


def save_problem(problem: GridLQProblem, path):
    """Write the problem as a self-describing JSON document.

    Floats serialize through repr, so load(save(p)) reproduces every matrix
    bit for bit.
    """
    with open(path, "w") as fh:
        json.dump(problem_to_dict(problem), fh)
        fh.write("\n")


def load_problem(path) -> GridLQProblem:
    """Problem from a JSON problem file. Raises InvalidProblemError when the
    file is not UTF-8 JSON or not a valid problem document."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InvalidProblemError(f"{path} is not JSON: {exc}") from exc
    return problem_from_dict(data)
