"""Assembly of the stacked optimality system and its structured reduction.

Eliminating states and inputs from the first-order optimality conditions of
the stacked quadratic program leaves one SPD system in the constraint
multipliers. Its operator is block tri-diagonal across stages; every stage
diagonal is a 13-offset stencil of small dense blocks over (column, row),
and adjacent stages couple through a 5-offset stencil and its transpose.
This module assembles that operator (``SchurOperator``) as one ``Stencil``
over the padded (t, j, i) grid, plus the two-level splitting used by the
nested Jacobi sweeps (``PairSplitting``): consecutive columns are grouped
into pairs, whose paired diagonal blocks become SPD block tri-diagonal
matrices after pairing rows, and the inter-pair couplings are applied on the
fly. The pairing is private to the splitting: its factor solves
natural-layout operands.

Sign conventions: the multiplier system is ``delta_op @ lam = offset`` and
the primal recovery is ``x = -Qinv (A' lam)``, ``u = -Rinv (B' lam)``,
where the stacked constraint reads ``A x + B u + offset = 0`` with identity
blocks pinning each stage to the previous one and stage 0 to the initial
states.
"""

from __future__ import annotations

import numpy as np

from .block_linalg import BlockTridiagCholesky, spd_inverse, transposed
from .errors import DENSE_GUARD, InvalidProblemError, guard
from .grid_problem import NEIGHBOURS, GridLQProblem, GridLayout, validate
from .stencil import Padding, Stencil, shifted

CENTRE = (0, 0, 0)


class StackedSystem:
    """Stage-stacked constraint, input and cost operators on the padded
    grid, plus the natural-layout offset vector collecting initial and
    boundary data.

    ``constraint`` is the stacked constraint map as a stencil: -I at offset
    (0, 0, 0) and the dynamics and couplings of stage t - 1 at offsets
    (-1, dj, di). ``b``, ``q``, ``qinv``, ``r`` and ``rinv`` are block arrays
    over padded (t, j, i); ``b`` and ``r`` have stages 0..T-1 and act on
    inputs, laid out by ``upad``.
    """

    def __init__(self, layout, xpad, upad, constraint, b, q, r, offset):
        self.layout = layout
        self.xpad = xpad
        self.upad = upad
        self.constraint = constraint
        self.constraint_t = constraint.transpose()
        self.b = b
        self.q, self.qinv = q, spd_inverse(q)
        self.r, self.rinv = r, spd_inverse(r)
        self.offset = offset

    def apply_constraint(self, x):
        """Stacked constraint map: stage 0 row is -x_0, stage t+1 row is
        A_t x_t - x_{t+1}."""
        return self.constraint.apply(x)

    def apply_constraint_t(self, d):
        return self.constraint_t.apply(d)

    def apply_input_map(self, u):
        up = self.upad.pad(u)
        out = np.zeros(self.xpad.shape + up.shape[-1:])
        out[1:] = self.b @ up
        return self.xpad.unpad(out, np.ndim(u) == 1)

    def apply_input_map_t(self, d):
        return self.upad.unpad(transposed(self.b) @ self.xpad.pad(d)[1:], np.ndim(d) == 1)

    def apply_cost_x(self, x):
        return self.xpad.unpad(self.q @ self.xpad.pad(x), np.ndim(x) == 1)

    def apply_cost_inverse_x(self, x):
        return self.xpad.unpad(self.qinv @ self.xpad.pad(x), np.ndim(x) == 1)

    def apply_cost_u(self, u):
        return self.upad.unpad(self.r @ self.upad.pad(u), np.ndim(u) == 1)

    def apply_cost_inverse_u(self, u):
        return self.upad.unpad(self.rinv @ self.upad.pad(u), np.ndim(u) == 1)


def build_stacked(problem: GridLQProblem) -> StackedSystem:
    """Assemble the stacked operators and the offset vector.

    Raises InvalidProblemError, a ValueError, with the collected messages
    when validate() fails.
    """
    msgs = validate(problem)
    if msgs:
        raise InvalidProblemError("invalid problem: " + "; ".join(msgs), msgs)
    lay = GridLayout(problem)
    K, N, T = problem.K, problem.N, problem.T
    xpad = Padding(lay.n, T + 1)
    upad = Padding(lay.m, T)
    nb = xpad.block

    constraint = {CENTRE: np.broadcast_to(-np.eye(nb), xpad.grid + (nb, nb)).copy()}
    for field, (di, dj) in (("A", (0, 0)),) + tuple(NEIGHBOURS.items()):
        blocks = np.zeros(xpad.grid + (nb, nb))
        blocks[1:] = xpad.stack(problem, field, T, nb, toward=(di, dj))
        constraint[(-1, dj, di)] = blocks

    offset = np.zeros(xpad.shape)
    bnd = problem.boundary
    for i in range(K):
        for j in range(N):
            sub = problem.sub(i, j)
            offset[0, j, i, : sub.n] = bnd.init[i][j]
            for direction, (di, dj) in NEIGHBOURS.items():
                blocks, traj = sub.coupling(direction), getattr(bnd, direction)
                if blocks is None or traj is None or (0 <= i + di < K and 0 <= j + dj < N):
                    continue
                sig = np.asarray(traj[j if di else i], dtype=float)[..., None]
                offset[1:, j, i, : sub.n] += (np.asarray(blocks, dtype=float) @ sig)[..., 0]

    return StackedSystem(
        lay, xpad, upad, Stencil(constraint, xpad),
        b=xpad.stack(problem, "B", T, upad.block),
        q=xpad.stack(problem, "Q", T + 1, nb, unit=True),
        r=upad.stack(problem, "R", T, upad.block, unit=True),
        offset=xpad.unpad(offset, True),
    )


# ---------------------------------------------------------------------------
# reduced multiplier operator


class _BlockView:
    """``view[t][(j, jc)].densify()`` is the dense block of the operator
    coupling column jc into column j within stage t."""

    def __init__(self, op, key=()):
        self.op, self.key = op, key

    def __getitem__(self, key):
        return _BlockView(self.op, self.key + (key,))

    def densify(self):
        t, (j, jc) = self.key
        lay = self.op.layout
        dense = self.op.densify()[lay.stage_x_slice(t), lay.stage_x_slice(t)]
        return dense[lay.col_x_slice(j), lay.col_x_slice(jc)]


class SchurOperator:
    """Matrix-free reduced multiplier operator: one stencil over padded
    (t, j, i).

    Offsets (0, dj, di) form the stage diagonals, (-1, dj, di) couple stage
    t - 1 into stage t and (1, dj, di) are their transposes. Built from the
    lower offsets (those whose source precedes the destination in the
    natural order) by mirroring, so the operator is exactly symmetric.
    ``diag`` holds the stage diagonals alone and ``outer`` the negated stage
    couplings (the outer splitting's C). ``stage_diag[t][(j, jc)]`` is a
    dense view of one column block of a stage diagonal.
    """

    def __init__(self, layout: GridLayout, lower: Stencil):
        pad = lower.padding
        strict = Stencil({o: w for o, w in lower.weights.items() if o != CENTRE}, pad)
        weights = {**lower.weights, **strict.transpose().weights}
        self.layout = layout
        self.padding = pad
        self.dim = layout.n_total
        self.stencil = Stencil(weights, pad)
        self.diag = Stencil({o: w for o, w in weights.items() if not o[0]}, pad)
        self.outer = Stencil({o: -w for o, w in weights.items() if o[0]}, pad)
        self.matvec_flops = self.stencil.flops
        self.outer_coupling_flops = self.outer.flops

    # the view is made on access: stored, it would form a reference cycle
    # that keeps the operator's arrays alive until the cyclic collector runs
    @property
    def stage_diag(self):
        return _BlockView(self)

    def apply(self, x):
        """Operator product with a vector (dim,) or stacked columns (dim, k)."""
        return self.stencil.apply(x)

    def apply_outer_coupling(self, x):
        """The outer splitting's C = D - operator: negated stage couplings."""
        return self.outer.apply(x)

    def densify(self, max_dim=DENSE_GUARD):
        guard(self.dim, max_dim)
        return self.stencil.densify()

    def densify_block_diag(self, max_dim=DENSE_GUARD):
        guard(self.dim, max_dim)
        return self.diag.densify()


def build_schur(stacked: StackedSystem) -> SchurOperator:
    """Assemble the reduced operator A Qinv A' + B Rinv B' as a stencil.

    The product of the constraint stencil with itself accumulates one
    batched block product per pair of offsets (a, b) into offset a - b;
    only the lower offsets are formed.
    """
    weights = stacked.constraint.weights
    terms = {}
    for a, wa in weights.items():
        scaled = wa @ shifted(stacked.qinv, a)
        for b, wb in weights.items():
            o = tuple(x - y for x, y in zip(a, b))
            if o <= CENTRE:
                term = scaled @ transposed(shifted(wb, o))
                terms[o] = terms[o] + term if o in terms else term
    centre = terms[CENTRE]
    centre[1:] += stacked.b @ stacked.rinv @ transposed(stacked.b)
    terms[CENTRE] = 0.5 * (centre + transposed(centre))
    return SchurOperator(stacked.layout, Stencil(terms, stacked.xpad))


# ---------------------------------------------------------------------------
# column-pair splitting of the stage diagonals


class PairSplitting:
    """Groups grid columns (j, j + 1), j even, into pairs and splits every
    stage diagonal into its pair-diagonal part and the negated inter-pair
    couplings (the inner splitting's C term), applied on the fly.

    Both parts are masks of the stage-diagonal stencil, so the
    reconstruction ``pair-diagonal minus couplings = stage diagonal`` holds
    exactly, block for block.
    """

    def __init__(self, schur: SchurOperator):
        self.schur = schur
        pad = schur.padding
        cols = np.arange(pad.grid[1])
        pair, inner = {}, {}
        for o, w in schur.diag.weights.items():
            cross = (cols // 2 != (cols + o[1]) // 2)[:, None, None, None]
            pair[o] = np.where(cross, 0.0, w)
            inner[o] = np.where(cross, -w, 0.0)
        self.pair_diag = Stencil(pair, pad)
        self.inner = Stencil(inner, pad)
        self.inner_coupling_flops = self.inner.flops

    def apply_inner_coupling(self, x):
        """Negated inter-pair couplings of every stage diagonal."""
        return self.inner.apply(x)

    def densify_pair_diag(self, max_dim=DENSE_GUARD):
        """Dense block diagonal of all paired blocks, in global ordering."""
        guard(self.schur.dim, max_dim)
        return self.pair_diag.densify()

    def factor(self):
        """Cholesky factors of every paired diagonal block, as one batched
        block tri-diagonal factorization over all (pair, stage), solving
        natural-layout operands.

        Block row r holds the 2 x 2 subsystems of rows 2r and 2r + 1 in the
        pair's two columns, ordered as ``_PairFactor`` permutes operands.
        """
        pad = self.schur.padding
        T1, Np, Kp, nb = pad.shape
        # [0] diagonal blocks, [1] blocks coupling row pair r to r - 1
        blocks = np.zeros((2, Kp // 2, T1, Np // 2, 2, 2, nb, 2, 2, nb))
        for (_, dj, di), w in self.pair_diag.weights.items():
            for c in range(max(0, -dj), min(2, 2 - dj)):
                for a in (0, 1):
                    s, a2 = divmod(a + di, 2)
                    if s <= 0:
                        blocks[-s][..., c, a, :, c + dj, a2, :] = (
                            w[:, c::2, a::2].transpose(2, 0, 1, 3, 4)
                        )
        blocks = blocks.reshape(2, Kp // 2, T1, Np // 2, 4 * nb, 4 * nb)
        return _PairFactor(blocks[0], blocks[1], pad)


class _PairFactor(BlockTridiagCholesky):
    """The batched pair factor on natural-layout operands.

    Its block rows run over row pairs, with batch axes (t, column pair) and
    entries (column in pair, row in pair, entry), so ``solve`` pads its
    operand and permutes it into that order and back.
    """

    def __init__(self, diag, sub, padding):
        super().__init__(diag, sub)
        self.padding = padding

    def solve(self, b):
        """Solve for a natural-layout operand (dim,) or (dim, k)."""
        T1, Np, Kp, nb = self.padding.shape
        bp = self.padding.pad(b).reshape(T1, Np // 2, 2, Kp // 2, 2, nb, -1)
        y = super().solve(bp.transpose(3, 0, 1, 2, 4, 5, 6).reshape(self.padding.size, -1))
        y = y.reshape(Kp // 2, T1, Np // 2, 2, 2, nb, -1).transpose(1, 2, 3, 0, 4, 5, 6)
        return self.padding.unpad(y, np.ndim(b) == 1)


def build_splitting(schur: SchurOperator) -> PairSplitting:
    return PairSplitting(schur)
