"""Assembly of the stacked optimality system and its structured reduction.

Eliminating states and inputs from the first-order optimality conditions of
the stacked quadratic program leaves one SPD system in the constraint
multipliers. Its operator is block tri-diagonal across stages; every stage
diagonal is a 13-offset stencil of small dense blocks over (column, row),
and adjacent stages couple through a 5-offset stencil and its transpose.
This module keeps the stacked system (``StackedSystem``) as data: padded
stacks and the constraint stencil, from the arrays of ``grid_problem``'s
checking pass (it reads no problem data itself). From them it assembles
that operator (``SchurOperator``) as one ``Stencil`` over the padded grid,
plus the two-level splitting used by the nested Jacobi sweeps
(``PairSplitting``): consecutive lines along the longer grid axis are
grouped into pairs, whose paired diagonal blocks become SPD block
tri-diagonal matrices along the shorter axis, and the inter-pair couplings
are applied on the fly. Only the splitting knows the pairing axis: its
factor builds its own blocks and solves natural-layout operands.

Sign conventions: the multiplier system is ``delta_op @ lam = offset`` and
the primal recovery is ``x = -Qinv (A' lam)``, ``u = -Rinv (B' lam)``,
where the stacked constraint reads ``A x + B u + offset = 0`` with identity
blocks pinning each stage to the previous one and stage 0 to the initial
states.
"""

from __future__ import annotations

import numpy as np

from .block_linalg import BlockTridiagCholesky, cholesky_inverse, transposed
from .errors import DENSE_GUARD, InvalidProblemError, guard
from .grid_problem import NEIGHBOURS, GridLQProblem, GridLayout, _padded
from .grid_problem import validate  # noqa: F401  kept importable here: perfbench/spans.py traces it
from .stencil import Stencil, shifted

CENTRE = (0, 0, 0)

# pairs of at most this many block rows are solved by their explicit inverse,
# whose cost per unknown grows with depth; deeper ones sweep, keeping O(KNT)
DENSE_PAIR_ROWS = 4


class StackedSystem:
    """Stage-stacked constraint, input and cost operators on the padded
    grid, plus the natural-layout offset vector collecting initial and
    boundary data. It holds data only: ``recovery`` pads its operands once
    and works on these padded stacks directly.

    ``constraint`` is the stacked constraint map as a stencil, whose stage 0
    row is -x_0 and stage t + 1 row A_t x_t - x_{t+1}: -I at offset
    (0, 0, 0) and the dynamics and couplings of stage t - 1 at offsets
    (-1, dj, di); ``constraint_t`` is its transpose. ``b``, ``q``, ``qinv``,
    ``r`` and ``rinv`` are block arrays over padded (t, j, i); ``b`` and
    ``r`` have stages 0..T-1 and act on inputs, laid out by ``upad``: the
    input map is ``(b @ up)`` written into stages 1..T.
    """

    def __init__(self, layout, xpad, upad, constraint, b, q, qinv, r, rinv, offset):
        self.layout, self.xpad, self.upad = layout, xpad, upad
        self.constraint, self.constraint_t = constraint, constraint.transpose()
        self.b, self.q, self.qinv, self.r, self.rinv, self.offset = b, q, qinv, r, rinv, offset


def build_stacked(problem: GridLQProblem) -> StackedSystem:
    """Assemble the stacked operators and the offset vector from the padded
    arrays and cost-weight factors of ``grid_problem``'s one checking pass,
    the pass ``validate`` runs, here with every stack built.

    Raises InvalidProblemError, a ValueError, with that pass's messages.
    """
    msgs, padded = _padded(problem)
    if msgs:
        raise InvalidProblemError("invalid problem: " + "; ".join(msgs), msgs)
    xpad, upad, stacks, (qchol, rchol) = padded
    fields = {(-1, dj, di): field for field, (di, dj) in (("A", (0, 0)), *NEIGHBOURS.items())}
    constraint = Stencil.filled([CENTRE, *fields], xpad, lambda o, _: (
        -np.eye(xpad.block) if o == CENTRE else stacks[fields[o]]))
    return StackedSystem(
        GridLayout(problem), xpad, upad, constraint, b=stacks["B"],
        q=stacks["Q"], qinv=cholesky_inverse(qchol),
        r=stacks["R"], rinv=cholesky_inverse(rchol),
        offset=xpad.unpad(stacks["offset"], True),
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
        (t, (j, jc)), lay = self.key, self.op.layout
        stage = self.op.densify()[lay.stage_x_slice(t), lay.stage_x_slice(t)]
        return stage[lay.col_x_slice(j), lay.col_x_slice(jc)]


class SchurOperator:
    """Matrix-free reduced multiplier operator: one stencil over the padded
    grid.

    Offsets (0, ., .) form the stage diagonals and come first,
    (-1, ., .) couple stage t - 1 into stage t and (1, ., .) are their
    transposes. ``diag`` views the stage diagonals' blocks and ``outer``
    holds the negated stage couplings (the outer splitting's C).
    ``stage_diag[t][(j, jc)]`` is a dense view of one column block of a
    stage diagonal.
    """

    def __init__(self, layout: GridLayout, stencil: Stencil):
        self.layout, self.stencil, self.dim = layout, stencil, layout.n_total
        self.padding = pad = stencil.padding
        cut = sum(1 for o in stencil.offsets if not o[0])
        self.diag = Stencil(stencil.offsets[:cut], pad, stencil.fused[..., : cut * pad.block])
        self.outer = Stencil(stencil.offsets[cut:], pad, -stencil.fused[..., cut * pad.block :])
        self.matvec_flops, self.outer_coupling_flops = stencil.flops, self.outer.flops

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
    batched block product per pair of offsets (a, b) into offset a - b.
    Only the lower offsets (source before destination in the padded order)
    are formed; each upper offset mirrors one, so the operator is exactly
    symmetric.
    """
    weights = stacked.constraint.weights
    terms = [(tuple(x - y for x, y in zip(a, b)), a, b) for a in weights for b in weights]
    scaled = {a: wa @ shifted(stacked.qinv, a) for a, wa in weights.items()}

    def blocks(o, done):
        if o > CENTRE:
            lower = done.get(tuple(-d for d in o))
            return 0.0 if lower is None else transposed(shifted(lower, o))
        total = sum(scaled[a] @ transposed(shifted(weights[b], o)) for d, a, b in terms if d == o)
        if o == CENTRE:
            total[1:] += stacked.b @ stacked.rinv @ transposed(stacked.b)
            total = 0.5 * (total + transposed(total))
        return total

    offsets = sorted({d for d, _, _ in terms}, key=lambda o: (o[0] != 0, o))
    return SchurOperator(stacked.layout, Stencil.filled(offsets, stacked.xpad, blocks))


# ---------------------------------------------------------------------------
# line-pair splitting of the stage diagonals


class PairSplitting:
    """Pairs lines p, p + 1 (p even) along the longer grid axis, padded
    ``axis`` 1 (columns) or 2 (rows, when K > N), and splits every stage
    diagonal into its pair-diagonal part and the negated inter-pair couplings
    (the inner splitting's C term), applied on the fly.

    Both parts are masks of the stage-diagonal stencil, so the
    reconstruction ``pair-diagonal minus couplings = stage diagonal`` holds
    exactly, block for block.
    """

    def __init__(self, schur: SchurOperator):
        self.schur, diag, (K, N) = schur, schur.diag, schur.padding.sizes.shape
        self.axis = axis = 2 if K > N else 1
        lines = np.arange(diag.padding.grid[axis]).reshape((-1,) + (1,) * (4 - axis))
        # offsets that stay on their line never leave the pair
        self.inner = Stencil.filled(
            [o for o in diag.offsets if o[axis]], diag.padding, lambda o, _: np.where(
                lines // 2 != (lines + o[axis]) // 2, -diag.weights[o], 0.0))
        self.inner_coupling_flops = self.inner.flops

    @property
    def pair_diag(self):
        """The pair diagonals, made on access: only diagnostics read them."""
        diag, inner = self.schur.diag, self.inner.weights
        return Stencil.filled(diag.offsets, diag.padding,
                              lambda o, _: diag.weights[o] + inner.get(o, 0.0))

    def apply_inner_coupling(self, x):
        """Negated inter-pair couplings of every stage diagonal."""
        return self.inner.apply(x)

    def densify_pair_diag(self, max_dim=DENSE_GUARD):
        """Dense block diagonal of all paired blocks, in global ordering."""
        guard(self.schur.dim, max_dim)
        return self.pair_diag.densify()

    def factor(self):
        """The batched pair factor, solving natural-layout operands."""
        return _PairFactor(self.schur.diag, self.axis)


class _PairFactor:
    """Factor of every paired diagonal block over all (pair, stage), solving
    natural-layout operands.

    It assembles each pair block as a block tri-diagonal matrix: block row r
    holds the 2 x 2 subsystems at positions 2r, 2r + 1 along the shorter
    grid axis of the pair's two ``axis`` lines, with batch axes (t, line
    pair) and entries (line in pair, position in pair, entry). A pair of at
    most DENSE_PAIR_ROWS block rows keeps only ``inverse``: each block's
    inverse, swept from the identity through its Cholesky factor, read in
    the padded pair order (t, line pair, pair entry) and symmetrized, applied
    in one product. A deeper pair keeps the ``BlockTridiagCholesky`` as
    ``cholesky`` and sweeps. A solve reads the padded operand as (t, column
    pair, column, row pair, row, entry, k) and transposes it into ``order``,
    the pair order or the block-row order: for column pairs, the pair order
    is a reshape.
    """

    def __init__(self, diag, axis):
        self.padding = pad = diag.padding
        stages, lines, depth, nb = (pad.shape[a] for a in (0, axis, 3 - axis, 3))
        # [0] diagonal blocks, [1] blocks coupling block row r to r - 1
        blocks = np.zeros((2, depth // 2, stages, lines // 2, 2, 2, nb, 2, 2, nb))
        for o, w in diag.weights.items():
            dc, da, w = o[axis], o[3 - axis], w.swapaxes(1, axis)
            for c in range(max(0, -dc), min(2, 2 - dc)):
                for a in (0, 1):
                    s, a2 = divmod(a + da, 2)
                    if s <= 0:
                        blocks[-s][..., c, a, :, c + dc, a2, :] = w[:, c::2, a::2].transpose(
                            2, 0, 1, 3, 4)
        blocks = blocks.reshape(2, depth // 2, stages, lines // 2, 4 * nb, 4 * nb)
        cholesky = BlockTridiagCholesky(blocks[0], blocks[1])
        self.shape, self.factor_flops = cholesky.shape, cholesky.factor_flops
        self.split = split = (stages, pad.shape[1] // 2, 2, pad.shape[2] // 2, 2, nb)
        row_order = (3, 0, 1, 2, 4, 5, 6) if axis == 1 else (1, 0, 3, 4, 2, 5, 6)
        pair_order = (0, 1, 2, 3, 4, 5, 6) if axis == 1 else (0, 3, 1, 2, 4, 5, 6)
        self.cholesky, self.inverse = None, None
        if depth // 2 > DENSE_PAIR_ROWS:
            self.cholesky, self.solve_flops, self.order = cholesky, cholesky.solve_flops, row_order
        else:
            # the identity's columns in the pair order, swept in block-row order
            b = depth // 2 * 4 * nb
            eye = np.broadcast_to(np.eye(b), (stages, lines // 2, b, b))
            work = eye.reshape(tuple(split[a] for a in pair_order[:6]) + (b,))
            work = work.transpose(np.argsort(pair_order)).transpose(row_order).copy()
            cholesky.sweep(work.reshape(self.shape + (-1,)))
            work = work.transpose(np.argsort(row_order)).transpose(pair_order).reshape(eye.shape)
            self.inverse = 0.5 * (work + transposed(work))
            self.factor_flops += cholesky.solve_flops * b
            self.solve_flops, self.order = self.inverse.size, pair_order
        self.back = tuple(np.argsort(self.order))

    def solve(self, b):
        """Solve for a natural-layout operand (dim,) or (dim, k)."""
        x = self.padding.pad(b).reshape(self.split + (-1,)).transpose(self.order)
        if self.inverse is None:
            x = x.copy()
            self.cholesky.sweep(x.reshape(self.shape + (-1,)))
        else:
            x = (self.inverse @ x.reshape(x.shape[:2] + (-1, x.shape[-1]))).reshape(x.shape)
        return self.padding.unpad(x.transpose(self.back), np.ndim(b) == 1)


def build_splitting(schur: SchurOperator) -> PairSplitting:
    return PairSplitting(schur)
