"""Padded block-stencil representation shared by every structured operator.

This module owns the padded layout and reads no problem data. All stacked
vectors live on a padded (t, j, i) grid of uniform blocks, (t, i, j) when
K > N so that the last grid axis is the shorter: the block size is the
largest subsystem dimension (states and inputs each), and odd K and N are
padded to even with decoupled dummy rows and columns. ``grid_problem``
stacks the problem so that padded entries get unit cost weights and zero
dynamics, inputs, couplings and offsets; their multipliers are exactly zero
and drop out at the boundary, where ``Padding`` converts between the natural
layout of ``GridLayout`` and the padded one. Operators are ``Stencil``
objects: the blocks of every (dt, dj, di) offset side by side in one fused
array, applied in one batched product.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError


def window(offset, grid):
    """Destination and source slices of a stencil offset: position p of the
    destination slice reads position p + offset."""
    dst = tuple(slice(max(0, -d), n - max(0, d)) for d, n in zip(offset, grid))
    src = tuple(slice(max(0, d), n - max(0, -d)) for d, n in zip(offset, grid))
    return dst, src


def shifted(blocks, offset):
    """Array whose entry at p is ``blocks[p + offset]``, zero off the grid."""
    out = np.zeros_like(blocks)
    dst, src = window(offset, blocks.shape[:3])
    out[dst] = blocks[src]
    return out


class Padding:
    """Natural <-> padded map of one stacked vector.

    The vector has ``stages`` stages of a K x N grid whose subsystem (i, j)
    holds ``sizes[i][j]`` entries, natural order (t, j, i, entry). The padded
    array has axes (t, j, i, entry, column), (t, i, j, ...) when K > N so that
    the last grid axis is the shorter, with shape ``shape + (k,)``. When
    nothing is padded and K <= N the map is a reshape.
    """

    def __init__(self, sizes, stages):
        self.sizes = sizes = np.asarray(sizes, dtype=np.intp)
        K, N = sizes.shape
        self.block = block = int(sizes.max())
        self.grid = (stages, *self.orient(N + N % 2, K + K % 2))
        self.shape = self.grid + (block,)
        self.size = math.prod(self.shape)
        at = np.arange(math.prod(self.grid[1:])).reshape(self.grid[1:])
        stage = np.concatenate([
            at[self.orient(j, i)] * block + np.arange(sizes[i, j])
            for j in range(N) for i in range(K)
        ])
        stride = self.size // stages
        self.index = (np.arange(stages)[:, None] * stride + stage).ravel()
        self.dim = self.index.size
        self.is_reshape = self.dim == self.size and K <= N
        # natural entry of every padded one; padding reads a zero row at dim
        self.source = np.full(self.size, self.dim)
        self.source[self.index] = np.arange(self.dim)

    def orient(self, j, i):
        """Grid axes (j, i), of a position or an offset (dj, di), in padded order."""
        return (i, j) if self.sizes.shape[0] > self.sizes.shape[1] else (j, i)

    def pad(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"operand has shape {x.shape}, expected ({self.dim},) or ({self.dim}, k)"
            )
        cols = x.reshape(self.dim, -1)
        if not self.is_reshape:
            cols = np.concatenate((cols, np.zeros((1, cols.shape[1])))).take(self.source, axis=0)
        return cols.reshape(self.shape + (-1,))

    def unpad(self, xp, vector):
        """Natural-layout result: (dim,) when ``vector``, else (dim, k)."""
        flat = xp.reshape(self.size, -1)
        out = flat if self.is_reshape else flat.take(self.index, axis=0)
        return out[:, 0] if vector else out


class Stencil:
    """Square block operator over a padded grid: ``out[p] += weights[o][p] @
    x[p + o]`` for every offset o, in padded axes (dt, dj, di) or (dt, di, dj).

    ``fused``, shape grid + (block, len(offsets) * block), holds the blocks
    of all offsets side by side in ``offsets`` order; ``weights[o]`` views
    offset o's, zero wherever p + o falls off the grid. An apply is one
    ``take`` of every position's source blocks and one batched product with
    ``fused``: ``flops`` = offsets x positions x block² multiplies.
    """

    def __init__(self, offsets, padding: Padding, fused):
        self.padding, self.offsets, self.fused = padding, tuple(offsets), fused
        nb = padding.block
        self.weights = {o: fused[..., k * nb : (k + 1) * nb] for k, o in enumerate(self.offsets)}
        self.flops = len(self.offsets) * math.prod(padding.grid) * nb * nb

    @classmethod
    def filled(cls, offsets, padding: Padding, blocks):
        """Stencil with blocks ``blocks(o, weights)`` at offset o, given those
        stored so far, each written into its slot as made; all-zero ones drop."""
        nb = padding.block
        # stored block-transposed, so that each slot is contiguous per position
        fused = np.empty(padding.grid + (len(offsets) * nb, nb)).swapaxes(-1, -2)
        weights = {}
        for o in offsets:
            value = np.asarray(blocks(o, weights))
            if value.any():
                weights[o] = fused[..., len(weights) * nb : (len(weights) + 1) * nb]
                weights[o][...] = value
        kept = fused[..., : len(weights) * nb].swapaxes(-1, -2)
        return cls(weights, padding, np.ascontiguousarray(kept).swapaxes(-1, -2))

    @cached_property
    def gather(self):
        """Flat position of every (position, offset) source, or one past the
        last, a zero row, off the grid; made on first apply."""
        grid = self.padding.grid
        offsets = np.array(self.offsets, dtype=np.intp).reshape(-1, 3).T[:, None, :]
        src = np.indices(grid).reshape(3, -1, 1) + offsets
        inside = np.all((src >= 0) & (src < np.reshape(grid, (3, 1, 1))), axis=0)
        return np.where(inside, np.ravel_multi_index(src, grid, mode="clip"), math.prod(grid))

    def apply(self, x):
        """Product with a natural-layout operand (dim,) or (dim, k)."""
        xp = self.padding.pad(x)
        rows = xp.reshape(math.prod(xp.shape[:3]), -1)
        rows = np.concatenate([rows, np.zeros((1, rows.shape[1]))]).take(self.gather, axis=0)
        out = self.fused @ rows.reshape(xp.shape[:3] + (-1, xp.shape[-1]))
        return self.padding.unpad(out, np.ndim(x) == 1)

    def transpose(self):
        """The transposed operator: offset -o carries the transposed blocks
        of offset o, moved to their destinations."""
        back = {tuple(-d for d in o): o for o in self.offsets}
        return Stencil.filled(back, self.padding,
                              lambda o, _: shifted(self.weights[back[o]], o).swapaxes(-1, -2))

    def densify(self):
        """Dense natural-layout matrix; padded entries are left out."""
        dim, nat = self.padding.dim, self.padding.source.reshape(self.padding.shape)
        out = np.zeros((dim, dim))
        for o, w in self.weights.items():
            dst, src = window(o, self.padding.grid)
            rows, cols = np.broadcast_arrays(nat[dst][..., :, None], nat[src][..., None, :])
            keep = (rows < dim) & (cols < dim)
            out[rows[keep], cols[keep]] += w[dst][keep]
        return out
