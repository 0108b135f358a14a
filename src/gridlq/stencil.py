"""Padded block-stencil representation shared by every structured operator.

This module owns the padded layout. All stacked vectors live on a padded
(t, j, i) grid of uniform blocks: the block size is the largest subsystem
dimension (states and inputs each), and odd K and N are padded to even with
decoupled dummy rows and columns. Padded entries get unit cost weights and
zero dynamics, inputs, couplings and offsets, so their multipliers are
exactly zero and drop out at the boundary, where ``Padding`` converts
between the natural layout of ``GridLayout`` and the padded one. Operators
are ``Stencil`` objects: one dense array of blocks per (dt, dj, di) offset.
"""

from __future__ import annotations

import math

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
    array has axes (t, j, i, entry, column) with shape ``shape + (k,)``.
    When nothing is padded the map is a reshape.
    """

    def __init__(self, sizes, stages):
        self.sizes = sizes = np.asarray(sizes, dtype=np.intp)
        K, N = sizes.shape
        self.block = block = int(sizes.max())
        self.grid = (stages, N + N % 2, K + K % 2)
        self.shape = self.grid + (block,)
        self.size = math.prod(self.shape)
        stage = np.concatenate([
            (j * self.grid[2] + i) * block + np.arange(sizes[i, j])
            for j in range(N) for i in range(K)
        ])
        stride = self.size // stages
        self.index = (np.arange(stages)[:, None] * stride + stage).ravel()
        self.dim = self.index.size
        self.is_reshape = self.dim == self.size

    def stack(self, problem, field, stages, cols, unit=False, toward=(0, 0)):
        """Per-subsystem matrix sequences ``field`` on the padded grid, shape
        (stages, Np, Kp, block, cols). Padding is zero, or unit diagonal for
        cost weights (``unit``). A coupling keeps only the blocks whose
        neighbour in direction ``toward`` = (di, dj) lies on the grid; the
        others act on boundary data."""
        out = np.zeros((stages,) + self.grid[1:] + (self.block, cols))
        if unit:
            out[..., range(cols), range(cols)] = 1.0
        K, N = self.sizes.shape
        for i in range(K):
            for j in range(N):
                seq = getattr(problem.sub(i, j), field)
                if seq is None or not (0 <= i + toward[0] < K and 0 <= j + toward[1] < N):
                    continue
                mats = np.asarray(seq, dtype=float)
                out[:, j, i, : mats.shape[1], : mats.shape[2]] = mats
        return out

    def pad(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"operand has shape {x.shape}, expected ({self.dim},) or ({self.dim}, k)"
            )
        cols = x.reshape(self.dim, -1)
        if not self.is_reshape:
            out = np.zeros((self.size, cols.shape[1]))
            out[self.index] = cols
            cols = out
        return cols.reshape(self.shape + (-1,))

    def unpad(self, xp, vector):
        """Natural-layout result: (dim,) when ``vector``, else (dim, k)."""
        flat = xp.reshape(self.size, -1)
        out = flat if self.is_reshape else flat[self.index]
        return out[:, 0] if vector else out

    def natural_positions(self):
        """Padded-shape array of natural indices, -1 at padded entries."""
        out = np.full(self.size, -1, dtype=np.intp)
        out[self.index] = np.arange(self.dim)
        return out.reshape(self.shape)


class Stencil:
    """Square block operator over a padded grid: ``out[p] += weights[o][p] @
    x[p + o]`` for every offset o = (dt, dj, di).

    ``weights[o]`` has shape grid + (block, block) and is zero wherever p + o
    falls off the grid. Offsets whose weights are all zero are dropped, and
    an offset whose weights vanish on every column of one parity (as the
    masked pair couplings do) runs over the other columns only. ``flops``
    counts the scalar multiplies of one single-vector apply.
    """

    def __init__(self, weights, padding: Padding):
        self.padding = padding
        self.weights = {o: w for o, w in weights.items() if w.any()}
        self.windows = {o: _columns(w, *window(o, padding.grid))
                        for o, w in self.weights.items()}
        self.flops = sum(w[self.windows[o][0]].size for o, w in self.weights.items())

    def apply(self, x):
        """Product with a natural-layout operand (dim,) or (dim, k)."""
        xp = self.padding.pad(x)
        out = np.zeros(xp.shape)
        for o, w in self.weights.items():
            dst, src = self.windows[o]
            out[dst] += w[dst] @ xp[src]
        return self.padding.unpad(out, np.ndim(x) == 1)

    def transpose(self):
        """The transposed operator: offset -o carries the transposed blocks
        of offset o, moved to their destinations."""
        weights = {}
        for o, w in self.weights.items():
            back = tuple(-d for d in o)
            weights[back] = np.ascontiguousarray(shifted(w, back).swapaxes(-1, -2))
        return Stencil(weights, self.padding)

    def densify(self):
        """Dense natural-layout matrix."""
        nat = self.padding.natural_positions()
        out = np.zeros((self.padding.dim, self.padding.dim))
        for o, w in self.weights.items():
            dst, src = self.windows[o]
            scatter_blocks(out, nat[dst], nat[src], w[dst])
        return out


def _columns(w, dst, src):
    """The window narrowed to every other column when ``w`` vanishes on all
    columns of one parity."""
    for parity in (0, 1):
        if not w[:, parity::2].any():
            shift = (1 - parity - dst[1].start) % 2
            dst = (dst[0], slice(dst[1].start + shift, dst[1].stop, 2), dst[2])
            src = (src[0], slice(src[1].start + shift, src[1].stop, 2), src[2])
            break
    return dst, src


def scatter_blocks(out, rows, cols, blocks):
    """``out[rows[p], cols[p]] += blocks[p]`` for every block position p, from
    natural row and column indices per block entry; padded (-1) ones are
    skipped."""
    rows, cols = np.broadcast_arrays(rows[..., :, None], cols[..., None, :])
    keep = (rows >= 0) & (cols >= 0)
    out[rows[keep], cols[keep]] += blocks[keep]
