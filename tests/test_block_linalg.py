import math

import numpy as np
import pytest

from gridlq import (
    BlockTridiagCholesky,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    build_schur,
    build_splitting,
    build_stacked,
    dense_cholesky,
    generate_msd_case,
)
from gridlq.block_linalg import lower_triangular_inverse, spd_inverse
from gridlq.stencil import Padding, Stencil, window


def random_spd(rng, n):
    g = rng.standard_normal((n, n))
    return g @ g.T + n * np.eye(n)


def random_block_tridiag(rng, rows, q, batch=2, shift=2.0):
    """Diagonal and sub-diagonal blocks, axes (row, batch, q, q)."""
    dim = rows * q
    diag = np.stack([
        np.stack([random_spd(rng, q) + shift * dim * np.eye(q) for _ in range(batch)])
        for _ in range(rows)
    ])
    sub = rng.standard_normal((rows, batch, q, q))
    sub[0] = 0.0
    return diag, sub


def densify_tridiag(diag, sub):
    """Dense matrix in the factor's (row, batch, entry) ordering."""
    rows, batch, q = diag.shape[:3]
    out = np.zeros((rows * batch * q,) * 2)
    at = lambda r, b: slice((r * batch + b) * q, (r * batch + b + 1) * q)
    for r in range(rows):
        for b in range(batch):
            out[at(r, b), at(r, b)] = diag[r, b]
            if r:
                out[at(r, b), at(r - 1, b)] = sub[r, b]
                out[at(r - 1, b), at(r, b)] = sub[r, b].T
    return out


def random_stencil(rng, sizes, offsets, stages=2):
    """Stencil with random blocks at the given offsets, zero where the
    source falls off the padded grid."""
    pad = Padding(sizes, stages)
    block = pad.block
    weights = {}
    for o in offsets:
        w = np.zeros(pad.grid + (block, block))
        dst, _ = window(o, pad.grid)
        w[dst] = rng.standard_normal(w[dst].shape)
        weights[o] = w
    return Stencil(weights, pad)


OFFSETS = [(0, 0, 0), (0, 1, 0), (0, -1, 1), (0, 0, -2), (1, 0, 0), (-1, 2, -1)]


class TestDenseCholesky:
    def test_identity(self):
        assert np.array_equal(dense_cholesky(np.eye(3)), np.eye(3))

    def test_hand_checked_2x2(self):
        lower = dense_cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        expect = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        assert np.allclose(lower, expect, atol=1e-15)
        assert np.allclose(lower @ lower.T, [[4, 2], [2, 3]], atol=1e-15)

    def test_reconstructs_random_spd(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((8, 8))
        m = g @ g.T + np.eye(8)
        lower = dense_cholesky(m)
        assert np.linalg.norm(lower @ lower.T - m) < 1e-12 * np.linalg.norm(m)
        assert np.allclose(np.triu(lower, 1), 0.0)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            dense_cholesky(-np.eye(2))
        with pytest.raises(NotPositiveDefiniteError):
            dense_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            m = np.eye(3)
            m[1, 1] = bad
            with pytest.raises(NotPositiveDefiniteError):
                dense_cholesky(m)
            with pytest.raises(NotPositiveDefiniteError):
                dense_cholesky(np.stack([np.eye(3), m]))

    def test_batched_matches_single(self):
        rng = np.random.default_rng(15)
        stack = np.stack([random_spd(rng, 4) for _ in range(5)])
        batched = dense_cholesky(stack)
        for m, lower in zip(stack, batched):
            assert np.allclose(lower, dense_cholesky(m), rtol=1e-14, atol=1e-14)

    def test_rejects_asymmetric(self):
        with pytest.raises(DimensionMismatchError):
            dense_cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_triangular_inverse(self):
        rng = np.random.default_rng(1)
        lower = np.tril(rng.standard_normal((6, 6))) + 3 * np.eye(6)
        assert np.allclose(lower @ lower_triangular_inverse(lower), np.eye(6), atol=1e-12)

    def test_spd_inverse_symmetric(self):
        rng = np.random.default_rng(2)
        m = random_spd(rng, 5)
        inv = spd_inverse(m)
        assert np.array_equal(inv, inv.T)
        assert np.allclose(inv @ m, np.eye(5), atol=1e-10)


class TestBlockBanded:
    """Block-banded operators in their stencil form."""

    def test_identity_blocks_matvec(self):
        pad = Padding([[2, 2]], 1)
        op = Stencil({(0, 0, 0): np.broadcast_to(np.eye(2), pad.grid + (2, 2))}, pad)
        x = np.arange(4.0)
        assert np.array_equal(op.apply(x), x)

    def test_matvec_matches_densify(self):
        rng = np.random.default_rng(3)
        # odd K and N and mixed block sizes exercise the padding
        op = random_stencil(rng, [[3, 2, 1], [1, 3, 2], [2, 2, 3]], OFFSETS)
        dense = op.densify()
        x = rng.standard_normal(op.padding.dim)
        assert np.max(np.abs(op.apply(x) - dense @ x)) < 1e-12
        assert np.max(np.abs(op.transpose().apply(x) - dense.T @ x)) < 1e-12

    def test_symmetric_storage_mirrors(self):
        rng = np.random.default_rng(4)
        lower = random_stencil(rng, [[2, 1], [2, 2], [1, 2]], [(0, 0, -1), (-1, 1, 0)])
        mirror = lower.transpose()
        assert set(mirror.weights) == {(0, 0, 1), (1, -1, 0)}
        assert np.array_equal(mirror.densify(), lower.densify().T)
        both = Stencil({**lower.weights, **mirror.weights}, lower.padding)
        dense = both.densify()
        assert np.array_equal(dense, dense.T)
        x = rng.standard_normal(both.padding.dim)
        assert np.max(np.abs(both.apply(x) - dense @ x)) < 1e-12

    def test_zero_vector(self):
        rng = np.random.default_rng(5)
        op = random_stencil(rng, [[2, 2], [2, 2]], OFFSETS)
        assert np.array_equal(op.apply(np.zeros(op.padding.dim)), np.zeros(op.padding.dim))

    def test_matrix_rhs_matches_columns(self):
        rng = np.random.default_rng(6)
        op = random_stencil(rng, [[2, 2, 1], [2, 1, 2]], OFFSETS)
        x = rng.standard_normal((op.padding.dim, 5))
        out = op.apply(x)
        assert out.shape == x.shape
        for k in range(5):
            # batched and single-column kernels may round differently
            assert np.max(np.abs(out[:, k] - op.apply(x[:, k]))) < 1e-13

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(7)
        op = random_stencil(rng, [[2, 2]], OFFSETS)
        with pytest.raises(DimensionMismatchError):
            op.apply(np.zeros(op.padding.dim + 1))
        with pytest.raises(DimensionMismatchError):
            op.apply(np.zeros((op.padding.dim, 2, 2)))

    def test_pair_rows_preserves_dense(self):
        # the factor pairs rows and columns into 4-block rows; solving the
        # pair diagonal's own products must give back the operand
        for dims in ((3, 3, 2), (4, 2, 1), (1, 1, 1), (5, 4, 2)):
            op = build_schur(build_stacked(generate_msd_case(*dims, seed=8)))
            split = build_splitting(op)
            phi = split.densify_pair_diag(5000)
            factor = split.factor()
            x = np.random.default_rng(9).standard_normal(op.dim)
            back = op.padding.from_pairs(factor.solve(op.padding.to_pairs(phi @ x)), True)
            assert np.max(np.abs(back - x)) < 1e-10

    def test_matvec_flops_counts_blocks(self):
        pad = Padding([[2, 2], [2, 2]], 1)
        weights = {o: np.zeros(pad.grid + (2, 2)) for o in [(0, 0, 0), (0, 0, -1), (0, 0, 1)]}
        weights[(0, 0, 0)][:] = np.eye(2)
        weights[(0, 0, -1)][0, 0, 1] = 1.0
        op = Stencil(weights, pad)
        # four diagonal blocks and one block one row down (the odd column
        # of that offset is all zero and skipped), one multiply per block
        # entry; the all-zero offset is dropped
        assert set(op.weights) == {(0, 0, 0), (0, 0, -1)}
        assert op.flops == 4 * 4 + 1 * 4
        x = np.arange(8.0)
        assert np.array_equal(op.apply(x), op.densify() @ x)


class TestBlockTridiagCholesky:
    def test_identity_blocks(self):
        diag = np.broadcast_to(np.eye(2), (2, 1, 2, 2)).copy()
        factor = BlockTridiagCholesky(diag, np.zeros_like(diag))
        b = np.arange(4.0)
        assert np.allclose(factor.solve(b), b, atol=1e-14)

    def test_ten_block_solve_matches_dense(self):
        diag = np.broadcast_to(2.0 * np.eye(3), (10, 1, 3, 3)).copy()
        sub = np.broadcast_to(-0.5 * np.eye(3), (10, 1, 3, 3)).copy()
        factor = BlockTridiagCholesky(diag, sub)
        rng = np.random.default_rng(8)
        b = rng.standard_normal(30)
        x = factor.solve(b)
        assert np.max(np.abs(x - np.linalg.solve(densify_tridiag(diag, sub), b))) < 1e-10

    def test_two_block_vs_dense(self):
        rng = np.random.default_rng(9)
        diag, sub = random_block_tridiag(rng, 2, 3)
        b = rng.standard_normal(12)
        x = BlockTridiagCholesky(diag, sub).solve(b)
        assert np.max(np.abs(x - np.linalg.solve(densify_tridiag(diag, sub), b))) < 1e-11

    def test_zero_rhs(self):
        rng = np.random.default_rng(10)
        factor = BlockTridiagCholesky(*random_block_tridiag(rng, 3, 2))
        assert np.array_equal(factor.solve(np.zeros(12)), np.zeros(12))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(11)
        factor = BlockTridiagCholesky(*random_block_tridiag(rng, 2, 2))
        with pytest.raises(DimensionMismatchError):
            factor.solve(np.zeros(5))

    def test_not_spd_propagates(self):
        diag = np.stack([np.eye(2), -np.eye(2)])[:, None]
        with pytest.raises(NotPositiveDefiniteError):
            BlockTridiagCholesky(diag, np.zeros_like(diag))

    def test_factor_reconstructs_source(self):
        rng = np.random.default_rng(12)
        for rows, q, batch in ((3, 4, 1), (4, 2, 3), (12, 8, 2)):
            diag, sub = random_block_tridiag(rng, rows, q, batch)
            dense = densify_tridiag(diag, sub)
            inverse = BlockTridiagCholesky(diag, sub).solve(dense)
            assert np.max(np.abs(inverse - np.eye(len(dense)))) < 1e-10

    def test_solve_inverts_matvec(self):
        rng = np.random.default_rng(13)
        for rows, q, batch in ((5, 3, 1), (20, 6, 2), (5, 4, 4)):
            diag, sub = random_block_tridiag(rng, rows, q, batch)
            x = rng.standard_normal(rows * q * batch)
            back = BlockTridiagCholesky(diag, sub).solve(densify_tridiag(diag, sub) @ x)
            assert np.max(np.abs(back - x)) < 1e-9 * max(1.0, np.max(np.abs(x)))

    def test_factor_cost_linear_in_rows(self):
        rng = np.random.default_rng(14)
        f1 = BlockTridiagCholesky(*random_block_tridiag(rng, 10, 4))
        f2 = BlockTridiagCholesky(*random_block_tridiag(rng, 20, 4))
        ratio = f2.factor_flops / f1.factor_flops
        assert 0.8 * 2 <= ratio <= 1.3 * 2
        ratio = f2.solve_flops / f1.solve_flops
        assert 0.8 * 2 <= ratio <= 1.3 * 2
