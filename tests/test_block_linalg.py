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
    generate_irrigation_case,
    generate_msd_case,
)
from gridlq.block_linalg import lower_triangular_inverse, spd_inverse, transposed
from gridlq.kkt_assembly import DENSE_PAIR_ROWS
from gridlq.stencil import Padding, Stencil, window

from test_property_oracle import random_problem


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


def stencil_of(weights, pad):
    """Stencil with the given blocks per offset."""
    return Stencil.filled(weights, pad, lambda o, _: weights[o])


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
    return stencil_of(weights, pad)


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
        op = stencil_of({(0, 0, 0): np.eye(2)}, pad)
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
        both = stencil_of({**lower.weights, **mirror.weights}, lower.padding)
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
        # the factor pairs rows and columns into 4-block rows internally;
        # solving the pair diagonal's own natural-layout products must give
        # back the operand, one column or several
        # shallow shapes take the explicit inverse, deep ones the sweep
        for dims in ((3, 3, 2), (4, 2, 1), (1, 1, 1), (5, 4, 2), (10, 9, 1), (12, 10, 1)):
            op = build_schur(build_stacked(generate_msd_case(*dims, seed=8)))
            split = build_splitting(op)
            phi = split.densify_pair_diag(5000)
            factor = split.factor()
            x = np.random.default_rng(9).standard_normal((op.dim, 2))
            assert np.max(np.abs(factor.solve(phi @ x[:, 0]) - x[:, 0])) < 1e-10
            assert np.max(np.abs(factor.solve(phi @ x) - x)) < 1e-10

    def test_pair_solve_equals_generic_solve_bitwise(self):
        # pairs deeper than DENSE_PAIR_ROWS block rows keep the sweep.
        # Reference: pad, permute into block-row order, the generic factor
        # solve, permute back; the pair factor's own layout work must not
        # change a bit of that
        rng = np.random.default_rng(20)
        for dims in ((10, 9, 1), (12, 10, 1)):
            op = build_schur(build_stacked(generate_msd_case(*dims, seed=20)))
            factor = build_splitting(op).factor()
            assert factor.shape[0] > DENSE_PAIR_ROWS
            assert factor.inverse is None and isinstance(factor.cholesky, BlockTridiagCholesky)
            T1, Np, Kp, nb = op.padding.shape
            if dims[0] > dims[1]:
                # row pairs: block rows over column pairs, batch (t, row pair),
                # entries (row, column, entry)
                to_rows, back = (1, 0, 3, 4, 2, 5, 6), (1, 0, 4, 2, 3, 5, 6)
                lead = (Np // 2, T1, Kp // 2)
            else:
                # column pairs: block rows over row pairs, batch (t, column
                # pair), entries (column, row, entry)
                to_rows, back = (3, 0, 1, 2, 4, 5, 6), (1, 2, 3, 0, 4, 5, 6)
                lead = (Kp // 2, T1, Np // 2)
            for x in (rng.standard_normal(op.dim), rng.standard_normal((op.dim, 3))):
                # padded (t, j, i) read as (t, column pair, column, row pair, row, entry, k)
                bp = op.padding.pad(x).reshape(T1, Np // 2, 2, Kp // 2, 2, nb, -1)
                rows = bp.transpose(to_rows).reshape(op.padding.size, -1)
                y = factor.cholesky.solve(rows)
                y = y.reshape(lead + (2, 2, nb, -1)).transpose(back)
                assert np.array_equal(factor.solve(x), op.padding.unpad(y, x.ndim == 1))

    def test_shallow_pair_solve_is_one_symmetric_inverse(self):
        # at most DENSE_PAIR_ROWS block rows: one product with every pair
        # block's explicit inverse, which must solve the pair diagonal to
        # rounding and be exactly symmetric, padded or not, rows or columns
        rng = np.random.default_rng(22)
        for problem in (generate_msd_case(3, 3, 2, seed=22), generate_msd_case(4, 2, 1, seed=22),
                        generate_msd_case(5, 4, 2, seed=22),
                        generate_irrigation_case(24, 4, 2, seed=22),
                        random_problem(5, 3, 2, True, seed=5)):  # mixed n and m
            op = build_schur(build_stacked(problem))
            split = build_splitting(op)
            factor = split.factor()
            assert factor.shape[0] <= DENSE_PAIR_ROWS
            assert factor.cholesky is None and factor.inverse is not None
            assert np.array_equal(factor.inverse, transposed(factor.inverse))
            assert factor.solve_flops == factor.inverse.size
            phi = split.densify_pair_diag(5000)
            x = rng.standard_normal((op.dim, 3))
            for b in (x[:, 0], x):
                want = np.linalg.solve(phi, b)
                got = factor.solve(b)
                assert got.shape == b.shape
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_matvec_flops_counts_blocks(self):
        pad = Padding([[2, 2], [2, 2]], 1)
        weights = {o: np.zeros(pad.grid + (2, 2)) for o in [(0, 0, 0), (0, 0, -1), (0, 0, 1)]}
        weights[(0, 0, 0)][:] = np.eye(2)
        weights[(0, 0, -1)][0, 0, 1] = 1.0
        op = stencil_of(weights, pad)
        # the fused kernel multiplies every block of both kept offsets at
        # all four padded positions, one multiply per block entry; the
        # all-zero offset is dropped
        assert set(op.weights) == {(0, 0, 0), (0, 0, -1)}
        assert op.flops == 2 * 4 * 4
        x = np.arange(8.0)
        assert np.array_equal(op.apply(x), op.densify() @ x)


class TestFusedStencil:
    """The fused apply against the dense matrix of the same blocks."""

    @pytest.mark.parametrize("sizes, stages", [
        ([[3, 2, 1], [1, 3, 2], [2, 2, 3]], 2),   # odd K and N, mixed sizes
        ([[2, 1, 2], [1, 2, 2]], 1),              # odd N, one stage
        ([[1], [2], [3]], 3),                     # one column, odd K
        ([[2, 2], [2, 2]], 1),                    # nothing padded
    ])
    @pytest.mark.parametrize("cols", [None, 1, 4])
    def test_apply_matches_densify(self, sizes, stages, cols):
        rng = np.random.default_rng(16)
        op = random_stencil(rng, sizes, OFFSETS, stages)
        dense = op.densify()
        shape = (op.padding.dim,) if cols is None else (op.padding.dim, cols)
        x = rng.standard_normal(shape)
        out = op.apply(x)
        assert out.shape == shape
        scale = np.max(np.abs(dense) @ np.abs(x))
        assert np.max(np.abs(out - dense @ x)) <= 1e-14 * scale
        assert np.array_equal(op.transpose().densify(), dense.T)

    def test_non_finite_entry_reaches_only_its_readers(self):
        # off-grid sources read a zero row, never another entry, so a NaN
        # operand entry spreads exactly as far as the blocks that read it
        rng = np.random.default_rng(21)
        op = random_stencil(rng, [[2, 1, 2], [1, 2, 2]], OFFSETS)
        dense = op.densify()
        for i in (0, 1, op.padding.dim - 1):
            x = np.zeros(op.padding.dim)
            x[i] = np.nan
            assert np.array_equal(np.isnan(op.apply(x)), dense[:, i] != 0)

    def test_no_offsets_gives_zeros(self):
        pad = Padding([[2, 1], [1, 2]], 2)
        op = stencil_of({(0, 1, 0): np.zeros(pad.grid + (2, 2))}, pad)
        assert op.offsets == () and op.flops == 0
        x = np.random.default_rng(17).standard_normal((pad.dim, 3))
        assert np.array_equal(op.apply(x), np.zeros_like(x))
        assert np.array_equal(op.apply(x[:, 0]), np.zeros(pad.dim))
        assert np.array_equal(op.densify(), np.zeros((pad.dim, pad.dim)))

    def test_inner_coupling_of_two_columns_is_empty(self):
        # with two grid columns and no more rows every stage-diagonal block
        # lies within the one column pair, so the inter-pair couplings have
        # no offsets (with K > N the rows pair instead)
        op = build_schur(build_stacked(generate_msd_case(2, 2, 2, seed=18)))
        split = build_splitting(op)
        assert split.inner.offsets == ()
        x = np.random.default_rng(18).standard_normal(op.dim)
        assert np.array_equal(split.apply_inner_coupling(x), np.zeros(op.dim))

    def test_blocks_share_one_fused_array(self):
        # the per-offset blocks are views, never a second copy: the memory
        # budget of the operators depends on it
        for problem in (generate_msd_case(4, 4, 3, seed=19),
                        generate_irrigation_case(6, 4, 3, seed=19)):
            op = build_schur(build_stacked(problem))
            split = build_splitting(op)
            for stencil in (op.stencil, op.outer, split.inner):
                assert stencil.weights
                for w in stencil.weights.values():
                    assert np.shares_memory(w, stencil.fused)
            assert op.diag.weights
            for o, w in op.diag.weights.items():
                assert np.shares_memory(w, op.stencil.fused)
                assert np.array_equal(w, op.stencil.weights[o])


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
