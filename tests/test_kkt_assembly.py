import gc
import weakref

import numpy as np
import pytest

from gridlq import (
    DimensionGuardError,
    GridLayout,
    NestedJacobiPreconditioner,
    build_schur,
    build_splitting,
    build_stacked,
    generate_irrigation_case,
    generate_msd_case,
    reference_stage_block,
)
from gridlq import block_linalg, grid_problem
from gridlq.block_linalg import spd_inverse, transposed
from gridlq.oracle import _dense_kkt

from conftest import (
    column_pairs,
    make_boundary_problem,
    make_scalar_chain,
    make_uncoupled_problem,
)


def dense_delta_oracle(problem):
    lay = GridLayout(problem)
    a, b, q, r, _ = _dense_kkt(problem, lay)
    return a @ np.linalg.solve(q, a.T) + b @ np.linalg.solve(r, b.T)


def stage_pairs(lay, t):
    """Natural-layout indices of every subsystem pair of stage t: column
    pairs when K <= N, row pairs when K > N."""
    rows, cols = [range(lay.K)], column_pairs(lay.N)
    if lay.K > lay.N:
        rows, cols = column_pairs(lay.K), [range(lay.N)]
    for r in rows:
        for c in cols:
            yield np.concatenate([np.arange(lay.x_slice(i, j, t).start, lay.x_slice(i, j, t).stop)
                                  for j in c for i in r])


def alternating_signs(block_sizes):
    """diag(+I, -I, +I, ...) over the given block sizes."""
    parts = [((-1.0) ** k) * np.ones(sz) for k, sz in enumerate(block_sizes)]
    return np.diag(np.concatenate(parts))


class TestBuildStacked:
    def test_single_subsystem_pieces(self):
        p = make_uncoupled_problem(K=1, N=1, T=2, n=2, m=1, a_scale=0.3)
        s = build_stacked(p)
        # the identity pinning plus the dynamics; no coupling offsets
        assert set(s.constraint.weights) == {(0, 0, 0), (-1, 0, 0)}
        lay = s.layout
        dense = s.constraint.densify()
        assert np.array_equal(
            dense[lay.stage_x_slice(1), lay.stage_x_slice(0)], 0.3 * np.eye(2)
        )

    def test_zero_data_gives_zero_offset(self):
        p = make_uncoupled_problem(K=2, N=2, T=2, init_scale=0.0)
        s = build_stacked(p)
        assert np.array_equal(s.offset, np.zeros_like(s.offset))

    def test_constraint_matches_dense_oracle(self, msd_333_ops):
        # recovery reads the stacks directly: the constraint stencil, its
        # transpose, and b, written into stages 1..T and read back from them
        problem, stacked, _ = msd_333_ops
        lay, xpad, upad = stacked.layout, stacked.xpad, stacked.upad
        a, b, _, _, off = _dense_kkt(problem, lay)

        def input_map(u):
            out = np.zeros(xpad.shape + (u.shape[1],))
            out[1:] = stacked.b @ upad.pad(u)
            return xpad.unpad(out, False)

        def input_map_t(x):
            return upad.unpad(transposed(stacked.b) @ xpad.pad(x)[1:], False)

        assert np.max(np.abs(stacked.constraint.densify() - a)) == 0.0
        assert np.max(np.abs(stacked.constraint_t.densify() - a.T)) == 0.0
        assert np.max(np.abs(input_map(np.eye(lay.m_total)) - b)) == 0.0
        assert np.max(np.abs(input_map_t(np.eye(lay.n_total)) - b.T)) == 0.0
        assert np.array_equal(stacked.offset, off)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((lay.n_total, 1))
        u = rng.standard_normal((lay.m_total, 1))
        assert np.max(np.abs(stacked.constraint.apply(x[:, 0]) - a @ x[:, 0])) < 1e-12
        assert np.max(np.abs(stacked.constraint_t.apply(x[:, 0]) - a.T @ x[:, 0])) < 1e-12
        assert np.max(np.abs(input_map(u) - b @ u)) < 1e-12
        assert np.max(np.abs(input_map_t(x) - b.T @ x)) < 1e-12

    def test_stage_map_is_tridiagonal_of_tridiagonal(self):
        p = generate_msd_case(2, 2, 2, seed=0)
        s = build_stacked(p)
        lay = s.layout
        dense = s.constraint.densify()[lay.stage_x_slice(1), lay.stage_x_slice(0)]
        for i in range(2):
            for j in range(2):
                for ic in range(2):
                    for jc in range(2):
                        blk = dense[
                            lay.col_x_offset[j] + 4 * i : lay.col_x_offset[j] + 4 * (i + 1),
                            lay.col_x_offset[jc] + 4 * ic : lay.col_x_offset[jc] + 4 * (ic + 1),
                        ]
                        dist = abs(i - ic) + abs(j - jc)
                        if dist > 1:
                            assert not blk.any()
                        else:
                            assert blk.any()

    def test_boundary_terms_in_offset(self):
        p = make_boundary_problem()
        s = build_stacked(p)
        lay = s.layout
        _, _, _, _, off = _dense_kkt(p, lay)
        assert np.array_equal(s.offset, off)
        assert np.max(np.abs(s.offset[lay.stage_x_slice(1)])) > 0

    def test_factors_cost_weights_once(self, monkeypatch):
        shapes = []
        factor = block_linalg.dense_cholesky
        counted = lambda m: shapes.append(np.shape(m)) or factor(m)  # noqa: E731
        monkeypatch.setattr(grid_problem, "dense_cholesky", counted)
        monkeypatch.setattr(block_linalg, "dense_cholesky", counted)
        s = build_stacked(generate_msd_case(3, 2, 2, seed=0))
        assert shapes == [s.q.shape, s.r.shape]
        monkeypatch.undo()
        assert s.qinv.tobytes() == spd_inverse(s.q).tobytes()
        assert s.rinv.tobytes() == spd_inverse(s.r).tobytes()

    def test_rejects_invalid_problem(self):
        p = generate_msd_case(2, 2, 2, seed=0)
        p.sub(0, 0).Q[0] = -np.eye(4)
        with pytest.raises(ValueError, match="positive definite"):
            build_stacked(p)


class TestBuildSchur:
    def test_scalar_closed_form(self):
        a, b, q, r = 0.7, 0.5, 2.0, 3.0
        p = make_scalar_chain(a=a, b=b, q=q, r=r, T=1)
        op = build_schur(build_stacked(p))
        assert np.allclose(op.stage_diag[0][(0, 0)].densify(), [[1 / q]], atol=1e-15)
        expect = 1 / q + a * a / q + b * b / r
        assert np.allclose(op.stage_diag[1][(0, 0)].densify(), [[expect]], atol=1e-15)
        assert np.allclose(op.densify()[1:, :1], [[-a / q]], atol=1e-15)

    def test_identity_operator(self):
        p = make_uncoupled_problem(K=1, N=2, T=2, n=2, m=1, a_scale=0.0)
        op = build_schur(build_stacked(p))
        assert np.array_equal(op.densify(), np.eye(op.dim))

    def test_matches_dense_oracle(self, msd_333_ops):
        _, _, op = msd_333_ops
        oracle = dense_delta_oracle(msd_333_ops[0])
        dense = op.densify(5000)
        assert np.max(np.abs(dense - oracle)) < 1e-12 * np.max(np.abs(oracle))

    def test_irrigation_matches_dense_oracle(self):
        p = generate_irrigation_case(3, 3, 2, seed=2)
        op = build_schur(build_stacked(p))
        oracle = dense_delta_oracle(p)
        assert np.max(np.abs(op.densify(5000) - oracle)) < 1e-12 * np.max(np.abs(oracle))

    def test_densify_exactly_symmetric(self, msd_333_ops):
        dense = msd_333_ops[2].densify(5000)
        assert np.array_equal(dense, dense.T)

    def test_positive_definite(self, msd_333_ops):
        evals = np.linalg.eigvalsh(msd_333_ops[2].densify(5000))
        assert evals[0] > 0

    def test_densify_guard(self, msd_333_ops):
        with pytest.raises(DimensionGuardError):
            msd_333_ops[2].densify(max_dim=10)

    def test_freed_without_cycle_collector(self):
        # a reference cycle would keep every operator's block arrays alive
        # until the cyclic collector runs, growing memory across solves
        op = build_schur(build_stacked(generate_msd_case(2, 3, 2, seed=0)))
        precond = NestedJacobiPreconditioner(op, 2, 2)
        assert op.stage_diag[1][(1, 0)].densify().any()
        refs = [weakref.ref(op), weakref.ref(precond)]
        gc.disable()
        try:
            del op, precond
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestApplyDelta:
    def test_identity_case(self):
        p = make_uncoupled_problem(K=1, N=1, T=2, n=2, m=1, a_scale=0.0)
        op = build_schur(build_stacked(p))
        x = np.arange(float(op.dim))
        assert np.allclose(op.apply(x), x, atol=1e-14)

    def test_matches_dense_product(self, msd_333_ops):
        _, _, op = msd_333_ops
        dense = op.densify(5000)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(op.dim)
        assert np.max(np.abs(op.apply(x) - dense @ x)) < 1e-12 * np.max(
            np.abs(dense @ x)
        )

    def test_unit_vectors_reconstruct_columns(self):
        p = generate_msd_case(2, 2, 2, seed=4)
        op = build_schur(build_stacked(p))
        dense = op.densify(5000)
        cols = np.column_stack(
            [op.apply(np.eye(op.dim)[:, k]) for k in range(op.dim)]
        )
        assert np.max(np.abs(cols - dense)) < 1e-13


class TestSplitting:
    def test_single_pair_equals_stage_diag(self):
        p = generate_irrigation_case(2, 1, 2)
        op = build_schur(build_stacked(p))
        split = build_splitting(op)
        # the factor's batch axes are (stage, line pair): K > N pairs the
        # rows, here both rows in one pair, coupled along the tridiagonal
        assert split.factor().shape[2] == 1
        assert np.array_equal(
            split.densify_pair_diag(5000), op.densify_block_diag(5000)
        )
        x = np.random.default_rng(0).standard_normal(op.dim)
        assert np.array_equal(split.apply_inner_coupling(x), np.zeros_like(x))

    def test_pair_grouping_shares_stage_values(self, msd_333_ops):
        # column pairs on 3x3, row pairs on 5x2
        for op in (msd_333_ops[2], build_schur(build_stacked(generate_msd_case(5, 2, 2, seed=1)))):
            split = build_splitting(op)
            phi = split.densify_pair_diag(5000)
            psi = op.densify_block_diag(5000)
            lay = op.layout
            for t in range(lay.T + 1):
                for g in stage_pairs(lay, t):
                    assert np.array_equal(phi[np.ix_(g, g)], psi[np.ix_(g, g)])

    def test_inner_coupling_matches_dense(self, msd_333_ops):
        _, _, op = msd_333_ops
        split = build_splitting(op)
        omega = split.densify_pair_diag(5000) - op.densify_block_diag(5000)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(op.dim)
        err = np.max(np.abs(split.apply_inner_coupling(x) - omega @ x))
        assert err < 1e-13 * max(1.0, np.max(np.abs(omega @ x)))

    def test_outer_coupling_matches_dense(self, msd_333_ops):
        _, _, op = msd_333_ops
        xi = op.densify_block_diag(5000) - op.densify(5000)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(op.dim)
        err = np.max(np.abs(op.apply_outer_coupling(x) - xi @ x))
        assert err < 1e-13 * max(1.0, np.max(np.abs(xi @ x)))

    def test_even_grid_distance_three_subblock_zero(self):
        p = generate_msd_case(2, 4, 2, seed=0)
        op = build_schur(build_stacked(p))
        split = build_splitting(op)
        lay = op.layout
        assert split.factor().shape[2] == 2
        omega = split.densify_pair_diag(5000) - op.densify_block_diag(5000)
        stage = omega[lay.stage_x_slice(1), lay.stage_x_slice(1)]
        # rows of pair 1 against columns of pair 0: the (col 3, col 0)
        # sub-block sits three columns apart and must vanish
        far = stage[lay.col_x_slice(3), lay.col_x_slice(0)]
        assert not far.any()
        near = stage[lay.col_x_slice(2), lay.col_x_slice(1)]
        assert near.any()

    def test_odd_grid_singleton_pair(self):
        p = generate_msd_case(2, 3, 2, seed=0)
        op = build_schur(build_stacked(p))
        split = build_splitting(op)
        lay = op.layout
        assert split.factor().shape[2] == 2
        # the singleton pair's diagonal block is its stage-diagonal column
        # block, with no coupling to the first pair
        phi = split.densify_pair_diag(5000)[lay.stage_x_slice(1), lay.stage_x_slice(1)]
        psi = op.densify_block_diag(5000)[lay.stage_x_slice(1), lay.stage_x_slice(1)]
        last, first = lay.col_x_slice(2), slice(0, lay.col_x_offset[2])
        assert np.array_equal(phi[last, last], psi[last, last])
        assert not phi[last, first].any() and psi[last, first].any()

    def test_factors_exist_for_all_pairs(self, msd_333_ops):
        for op in (msd_333_ops[2], build_schur(build_stacked(generate_msd_case(5, 2, 2, seed=1)))):
            factor = build_splitting(op).factor()
            # one batch entry per (block row, stage, pair): the pairs run along
            # the longer axis, the block rows along the shorter; odd sizes pad
            lay = op.layout
            short, long = sorted((lay.K, lay.N))
            assert factor.shape[:3] == (len(column_pairs(short)), lay.T + 1, len(column_pairs(long)))
            lam = factor.solve(np.ones(op.dim))
            assert lam.shape == (op.dim,)
            assert np.all(np.isfinite(lam))


class TestSignSimilarity:
    def test_stage_alternation_flips_outer_coupling(self, msd_333_ops):
        _, _, op = msd_333_ops
        lay = op.layout
        dense = op.densify(5000)
        psi = op.densify_block_diag(5000)
        xi = psi - dense
        signs = alternating_signs([lay.nhat] * (lay.T + 1))
        assert np.array_equal(signs @ dense @ signs, psi + xi)
        assert np.linalg.eigvalsh(psi + xi)[0] > 0

    def test_pair_alternation_flips_inner_coupling(self, msd_333_ops):
        _, _, op = msd_333_ops
        split = build_splitting(op)
        lay = op.layout
        psi = op.densify_block_diag(5000)
        phi = split.densify_pair_diag(5000)
        omega = phi - psi
        pair_sizes = []
        for _ in range(lay.T + 1):
            pair_sizes.extend(
                sum(lay.nbar[j] for j in cols) for cols in column_pairs(lay.N)
            )
        signs = alternating_signs(pair_sizes)
        assert np.array_equal(signs @ psi @ signs, phi + omega)
        assert np.linalg.eigvalsh(phi + omega)[0] > 0


class TestClosedFormCrossCheck:
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_same_column_block(self, msd_333_ops, t):
        problem, _, op = msd_333_ops
        piece = op.stage_diag[t][(1, 1)].densify()
        ref = reference_stage_block(problem, t, 1, 1)
        assert np.max(np.abs(piece - ref)) < 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("j", [1, 2])
    def test_adjacent_column_block(self, msd_333_ops, j):
        problem, _, op = msd_333_ops
        piece = op.stage_diag[1][(j, j - 1)].densify()
        ref = reference_stage_block(problem, 1, j, j - 1)
        assert np.max(np.abs(piece - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_two_apart_column_block(self, msd_333_ops):
        problem, _, op = msd_333_ops
        piece = op.stage_diag[1][(2, 0)].densify()
        ref = reference_stage_block(problem, 1, 2, 0)
        assert np.max(np.abs(piece - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_rejects_stage_zero(self, msd_333_ops):
        with pytest.raises(ValueError):
            reference_stage_block(msd_333_ops[0], 0, 1, 1)
