import math

import numpy as np
import pytest

from gridlq import (
    DimensionGuardError,
    DivergenceError,
    MaxIterationsExceeded,
    NestedJacobiPreconditioner,
    build_schur,
    build_splitting,
    build_stacked,
    cg_solve,
    dense_reference_solve,
    generate_irrigation_case,
    generate_msd_case,
    pcg_solve,
    splitting_spectral_radii,
)

from gridlq.nested_jacobi import PAIRS

from conftest import column_pairs, make_uncoupled_problem, transpose
from test_property_oracle import random_problem


def dense_parts(op, split):
    dense = op.densify(5000)
    psi = op.densify_block_diag(5000)
    phi = split.densify_pair_diag(5000)
    return dense, psi, phi


def neumann_inner(phi, omega, sweeps):
    phinv = np.linalg.inv(phi)
    total = np.zeros_like(phi)
    term = phinv.copy()
    for _ in range(sweeps):
        total += term
        term = phinv @ omega @ term
    return total


@pytest.fixture(scope="module")
def msd_ops():
    problem = generate_msd_case(3, 3, 3, seed=1)
    stacked = build_stacked(problem)
    op = build_schur(stacked)
    precond = NestedJacobiPreconditioner(op, inner_sweeps=2, outer_sweeps=2)
    return problem, stacked, op, precond


class TestPreconditionerApply:
    def test_degenerate_splitting_is_exact_inverse(self):
        # no spatial coupling and zero dynamics: both coupling terms vanish
        p = make_uncoupled_problem(K=2, N=1, T=2, n=2, m=1, a_scale=0.0,
                                   init_scale=1.0)
        op = build_schur(build_stacked(p))
        precond = NestedJacobiPreconditioner(op, 2, 2)
        rng = np.random.default_rng(0)
        r = rng.standard_normal(op.dim)
        expect = np.linalg.solve(op.densify(5000), r)
        assert np.max(np.abs(precond.apply(r) - expect)) < 1e-12

    def test_single_outer_matches_neumann_sum(self, msd_ops):
        _, _, op, _ = msd_ops
        precond = NestedJacobiPreconditioner(op, inner_sweeps=2, outer_sweeps=1)
        dense, psi, phi = dense_parts(op, precond.splitting)
        expect = neumann_inner(phi, phi - psi, 2)
        rng = np.random.default_rng(1)
        r = rng.standard_normal(op.dim)
        assert np.max(np.abs(precond.apply(r) - expect @ r)) < 1e-11

    def test_budgeted_map_matches_closed_form(self, msd_ops):
        _, _, op, precond = msd_ops
        dense, psi, phi = dense_parts(op, precond.splitting)
        ups = neumann_inner(phi, phi - psi, 2)
        grad = ups + ups @ (psi - dense) @ ups
        rng = np.random.default_rng(2)
        r = rng.standard_normal(op.dim)
        assert np.max(np.abs(precond.apply(r) - grad @ r)) < 1e-11

    def test_linearity(self, msd_ops):
        _, _, op, precond = msd_ops
        rng = np.random.default_rng(3)
        r1 = rng.standard_normal(op.dim)
        r2 = rng.standard_normal(op.dim)
        lhs = precond.apply(r1 + r2)
        rhs = precond.apply(r1) + precond.apply(r2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_self_adjoint(self, msd_ops):
        _, _, op, precond = msd_ops
        rng = np.random.default_rng(4)
        for _ in range(5):
            r1 = rng.standard_normal(op.dim)
            r2 = rng.standard_normal(op.dim)
            lhs = float(precond.apply(r1) @ r2)
            rhs = float(r1 @ precond.apply(r2))
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_odd_inner_budget_refused_for_apply(self, msd_ops):
        _, _, op, _ = msd_ops
        precond = NestedJacobiPreconditioner(op, inner_sweeps=1, outer_sweeps=2)
        with pytest.raises(ValueError, match="even"):
            precond.apply(np.zeros(op.dim))

    def test_bad_budgets_rejected(self, msd_ops):
        _, _, op, _ = msd_ops
        with pytest.raises(ValueError):
            NestedJacobiPreconditioner(op, inner_sweeps=0)
        with pytest.raises(ValueError):
            NestedJacobiPreconditioner(op, outer_sweeps=0)


class TestMaterialize:
    def test_degenerate_equals_pair_diag_inverse(self):
        p = make_uncoupled_problem(K=2, N=1, T=1, n=2, m=1, a_scale=0.0)
        op = build_schur(build_stacked(p))
        precond = NestedJacobiPreconditioner(op, 2, 2)
        mat = precond.materialize()
        expect = np.linalg.inv(precond.splitting.densify_pair_diag(5000))
        assert np.max(np.abs(mat - expect)) < 1e-12

    @pytest.mark.parametrize("inner,outer", [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2)])
    def test_symmetric_positive_definite(self, inner, outer):
        p = generate_msd_case(2, 2, 2, seed=5)
        op = build_schur(build_stacked(p))
        precond = NestedJacobiPreconditioner(op, inner, outer)
        mat = precond.materialize()
        assert np.max(np.abs(mat - mat.T)) < 1e-10
        assert np.linalg.eigvalsh(0.5 * (mat + mat.T))[0] > 0

    def test_guard(self, msd_ops):
        _, _, op, precond = msd_ops
        with pytest.raises(DimensionGuardError):
            precond.materialize(max_dim=8)


class TestStandaloneSolve:
    def test_identity_operator_immediate(self):
        p = make_uncoupled_problem(K=1, N=1, T=1, n=2, m=1, a_scale=0.0)
        op = build_schur(build_stacked(p))
        precond = NestedJacobiPreconditioner(op, 2, 2)
        rng = np.random.default_rng(6)
        r = rng.standard_normal(op.dim)
        sol, outers = precond.solve(r, tol=1e-9)
        # the sweep inverts the operator exactly, so the true residual
        # checked after the first sweep is already zero
        assert outers == 1
        assert np.array_equal(sol, r)

    def test_converges_to_oracle(self, msd_ops):
        problem, stacked, op, precond = msd_ops
        ref = dense_reference_solve(problem)
        sol, outers = precond.solve(stacked.offset, tol=1e-9)
        res = np.max(np.abs(op.apply(sol) - stacked.offset))
        assert res / np.max(np.abs(stacked.offset)) < 1e-7
        assert np.max(np.abs(sol - ref.multipliers)) < 1e-6
        assert outers > 10

    @pytest.mark.parametrize("case", ["msd", "irrigation"])
    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_returns_only_below_tol(self, case, size):
        # the criterion-7 instances; tol bounds the true residual
        if case == "msd":
            p = generate_msd_case(size, size, size, 0)
        else:
            p = generate_irrigation_case(size, size, size, seed=0)
        stacked = build_stacked(p)
        op = build_schur(stacked)
        precond = NestedJacobiPreconditioner(op, 2, 2)
        sol, _ = precond.solve(stacked.offset, tol=1e-9)
        assert np.max(np.abs(op.apply(sol) - stacked.offset)) < 1e-9

    def test_odd_inner_budget_diverges_early(self):
        p = generate_msd_case(3, 3, 3, 0)
        stacked = build_stacked(p)
        precond = NestedJacobiPreconditioner(build_schur(stacked), inner_sweeps=1)
        with pytest.raises(DivergenceError) as info:
            precond.solve(stacked.offset, tol=1e-9)
        assert info.value.iterations <= 300
        assert info.value.iterate is not None

    def test_odd_inner_budget_allowed(self):
        p = generate_irrigation_case(2, 2, 2)
        stacked = build_stacked(p)
        op = build_schur(stacked)
        precond = NestedJacobiPreconditioner(op, inner_sweeps=1, outer_sweeps=1)
        sol, _ = precond.solve(stacked.offset, tol=1e-10)
        res = np.max(np.abs(op.apply(sol) - stacked.offset))
        assert res < 1e-8 * max(1.0, np.max(np.abs(stacked.offset)))

    @pytest.mark.parametrize("tol", [0, -1, float("nan"), float("inf")])
    def test_rejects_bad_tol(self, msd_ops, tol):
        _, stacked, _, precond = msd_ops
        with pytest.raises(ValueError, match="tolerance"):
            precond.solve(stacked.offset, tol=tol, max_outer=1)

    def test_max_outer_exhaustion(self, msd_ops):
        _, stacked, op, precond = msd_ops
        with pytest.raises(MaxIterationsExceeded) as info:
            precond.solve(stacked.offset, tol=1e-9, max_outer=1)
        assert info.value.iterations == 1
        assert info.value.iterate is not None


class TestInnerSweep:
    def test_uncoupled_pairs_independent_of_budget(self):
        p = generate_irrigation_case(2, 2, 2)  # K, N <= 2: a single pair, no coupling
        stacked = build_stacked(p)
        op = build_schur(stacked)
        split = build_splitting(op)
        one = NestedJacobiPreconditioner(op, inner_sweeps=1, splitting=split)
        three = NestedJacobiPreconditioner(op, inner_sweeps=3, splitting=split)
        assert np.array_equal(one.inner_sweep(stacked.offset),
                              three.inner_sweep(stacked.offset))

    def test_matches_two_term_neumann(self, msd_ops):
        _, stacked, op, precond = msd_ops
        _, psi, phi = dense_parts(op, precond.splitting)
        expect = neumann_inner(phi, phi - psi, 2) @ stacked.offset
        got = NestedJacobiPreconditioner(
            op, inner_sweeps=2, splitting=precond.splitting).inner_sweep(stacked.offset)
        assert np.max(np.abs(got - expect)) < 1e-11

    def test_zero_rhs(self, msd_ops):
        _, _, op, precond = msd_ops
        out = precond.inner_sweep(np.zeros(op.dim))
        assert np.array_equal(out, np.zeros(op.dim))


class TestSpectralStructure:
    @pytest.mark.parametrize("case", ["msd", "irrigation"])
    def test_splitting_radii_below_one(self, case):
        if case == "msd":
            p = generate_msd_case(2, 3, 2, seed=8)
        else:
            p = generate_irrigation_case(3, 2, 2, seed=8)
        op = build_schur(build_stacked(p))
        split = build_splitting(op)
        dense, psi, phi = dense_parts(op, split)
        rho_outer = np.max(np.abs(np.linalg.eigvals(np.linalg.solve(psi, psi - dense))))
        rho_inner = np.max(np.abs(np.linalg.eigvals(np.linalg.solve(phi, phi - psi))))
        assert 0 <= rho_outer < 1
        assert 0 <= rho_inner < 1
        got_inner, got_outer = splitting_spectral_radii(op, split)
        assert abs(got_inner - rho_inner) < 1e-10
        assert abs(got_outer - rho_outer) < 1e-10

    @pytest.mark.parametrize("case", ["msd", "irrigation"])
    def test_matrix_free_radii_match_dense(self, case):
        # the radii `gridlq run` reports, from a solve at its default tol
        for size in range(2, 8):
            for seed in range(3):
                p = (generate_msd_case(size, size, size, seed) if case == "msd"
                     else generate_irrigation_case(size, size, size, seed=seed))
                stacked = build_stacked(p)
                op = build_schur(stacked)
                precond = NestedJacobiPreconditioner(op, 2, 2)
                _, report = pcg_solve(op, precond, stacked.offset, tol=1e-9)
                inner, outer = precond.splitting_radii(report)
                want_inner, want_outer = splitting_spectral_radii(op, precond.splitting)
                assert abs(outer - want_outer) <= 1e-3 * want_outer, (size, seed)
                # Ritz values lie inside the spectrum: never above the radius
                assert want_inner - 1e-5 * want_inner - 1e-12 <= inner, (size, seed)
                assert inner <= want_inner + 1e-12, (size, seed)

    @pytest.mark.parametrize("sweeps", [2, 4])
    def test_truncated_inverse_is_underestimate(self, sweeps, msd_ops):
        # the tail of the inner expansion is positive semidefinite for even
        # budgets, so the stage-diagonal inverse dominates the truncation
        _, _, op, precond = msd_ops
        _, psi, phi = dense_parts(op, precond.splitting)
        ups = neumann_inner(phi, phi - psi, sweeps)
        gap = np.linalg.inv(psi) - ups
        gap = 0.5 * (gap + gap.T)
        scale = np.max(np.abs(np.linalg.inv(psi)))
        assert np.linalg.eigvalsh(gap)[0] >= -1e-9 * scale


class TestBookkeeping:
    def test_factors_built_once_at_construction(self, msd_ops):
        _, _, op, precond = msd_ops
        before = {k: id(v) for k, v in precond.factors.items()}
        precond.apply(np.zeros(op.dim))
        precond.solve(np.zeros(op.dim), tol=1e-3, max_outer=3)
        assert before == {k: id(v) for k, v in precond.factors.items()}
        # a single batched factor covers every (pair, stage)
        (factor,) = precond.factors.values()
        assert factor.shape[1:3] == (op.layout.T + 1, len(column_pairs(op.layout.N)))

    def test_apply_flops_scale_linearly_in_rows(self):
        def flops(K):
            p = generate_msd_case(K, 4, 4, seed=0)
            op = build_schur(build_stacked(p))
            return NestedJacobiPreconditioner(op, 2, 2).apply_flops

        ratio = flops(8) / flops(4)
        assert 0.8 * 2 <= ratio <= 1.3 * 2

    def test_step_flops_per_unknown_stay_bounded_with_depth(self):
        # shallow pairs use a dense inverse, whose cost per unknown grows
        # with the depth; its cap keeps a step O(KNT) on square grids,
        # which criterion 8 cannot see: it grows one axis at a time
        per_unknown = []
        for size in (4, 8, 16, 32):
            stacked = build_stacked(generate_msd_case(size, size, 2, seed=0))
            op = build_schur(stacked)
            with pytest.raises(MaxIterationsExceeded) as exc:
                pcg_solve(op, NestedJacobiPreconditioner(op), stacked.offset, max_steps=3)
            per_unknown.append(exc.value.report.flops_per_step / op.dim)
        assert max(per_unknown) <= 1.5 * min(per_unknown)


class TestOrientation:
    """The padded grid is (t, j, i) for every grid shape; with K > N the
    splitting pairs rows, so that the pair tridiagonal runs along the shorter
    axis: a problem then solves as its transpose does, with the same steps
    and the same factor depth."""

    @pytest.mark.parametrize("make", [
        lambda: generate_irrigation_case(24, 4, 3, seed=3),
        lambda: generate_msd_case(5, 2, 3, seed=4),  # odd K, N <= 2
        lambda: random_problem(5, 3, 2, True, seed=5),  # mixed n and m, four boundary edges
    ], ids=["irrigation-24x4x3", "msd-5x2x3", "random-5x3x2"])
    def test_problem_solves_as_its_transpose(self, make):
        runs, problem = [], make()
        for p in (problem, transpose(problem)):
            stacked = build_stacked(p)
            schur = build_schur(stacked)
            precond = NestedJacobiPreconditioner(schur)
            assert precond.factors[PAIRS].shape[0] == math.ceil(min(p.K, p.N) / 2)
            lam, report = pcg_solve(schur, precond, stacked.offset, tol=1e-10)
            plain = cg_solve(schur, stacked.offset, tol=1e-10)[1]
            runs.append((p, stacked.layout, lam, report, plain))
        (p, _, lam, report, plain), (_, lay_t, lam_t, report_t, plain_t) = runs
        assert p.K > p.N
        assert report.steps == report_t.steps
        # plain CG amplifies rounding: its estimate moves in the 8th digit
        assert report.kappa_estimate == pytest.approx(report_t.kappa_estimate, rel=1e-9)
        assert plain.kappa_estimate == pytest.approx(plain_t.kappa_estimate, rel=1e-6)
        # the transpose's multipliers, read in the problem's natural order
        moved = np.concatenate([lam_t[lay_t.x_slice(j, i, t)] for t in range(p.T + 1)
                                for j in range(p.N) for i in range(p.K)])
        assert np.max(np.abs(moved - lam)) <= 1e-12 * np.max(np.abs(lam))

    def test_wide_and_square_grids_keep_columns_first(self):
        for K, N, T in ((3, 3, 2), (2, 5, 1), (4, 4, 2), (5, 2, 1), (24, 4, 2)):
            stacked = build_stacked(generate_msd_case(K, N, T, seed=6))
            assert stacked.xpad.grid == (T + 1, N + N % 2, K + K % 2)

    def test_unpadded_tall_grid_converts_by_reshape(self):
        # K > N with nothing padded: the padded (t, j, i) order is the
        # natural one, so operands are views, never gathered copies
        xpad = build_stacked(generate_irrigation_case(24, 4, 3)).xpad
        assert xpad.is_reshape
        x = np.arange(float(xpad.dim))
        assert np.shares_memory(xpad.pad(x), x)
