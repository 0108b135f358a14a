import numpy as np
import pytest

from gridlq import (
    DimensionGuardError,
    MaxIterationsExceeded,
    NestedJacobiPreconditioner,
    build_schur,
    build_splitting,
    build_stacked,
    dense_reference_solve,
    generate_irrigation_case,
    generate_msd_case,
)

from conftest import make_uncoupled_problem


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
        # the exact answer appears after one sweep; the successive-difference
        # detector can only confirm it on the next one
        assert outers <= 2
        assert np.array_equal(sol, r)

    def test_converges_to_oracle(self, msd_ops):
        problem, stacked, op, precond = msd_ops
        ref = dense_reference_solve(problem)
        sol, outers = precond.solve(stacked.offset, tol=1e-9)
        res = np.max(np.abs(op.apply(sol) - stacked.offset))
        assert res / np.max(np.abs(stacked.offset)) < 1e-7
        assert np.max(np.abs(sol - ref.multipliers)) < 1e-6
        assert outers > 10

    def test_odd_inner_budget_allowed(self):
        p = generate_irrigation_case(2, 2, 2)
        stacked = build_stacked(p)
        op = build_schur(stacked)
        precond = NestedJacobiPreconditioner(op, inner_sweeps=1, outer_sweeps=1)
        sol, _ = precond.solve(stacked.offset, tol=1e-10)
        res = np.max(np.abs(op.apply(sol) - stacked.offset))
        assert res < 1e-8 * max(1.0, np.max(np.abs(stacked.offset)))

    def test_max_outer_exhaustion(self, msd_ops):
        _, stacked, op, precond = msd_ops
        with pytest.raises(MaxIterationsExceeded) as info:
            precond.solve(stacked.offset, tol=1e-9, max_outer=1)
        assert info.value.iterations == 1
        assert info.value.iterate is not None


class TestInnerSweep:
    def test_uncoupled_pairs_independent_of_budget(self):
        p = generate_irrigation_case(3, 2, 2)  # N=2: a single pair, no coupling
        stacked = build_stacked(p)
        op = build_schur(stacked)
        precond = NestedJacobiPreconditioner(op, 2, 2)
        one = precond.inner_sweep(stacked.offset, sweeps=1)
        three = precond.inner_sweep(stacked.offset, sweeps=3)
        assert np.array_equal(one, three)

    def test_matches_two_term_neumann(self, msd_ops):
        _, stacked, op, precond = msd_ops
        _, psi, phi = dense_parts(op, precond.splitting)
        expect = neumann_inner(phi, phi - psi, 2) @ stacked.offset
        got = precond.inner_sweep(stacked.offset, sweeps=2)
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
        assert factor.shape[1:3] == (op.layout.T + 1, len(op.pairs))

    def test_apply_flops_scale_linearly_in_rows(self):
        def flops(K):
            p = generate_msd_case(K, 4, 4, seed=0)
            op = build_schur(build_stacked(p))
            return NestedJacobiPreconditioner(op, 2, 2).apply_flops

        ratio = flops(8) / flops(4)
        assert 0.8 * 2 <= ratio <= 1.3 * 2
