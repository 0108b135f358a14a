import numpy as np
import pytest

from gridlq import (
    BreakdownError,
    DimensionMismatchError,
    MaxIterationsExceeded,
    NestedJacobiPreconditioner,
    build_schur,
    build_stacked,
    cg_solve,
    dense_reference_solve,
    generate_irrigation_case,
    generate_msd_case,
    pcg_solve,
)

from conftest import make_uncoupled_problem


class NegatedOperator:
    """Stub that violates positive definiteness."""

    def __init__(self, dim):
        self.dim = dim
        self.matvec_flops = dim

    def apply(self, x):
        return -x


@pytest.fixture(scope="module")
def msd_setup():
    problem = generate_msd_case(3, 3, 3, seed=1)
    stacked = build_stacked(problem)
    op = build_schur(stacked)
    precond = NestedJacobiPreconditioner(op, 2, 2)
    reference = dense_reference_solve(problem)
    return problem, stacked, op, precond, reference


class TestConvergence:
    def test_identity_converges_in_one_step(self):
        p = make_uncoupled_problem(K=1, N=2, T=1, n=2, m=1, a_scale=0.0)
        op = build_schur(build_stacked(p))
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal(op.dim)
        x, report = cg_solve(op, rhs, tol=1e-9)
        assert report.steps == 1 and report.converged
        assert np.max(np.abs(x - rhs)) < 1e-12

    def test_matches_dense_oracle(self, msd_setup):
        _, stacked, op, precond, reference = msd_setup
        x, report = pcg_solve(op, precond, stacked.offset, tol=1e-9)
        assert report.converged
        scale = np.max(np.abs(reference.multipliers))
        assert np.max(np.abs(x - reference.multipliers)) < 1e-6 * scale

    def test_plain_cg_matches_oracle(self, msd_setup):
        _, stacked, op, _, reference = msd_setup
        x, report = cg_solve(op, stacked.offset, tol=1e-9)
        assert report.converged
        scale = np.max(np.abs(reference.multipliers))
        assert np.max(np.abs(x - reference.multipliers)) < 1e-6 * scale

    def test_preconditioning_reduces_steps(self):
        p = generate_msd_case(4, 4, 4, seed=2)
        stacked = build_stacked(p)
        op = build_schur(stacked)
        precond = NestedJacobiPreconditioner(op, 2, 2)
        _, plain = cg_solve(op, stacked.offset, tol=1e-9)
        _, pre = pcg_solve(op, precond, stacked.offset, tol=1e-9)
        assert pre.steps < plain.steps

    def test_true_residual_meets_tolerance(self, msd_setup):
        _, stacked, op, precond, _ = msd_setup
        tol = 1e-9
        x, _ = pcg_solve(op, precond, stacked.offset, tol=tol)
        true_res = np.max(np.abs(stacked.offset - op.apply(x)))
        assert true_res < tol + 1e-12 * np.max(np.abs(stacked.offset))

    def test_warm_start(self, msd_setup):
        _, stacked, op, precond, reference = msd_setup
        _, cold = pcg_solve(op, precond, stacked.offset, tol=1e-9)
        x0 = reference.multipliers * 0.99
        x, warm = pcg_solve(op, precond, stacked.offset, tol=1e-9, x0=x0)
        assert warm.converged
        assert warm.steps <= cold.steps
        scale = np.max(np.abs(reference.multipliers))
        assert np.max(np.abs(x - reference.multipliers)) < 1e-6 * scale

    def test_finite_termination_bound(self):
        for seed in range(3):
            p = generate_irrigation_case(2, 2, 2, seed=seed)
            stacked = build_stacked(p)
            op = build_schur(stacked)
            _, report = cg_solve(op, stacked.offset, tol=1e-9)
            assert report.steps <= op.dim + 5


class TestCgProperties:
    def test_energy_norm_error_monotone(self, msd_setup):
        _, stacked, op, precond, reference = msd_setup
        dense = op.densify(5000)
        star = reference.multipliers
        energies = []

        def record(step, x, r):
            e = x - star
            energies.append(float(e @ dense @ e))

        pcg_solve(op, precond, stacked.offset, tol=1e-9, callback=record)
        scale = energies[0]
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 1e-8 * scale

    def test_recurred_residual_tracks_true_residual(self, msd_setup):
        _, stacked, op, _, _ = msd_setup
        rhs_scale = np.max(np.abs(stacked.offset))
        checks = []

        def verify(step, x, r):
            if step % 10 == 0:
                true_r = stacked.offset - op.apply(x)
                checks.append(np.max(np.abs(true_r - r)))

        cg_solve(op, stacked.offset, tol=1e-9, callback=verify)
        assert checks
        assert max(checks) < 1e-8 * rhs_scale


class TestReport:
    def test_history_matches_steps_and_convergence(self, msd_setup):
        _, stacked, op, precond, _ = msd_setup
        _, report = pcg_solve(op, precond, stacked.offset, tol=1e-9)
        assert len(report.residual_inf_history) == report.steps
        assert report.converged == (report.residual_inf_history[-1] < report.tolerance)
        assert all(np.isfinite(v) for v in report.residual_inf_history)
        assert report.wall_time_s >= 0

    def test_op_counts_populated(self, msd_setup):
        _, stacked, op, precond, _ = msd_setup
        _, report = pcg_solve(op, precond, stacked.offset, tol=1e-9)
        n = op.dim
        s = report.steps
        assert report.op_counts["operator_apply"] == s * op.matvec_flops
        assert report.op_counts["preconditioner_apply"] == s * precond.apply_flops
        assert report.op_counts["curvature_dot"] == s * n
        assert report.op_counts["solution_update"] == s * n
        # the setup apply and dot stand in for the skipped final loop ones
        assert report.op_counts["precondition_dot"] == s * n
        assert report.op_counts["direction_update"] == (s - 1) * n

    def test_flops_per_step(self, msd_setup):
        _, stacked, op, precond, _ = msd_setup
        _, report = pcg_solve(op, precond, stacked.offset, tol=1e-9)
        assert report.flops_per_step > op.matvec_flops


class TestFailureModes:
    def test_breakdown_on_indefinite_operator(self):
        op = NegatedOperator(6)
        with pytest.raises(BreakdownError):
            cg_solve(op, np.ones(6), tol=1e-9)

    def test_max_steps_exceeded_carries_payload(self, msd_setup):
        _, stacked, op, precond, _ = msd_setup
        with pytest.raises(MaxIterationsExceeded) as info:
            pcg_solve(op, precond, stacked.offset, tol=1e-9, max_steps=2)
        exc = info.value
        assert exc.iterations == 2
        assert exc.report is not None and not exc.report.converged
        assert exc.iterate is not None and exc.iterate.shape == (op.dim,)

    def test_rejects_bad_inputs(self, msd_setup):
        _, stacked, op, _, _ = msd_setup
        with pytest.raises(DimensionMismatchError):
            cg_solve(op, np.zeros(op.dim + 1))
        with pytest.raises(ValueError):
            cg_solve(op, np.full(op.dim, np.nan))
        with pytest.raises(ValueError):
            cg_solve(op, stacked.offset, tol=0.0)
