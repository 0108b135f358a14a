import numpy as np
import pytest

from gridlq import (
    BreakdownError,
    DimensionMismatchError,
    DivergenceError,
    MaxIterationsExceeded,
    NestedJacobiPreconditioner,
    build_schur,
    build_stacked,
    cg_solve,
    condition_numbers,
    dense_reference_solve,
    generate_irrigation_case,
    generate_msd_case,
    pcg_solve,
)
from gridlq.pcg import COUNT_KEYS, tridiagonal_extremes

from conftest import make_uncoupled_problem


class NegatedOperator:
    """Stub that violates positive definiteness."""

    def __init__(self, dim):
        self.dim = dim
        self.matvec_flops = dim

    def apply(self, x):
        return -x


class NaNOperator(NegatedOperator):
    """Stub whose products are all NaN."""

    def apply(self, x):
        return np.full_like(x, np.nan)


class DiagonalOperator:
    """SPD stub with a known spectrum: the given diagonal."""

    def __init__(self, diag):
        self.diag = np.asarray(diag, dtype=float)
        self.dim = self.diag.size
        self.matvec_flops = self.dim

    def apply(self, x):
        return self.diag * x


class DiagonalPreconditioner:
    """Stub preconditioner map r -> r / diag."""

    def __init__(self, diag):
        self.diag = np.asarray(diag, dtype=float)
        self.apply_flops = self.diag.size

    def apply(self, r):
        return r / self.diag


def pcg_counts(steps, applies, n, matvec_flops, apply_flops):
    """op_counts of a solve that took ``steps`` steps and applied the
    preconditioner ``applies`` times: one update per apply but the first."""
    return {"operator_apply": steps * matvec_flops, "curvature_dot": steps * n,
            "solution_update": steps * n, "residual_update": steps * n,
            "residual_norm": steps * n, "preconditioner_apply": applies * apply_flops,
            "precondition_dot": applies * n, "direction_update": (applies - 1) * n}


def assert_counts(report, want):
    assert list(report.op_counts) == list(COUNT_KEYS)
    assert all(type(v) is float for v in report.op_counts.values())
    assert report.op_counts == want


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
        rhs = stacked.offset.copy()
        x, report = pcg_solve(op, precond, stacked.offset, tol=1e-9)
        assert report.converged
        assert stacked.offset.tobytes() == rhs.tobytes()
        scale = np.max(np.abs(reference.multipliers))
        assert np.max(np.abs(x - reference.multipliers)) < 1e-6 * scale

    def test_plain_cg_matches_oracle(self, msd_setup):
        _, stacked, op, _, reference = msd_setup
        rhs = stacked.offset.copy()
        x, report = cg_solve(op, stacked.offset, tol=1e-9)
        assert report.converged
        assert stacked.offset.tobytes() == rhs.tobytes()
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
        # the setup apply stands in for the one the converged step skips
        s = report.steps
        assert_counts(report, pcg_counts(s, s, op.dim, op.matvec_flops, precond.apply_flops))

    @pytest.mark.parametrize("preconditioned", [False, True])
    def test_zero_right_hand_side_takes_no_step(self, preconditioned):
        op = DiagonalOperator(np.arange(1.0, 7.0))
        precond = DiagonalPreconditioner(np.arange(1.0, 7.0)) if preconditioned else None
        x, report = pcg_solve(op, precond, np.zeros(6), tol=1e-9)
        assert report.converged and report.steps == 0
        assert not x.any() and report.final_residual == 0.0
        assert report.kappa_estimate is None
        # the one preconditioner apply and its dot every solve makes
        assert_counts(report, pcg_counts(0, 1, 6, op.matvec_flops,
                                         precond.apply_flops if preconditioned else 0.0))

    def test_flops_per_step(self, msd_setup):
        _, stacked, op, precond, _ = msd_setup
        _, report = pcg_solve(op, precond, stacked.offset, tol=1e-9)
        assert report.flops_per_step > op.matvec_flops


class TestLanczosEstimate:
    @pytest.mark.parametrize("preconditioned", [False, True])
    def test_diagonal_spectrum(self, preconditioned):
        # the preconditioned spectrum is the same known one
        rng = np.random.default_rng(4)
        spectrum = np.geomspace(0.5, 400.0, 30)
        scale = rng.uniform(0.5, 2.0, 30) if preconditioned else np.ones(30)
        op = DiagonalOperator(spectrum * scale)
        precond = DiagonalPreconditioner(scale) if preconditioned else None
        _, report = pcg_solve(op, precond, rng.uniform(0.5, 1.5, 30), tol=1e-10)
        lo, hi = report.lanczos_extremes()
        assert abs(lo - 0.5) < 1e-8 * 0.5 and abs(hi - 400.0) < 1e-8 * 400.0
        assert report.kappa_estimate == hi / lo

    def test_coefficient_counts(self, msd_setup):
        _, stacked, op, precond, _ = msd_setup
        _, report = pcg_solve(op, precond, stacked.offset, tol=1e-9)
        assert len(report.alphas) == report.steps
        assert len(report.betas) == report.steps - 1
        with pytest.raises(MaxIterationsExceeded) as info:
            pcg_solve(op, precond, stacked.offset, tol=1e-9, max_steps=3)
        stopped = info.value.report
        assert len(stopped.alphas) == len(stopped.betas) == 3
        assert stopped.alphas == report.alphas[:3]

    @pytest.mark.parametrize("k", [1, 2, 7, 200])
    def test_tridiagonal_extremes_match_eigvalsh(self, k):
        rng = np.random.default_rng(k)
        diag = rng.uniform(-3.0, 5.0, k)
        off = rng.uniform(-2.0, 2.0, k - 1)
        off[::5] = 0.0  # split blocks need no special case
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        evals = np.linalg.eigvalsh(dense)
        lo, hi = tridiagonal_extremes(diag, off)
        scale = np.max(np.abs(evals))
        assert abs(lo - evals[0]) <= 1e-13 * scale
        assert abs(hi - evals[-1]) <= 1e-13 * scale

    def test_long_budget_stopped_run_needs_no_dense_eigenproblem(self, monkeypatch):
        # 3,000 steps: a dense tridiagonal would be 72 MB and an O(k^3) solve
        def refuse(*args, **kwargs):
            raise AssertionError("the estimate needs no dense eigenproblem")

        op = DiagonalOperator(np.geomspace(1.0, 1e8, 4000))
        with pytest.raises(MaxIterationsExceeded) as info:
            cg_solve(op, np.ones(4000), tol=1e-12, max_steps=3000)
        report = info.value.report
        assert len(report.alphas) == 3000
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        lo, hi = report.lanczos_extremes()
        # the largest eigenvalue is resolved, the smallest only bounded
        assert 1.0 <= lo < hi and abs(hi - 1e8) < 1e-8 * 1e8

    def test_bounds_dense_condition_numbers(self):
        # Ritz values lie inside the spectrum: the estimates never exceed the
        # dense values, and at convergence they are within 2% of them
        for family in ("msd", "irrigation"):
            for size in range(2, 7):
                for seed in range(3):
                    if family == "msd":
                        p = generate_msd_case(size, size, size, seed)
                    else:
                        p = generate_irrigation_case(size, size, size, seed=seed)
                    stacked = build_stacked(p)
                    op = build_schur(stacked)
                    precond = NestedJacobiPreconditioner(op, 2, 2)
                    dense = condition_numbers(op, precond)
                    _, plain = cg_solve(op, stacked.offset, tol=1e-9)
                    _, pre = pcg_solve(op, precond, stacked.offset, tol=1e-9)
                    for estimate, exact in ((plain.kappa_estimate, dense.kappa_delta),
                                            (pre.kappa_estimate,
                                             dense.kappa_preconditioned)):
                        assert 0.98 * exact <= estimate <= exact * (1 + 1e-10), (
                            family, size, seed, estimate, exact)


class TestFailureModes:
    def test_breakdown_on_indefinite_operator(self):
        op = NegatedOperator(6)
        with pytest.raises(BreakdownError):
            cg_solve(op, np.ones(6), tol=1e-9)

    def test_breakdown_on_nan_curvature(self):
        with pytest.raises(BreakdownError):
            cg_solve(NaNOperator(6), np.ones(6), tol=1e-9, max_steps=50)

    def test_max_steps_exceeded_carries_payload(self, msd_setup):
        _, stacked, op, precond, _ = msd_setup
        with pytest.raises(MaxIterationsExceeded) as info:
            pcg_solve(op, precond, stacked.offset, tol=1e-9, max_steps=2)
        exc = info.value
        assert exc.iterations == 2
        assert exc.report is not None and not exc.report.converged
        assert exc.iterate is not None and exc.iterate.shape == (op.dim,)
        # applies before the first step and after each of the two steps
        assert_counts(exc.report, pcg_counts(2, 3, op.dim, op.matvec_flops,
                                             precond.apply_flops))

    def test_underflow_is_breakdown_not_convergence(self):
        # tol far below what the squared residual can hold: its dot product
        # underflows to zero while its infinity norm is still above tol
        spectrum = np.concatenate(([0.5], np.linspace(1.0, 100.0, 3998), [400.0]))
        with pytest.raises(BreakdownError, match="underflow"):
            cg_solve(DiagonalOperator(spectrum), np.ones(4000), tol=1e-300)

    def test_divergence_detected_early(self):
        # finite, but Q = 1e300 I leaves a numerically singular operator on
        # which the recurred residual blows up
        p = generate_msd_case(2, 2, 2, seed=0)
        for i in range(2):
            for j in range(2):
                p.sub(i, j).Q = [1e300 * np.eye(4)] * 3
        stacked = build_stacked(p)
        op = build_schur(stacked)
        with pytest.raises(DivergenceError) as info:
            cg_solve(op, stacked.offset, tol=1e-9)
        exc = info.value
        assert exc.iterations <= 10
        assert exc.report is not None and exc.report.steps == exc.iterations
        assert exc.iterate is not None
        # no preconditioner flops; the diverging step makes no direction update
        steps = exc.report.steps
        assert_counts(exc.report, pcg_counts(steps, steps, op.dim, op.matvec_flops, 0.0))

    def test_rejects_bad_inputs(self, msd_setup):
        _, stacked, op, _, _ = msd_setup
        with pytest.raises(DimensionMismatchError):
            cg_solve(op, np.zeros(op.dim + 1))
        with pytest.raises(ValueError):
            cg_solve(op, np.full(op.dim, np.nan))
        with pytest.raises(ValueError):
            cg_solve(op, stacked.offset, tol=0.0)

    @pytest.mark.parametrize("tol", [0, -1, float("nan"), float("inf")])
    def test_rejects_bad_tol(self, msd_setup, tol):
        _, stacked, op, precond, _ = msd_setup
        with pytest.raises(ValueError, match="tolerance"):
            pcg_solve(op, precond, stacked.offset, tol=tol, max_steps=1)
