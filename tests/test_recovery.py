import ast
import math
from pathlib import Path

import numpy as np
import pytest

from gridlq import oracle
from gridlq import (
    DimensionGuardError,
    NestedJacobiPreconditioner,
    build_schur,
    build_splitting,
    build_stacked,
    condition_numbers,
    dense_reference_solve,
    generate_irrigation_case,
    generate_msd_case,
    kkt_residual,
    pcg_solve,
    recover_solution,
    simulate_states,
    splitting_spectral_radii,
)
from gridlq.stencil import Padding

from conftest import make_boundary_problem, make_uncoupled_problem


@pytest.fixture(scope="module")
def msd_solved():
    problem = generate_msd_case(2, 2, 2, seed=3)
    stacked = build_stacked(problem)
    op = build_schur(stacked)
    precond = NestedJacobiPreconditioner(op, 2, 2)
    lam, _ = pcg_solve(op, precond, stacked.offset, tol=1e-9)
    return problem, stacked, op, precond, lam


class TestRecoverSolution:
    def test_zero_data_zero_trajectory(self):
        p = make_uncoupled_problem(K=2, N=2, T=2, init_scale=0.0)
        stacked = build_stacked(p)
        sol = recover_solution(stacked, np.zeros(stacked.layout.n_total))
        assert not sol.x_flat.any()
        assert not sol.u_flat.any()
        assert sol.objective_value == 0.0

    def test_objective_matches_dense_oracle(self, msd_solved):
        problem, stacked, _, _, lam = msd_solved
        sol = recover_solution(stacked, lam)
        ref = dense_reference_solve(problem)
        assert abs(sol.objective_value - ref.objective_value) < 1e-8 * abs(
            ref.objective_value
        )

    def test_initial_states_pinned(self, msd_solved):
        problem, stacked, _, _, lam = msd_solved
        sol = recover_solution(stacked, lam)
        for i in range(problem.K):
            for j in range(problem.N):
                got = sol.state(i, j)[0]
                want = np.asarray(problem.boundary.init[i][j])
                assert np.max(np.abs(got - want)) < 1e-8

    def test_accessors_match_flat_layout(self, msd_solved):
        problem, stacked, _, _, lam = msd_solved
        sol = recover_solution(stacked, lam)
        lay = stacked.layout
        assert sol.state(1, 0).shape == (problem.T + 1, 4)
        assert sol.input(1, 0).shape == (problem.T, 2)
        assert np.array_equal(sol.state(1, 0)[2], sol.x_flat[lay.x_slice(1, 0, 2)])


class TestKktResidual:
    def test_oracle_solution_stationary(self, msd_solved):
        problem, stacked, _, _, _ = msd_solved
        ref = dense_reference_solve(problem)
        scale = 1.0 + np.max(np.abs(stacked.offset))
        assert max(kkt_residual(stacked, ref)) < 1e-9 * scale

    def test_perturbed_input_breaks_stationarity(self, msd_solved):
        problem, stacked, _, _, lam = msd_solved
        sol = recover_solution(stacked, lam)
        sol.u_flat[3] += 1.0
        _, r_u, _ = kkt_residual(stacked, sol)
        # R = 2 I for this family, so one unit of input moves the
        # stationarity residual by at least the diagonal weight
        assert r_u >= 2.0 - 1e-9

    def test_zero_problem_zero_residuals(self):
        p = make_uncoupled_problem(K=1, N=1, T=2, init_scale=0.0)
        stacked = build_stacked(p)
        sol = recover_solution(stacked, np.zeros(stacked.layout.n_total))
        assert kkt_residual(stacked, sol) == (0.0, 0.0, 0.0)

    def test_recovery_pads_each_operand_once(self, monkeypatch):
        # both work on the padded stacks: recovery pads the multipliers
        # once, the residuals pad the multipliers, x and u once each
        stacked = build_stacked(generate_msd_case(3, 2, 2, seed=1))
        lay, pad, shapes = stacked.layout, Padding.pad, []
        monkeypatch.setattr(Padding, "pad", lambda self, x: shapes.append(np.shape(x))
                            or pad(self, x))
        sol = recover_solution(stacked, np.ones(lay.n_total))
        assert shapes == [(lay.n_total,)]
        shapes.clear()
        kkt_residual(stacked, sol)
        assert shapes == [(lay.n_total,), (lay.n_total,), (lay.m_total,)]


class TestSimulateStates:
    def test_recovered_inputs_reproduce_states(self, msd_solved):
        problem, stacked, _, _, lam = msd_solved
        sol = recover_solution(stacked, lam)
        sim = simulate_states(problem, stacked.layout, sol.u_flat)
        scale = max(1.0, np.max(np.abs(sol.x_flat)))
        assert np.max(np.abs(sim - sol.x_flat)) < 1e-6 * scale

    def test_boundary_problem_consistency(self):
        p = make_boundary_problem()
        stacked = build_stacked(p)
        ref = dense_reference_solve(p)
        sim = simulate_states(p, stacked.layout, ref.u_flat)
        scale = max(1.0, np.max(np.abs(ref.x_flat)))
        assert np.max(np.abs(sim - ref.x_flat)) < 1e-8 * scale


class TestDenseReferenceSolve:
    def test_identity_operator_returns_offset(self):
        p = make_uncoupled_problem(K=1, N=1, T=2, n=2, m=1, a_scale=0.0,
                                   init_scale=0.5)
        stacked = build_stacked(p)
        ref = dense_reference_solve(p)
        assert np.allclose(ref.multipliers, stacked.offset, atol=1e-13)

    def test_agrees_with_pcg_on_irrigation(self):
        p = generate_irrigation_case(3, 3, 3)
        stacked = build_stacked(p)
        op = build_schur(stacked)
        precond = NestedJacobiPreconditioner(op, 2, 2)
        lam, _ = pcg_solve(op, precond, stacked.offset, tol=1e-9)
        ref = dense_reference_solve(p)
        scale = np.max(np.abs(ref.multipliers))
        assert np.max(np.abs(lam - ref.multipliers)) < 1e-6 * scale

    def test_dimension_guard(self):
        p = generate_msd_case(2, 2, 2, seed=0)
        with pytest.raises(DimensionGuardError):
            dense_reference_solve(p, max_dim=10)


class TestConditionNumbers:
    def test_degenerate_preconditioner_is_exact(self):
        p = make_uncoupled_problem(K=2, N=1, T=2, n=2, m=1, a_scale=0.0,
                                   q_scale=3.0)
        op = build_schur(build_stacked(p))
        precond = NestedJacobiPreconditioner(op, 2, 2)
        rep = condition_numbers(op, precond)
        assert abs(rep.kappa_preconditioned - 1.0) < 1e-8
        assert abs(rep.kappa_delta - 1.0) < 1e-12  # scaled identity

    def test_preconditioning_improves_msd(self):
        p = generate_msd_case(4, 4, 4, seed=0)
        op = build_schur(build_stacked(p))
        precond = NestedJacobiPreconditioner(op, 2, 2)
        rep = condition_numbers(op, precond, max_dim=2000)
        assert rep.kappa_delta > 1
        assert rep.kappa_preconditioned < rep.kappa_delta
        assert rep.lambda_min_delta > 0
        assert rep.lambda_min_preconditioned > 0

    def test_guard(self):
        p = generate_msd_case(2, 2, 2, seed=0)
        op = build_schur(build_stacked(p))
        precond = NestedJacobiPreconditioner(op, 2, 2)
        with pytest.raises(DimensionGuardError):
            condition_numbers(op, precond, max_dim=12)


class TestOracleBoundary:
    def test_oracle_imports_only_problem_data(self):
        # the checks stay independent of what they check: no solver module
        # (stencil, block_linalg, kkt_assembly, nested_jacobi, pcg, recovery)
        imported = set()
        for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                if node.module:
                    imported.add(base)
                else:
                    imported.update(base + alias.name for alias in node.names)
        assert imported <= {"__future__", "dataclasses", "numpy", ".errors",
                            ".grid_problem"}, imported


class TestSpectralRadius:
    def test_outer_iteration_radius_in_unit_interval(self):
        p = generate_msd_case(3, 3, 3, seed=1)
        op = build_schur(build_stacked(p))
        split = build_splitting(op)
        rho_inner, rho_outer = splitting_spectral_radii(op, split)
        assert 0 < rho_outer < 1
        assert 0 < rho_inner < 1
        with pytest.raises(DimensionGuardError):
            splitting_spectral_radii(op, split, max_dim=op.dim - 1)

    def test_no_full_dimension_factor_or_eigenproblem(self, monkeypatch):
        # T + 1 = 6 stages: per-stage problems and one half-size eigenproblem
        p = generate_msd_case(5, 5, 5, seed=1)
        op = build_schur(build_stacked(p))
        split = build_splitting(op)
        dims = {"eigvalsh": [], "cholesky": [], "inv": []}
        for name in dims:
            def counted(a, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                dims[_name].append(max(np.shape(a)))
                return _fn(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        splitting_spectral_radii(op, split)
        lay = op.layout
        assert all(dims.values())
        assert max(max(d) for d in dims.values()) < op.dim
        assert max(dims["eigvalsh"]) <= math.ceil((lay.T + 1) / 2) * lay.nhat
