import csv
import io
import json

import numpy as np
import pytest

from gridlq import (
    DivergenceError,
    MaxIterationsExceeded,
    NestedJacobiPreconditioner,
    build_schur,
    build_splitting,
    build_stacked,
    cg_solve,
    cli,
    dense_reference_solve,
    generate_msd_case,
    grid_problem,
    kkt_assembly,
    pcg,
    pcg_solve,
    save_problem,
    validate,
)
from gridlq.grid_problem import problem_to_dict
from gridlq.cli import CSV_COLUMNS, main

from conftest import make_padded_tiny_q_problem


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


class TestRun:
    def test_single_size_pcgm(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--case", "case1", "--size", "3", "--solver", "pcgm",
            "--L", "2", "--S", "2", "--tol", "1e-9",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        rec = rows[0]
        assert rec["converged"] == "true"
        assert rec["K"] == "3" and rec["N"] == "3" and rec["T"] == "3"
        assert float(rec["final_residual"]) < 1e-9
        assert float(rec["kkt_dynamics"]) < 1e-6
        assert list(rec) == CSV_COLUMNS

    def test_sweep_rows_grow(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--case", "case2", "--sweep", "2,3,4", "--solver", "nbjm",
        )
        assert code == 0
        rows = parse_csv(out)
        unknowns = [int(r["unknowns"]) for r in rows]
        assert unknowns == sorted(unknowns) and len(set(unknowns)) == 3
        assert all(r["converged"] == "true" for r in rows)

    def test_case_aliases(self, capsys):
        code_a, out_a, _ = run_cli(
            capsys, "run", "--case", "msd", "--size", "2", "--solver", "pcgm",
            "--omit-timings",
        )
        code_b, out_b, _ = run_cli(
            capsys, "run", "--case", "case1", "--size", "2", "--solver", "pcgm",
            "--omit-timings",
        )
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_dense_guard_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--case", "case1", "--size", "12", "--solver", "dense",
        )
        assert code == 4
        assert "guard" in err

    def test_nonconvergence_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--case", "case1", "--size", "3", "--solver", "pcgm",
            "--max-steps", "2",
        )
        assert code == 3
        rows = parse_csv(out)
        assert rows[0]["converged"] == "false"
        assert rows[0]["steps"] == "2"

    def test_validation_exit_code(self, capsys, tmp_path):
        p = generate_msd_case(2, 2, 2, seed=0)
        p.sub(0, 0).Q[0] = -np.eye(4)
        path = tmp_path / "bad.json"
        save_problem(p, path)
        code, _, err = run_cli(
            capsys, "run", "--problem-file", str(path), "--solver", "pcgm",
        )
        assert code == 2
        assert "positive definite" in err

    def test_non_finite_problem_file_exit_code(self, capsys, tmp_path):
        p = generate_msd_case(2, 2, 2, seed=0)
        p.sub(1, 0).A[1] = p.sub(1, 0).A[1].copy()
        p.sub(1, 0).A[1][0, 0] = np.nan
        path = tmp_path / "nan.json"
        save_problem(p, path)
        code, _, err = run_cli(capsys, "run", "--problem-file", str(path))
        assert code == 2
        assert "(1, 0)" in err and "A[1]" in err and "non-finite" in err

    def test_malformed_problem_file_exit_code(self, capsys, tmp_path):
        def missing_boundary(doc):
            del doc["boundary"]

        def ragged_row(doc):
            doc["subsystems"][1].pop()

        def wrong_type(doc):
            doc["subsystems"][0][0]["n"] = "four"

        def ragged_matrix(doc):
            doc["subsystems"][0][1]["A"][0][2] = [1.0]

        def north_coupled(doc):
            # (0, 1) looks off-grid to the north, onto trajectory north[1]
            doc["subsystems"][0][1]["north"] = [np.eye(4).tolist()] * 2
            doc["boundary"]["north"] = [[[0.0] * 4] * 2] * 2

        def short_boundary(doc):
            north_coupled(doc)
            doc["boundary"]["north"].pop()

        def empty_trajectory(doc):
            north_coupled(doc)
            doc["boundary"]["north"][1] = []

        def null_matrices(doc):
            doc["subsystems"][0][0]["A"] = None

        for corrupt in (missing_boundary, ragged_row, wrong_type, ragged_matrix,
                        short_boundary, empty_trajectory, null_matrices):
            doc = problem_to_dict(generate_msd_case(2, 2, 2, seed=0))
            corrupt(doc)
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc))
            code, _, err = run_cli(capsys, "run", "--problem-file", str(path))
            assert code == 2, corrupt.__name__
            assert err.startswith("invalid problem:"), corrupt.__name__
            assert "Traceback" not in err, corrupt.__name__

    def test_undecodable_problem_file_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bytes.json"
        path.write_bytes(b"\xff\xfe\x00garbage")
        code, _, err = run_cli(capsys, "run", "--problem-file", str(path))
        assert code == 2
        assert err.startswith("invalid problem:") and err.count("\n") == 1

    def test_unwritable_output_checked_before_solve(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "build_stacked", lambda p: calls.append(p))
        out = tmp_path / "missing" / "x.csv"
        code, _, err = run_cli(capsys, "run", "--size", "2", "--output", str(out))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert calls == []

    def test_validates_once_per_solve(self, capsys, monkeypatch):
        # validate and build_stacked both run the one checking pass
        calls = []
        padded = grid_problem._padded
        counted = lambda p, **kw: calls.append(p) or padded(p, **kw)  # noqa: E731
        monkeypatch.setattr(grid_problem, "_padded", counted)
        monkeypatch.setattr(kkt_assembly, "_padded", counted)
        code, _, _ = run_cli(capsys, "run", "--case", "case1", "--sweep", "2,3")
        assert code == 0
        assert len(calls) == 2

    def test_lanczos_extremes_once_per_report(self, capsys, monkeypatch):
        # the cg run, the pcgm solve (both its kappa and the outer radius)
        # and the inner-radius run: three reports
        calls = []
        extremes = pcg.tridiagonal_extremes
        monkeypatch.setattr(pcg, "tridiagonal_extremes",
                            lambda d, o: calls.append(len(d)) or extremes(d, o))
        code, _, err = run_cli(capsys, "run", "--case", "msd", "--size", "3")
        assert code == 0, err
        assert len(calls) == 3

    def test_threads_must_be_positive(self, capsys):
        code, _, err = run_cli(capsys, "run", "--case", "case1", "--size", "2",
                               "--threads", "0")
        assert code == 2
        assert "--threads" in err

    @pytest.mark.parametrize("spec", [
        ["--L", "0"], ["--S", "0"], ["--L", "1"], ["--tol", "0"],
        ["--tol", "nan"], ["--tol", "inf"], ["--max-steps", "0"],
        ["--max-outer", "0", "--solver", "nbjm"],
        ["--L", "1", "--solver", "nbjm", "--S", "0"], ["--seed", "-1"],
    ])
    def test_bad_solver_spec_exit_code(self, capsys, spec):
        code, out, err = run_cli(capsys, "run", "--case", "case1", "--size", "2", *spec)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --") and err.count("\n") == 1

    def test_odd_budget_compare_rejected_for_pcgm(self, capsys):
        code, _, err = run_cli(capsys, "compare", "--case", "case1", "--size", "2",
                               "--solver-a", "nbjm", "--solver-b", "pcgm", "--L", "1")
        assert code == 2
        assert "even" in err

    def test_odd_budget_nbjm_reports_radii(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--case", "irrigation", "--size", "2",
                               "--solver", "nbjm", "--L", "1")
        assert code == 0
        rec = parse_csv(out)[0]
        assert rec["converged"] == "true"
        # the odd-budget map is not SPD: no kappa columns, and no outer
        # radius, which comes from the preconditioned kappa's run
        assert rec["kappa_delta"] == rec["kappa_preconditioned"] == ""
        assert rec["rho_outer_split"] == ""
        assert 0 <= float(rec["rho_inner_split"]) < 1

    @pytest.mark.parametrize("solver", ["pcgm", "cg"])
    def test_kappa_estimates_above_dense_cap(self, capsys, monkeypatch, solver):
        # 144 unknowns: the Lanczos kappas and radii need no dense cap, and
        # above it the solve path makes no dense factorization, inverse,
        # solve or eigenproblem
        def refuse(*args, **kwargs):
            raise AssertionError("no np.linalg call above the dense cap")

        with monkeypatch.context() as patch:
            for name in ("eigvalsh", "eigh", "eig", "eigvals", "cholesky", "inv",
                         "solve", "svd"):
                patch.setattr(np.linalg, name, refuse)
            code, out, err = run_cli(capsys, "run", "--case", "msd", "--size", "3",
                                     "--solver", solver, "--max-dense-dim", "50")
        assert code == 0, err
        rec = parse_csv(out)[0]
        stacked = build_stacked(generate_msd_case(3, 3, 3, 0))
        schur = build_schur(stacked)
        precond = NestedJacobiPreconditioner(schur, 2, 2)
        _, plain = cg_solve(schur, stacked.offset, tol=1e-9)
        _, pre = pcg_solve(schur, precond, stacked.offset, tol=1e-9)
        assert rec["kappa_delta"] == repr(plain.kappa_estimate)
        assert rec["kappa_preconditioned"] == repr(pre.kappa_estimate)
        assert 1 < pre.kappa_estimate < plain.kappa_estimate
        inner, outer = precond.splitting_radii(pre)
        assert (rec["rho_inner_split"], rec["rho_outer_split"]) == (repr(inner), repr(outer))
        assert 0 < inner < outer < 1

    def test_default_run_makes_no_dense_conditioning(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the default run needs no dense conditioning")

        monkeypatch.setattr(cli, "condition_numbers", refuse)
        monkeypatch.setattr(NestedJacobiPreconditioner, "materialize", refuse)
        code, out, err = run_cli(capsys, "run", "--case", "msd", "--size", "3")
        assert code == 0, err
        rec = parse_csv(out)[0]
        assert float(rec["kappa_delta"]) > float(rec["kappa_preconditioned"]) > 1

    def test_budget_stopped_pcgm_reports_kappas(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--case", "msd", "--size", "3",
                               "--max-steps", "2", "--max-dense-dim", "50")
        assert code == 3
        rec = parse_csv(out)[0]
        assert rec["converged"] == "false"
        assert float(rec["kappa_delta"]) >= 1 and float(rec["kappa_preconditioned"]) >= 1

    def test_nbjm_kappas_need_even_budget(self, capsys):
        kappas = {}
        for budget in ("2", "1"):
            code, out, err = run_cli(capsys, "run", "--case", "irrigation", "--size", "3",
                                     "--solver", "nbjm", "--L", budget,
                                     "--max-dense-dim", "50")
            assert code == 0, err
            rec = parse_csv(out)[0]
            kappas[budget] = (rec["kappa_delta"], rec["kappa_preconditioned"])
        assert all(float(k) > 1 for k in kappas["2"])
        assert kappas["1"] == ("", "")

    def test_diverged_nbjm_reports_kappas(self, capsys, monkeypatch):
        # the extra CG runs estimate the spectrum whatever nbjm did
        def diverge(self, rhs, tol=1e-9, max_outer=50000):
            raise DivergenceError("nested Jacobi diverged", iterate=np.zeros_like(rhs),
                                  iterations=3)

        monkeypatch.setattr(NestedJacobiPreconditioner, "solve", diverge)
        code, out, err = run_cli(capsys, "run", "--case", "msd", "--size", "3",
                                 "--solver", "nbjm", "--max-dense-dim", "50")
        assert code == 3 and "diverged" in err
        rec = parse_csv(out)[0]
        assert rec["converged"] == "false"
        assert float(rec["kappa_delta"]) > float(rec["kappa_preconditioned"]) > 1

    @pytest.mark.parametrize("solver", ["pcgm", "cg", "dense", "nbjm"])
    def test_zero_right_hand_side_leaves_kappas_blank(self, capsys, tmp_path, solver):
        # zero initial states and no boundary signal: the multipliers are
        # zero, and a CG run on a zero right-hand side has no Krylov space
        p = generate_msd_case(2, 2, 2, seed=0)
        p.boundary.init = [[np.zeros(4) for _ in range(2)] for _ in range(2)]
        path = tmp_path / "zero.json"
        save_problem(p, path)
        code, out, err = run_cli(capsys, "run", "--problem-file", str(path),
                                 "--solver", solver)
        assert code == 0, err
        rec = parse_csv(out)[0]
        assert rec["converged"] == "true" and float(rec["objective"]) == 0.0
        assert float(rec["final_residual"]) == 0.0
        # the outer radius comes from the preconditioned kappa's run
        assert rec["kappa_delta"] == rec["kappa_preconditioned"] == rec["rho_outer_split"] == ""
        assert 0 <= float(rec["rho_inner_split"]) < 1

    @pytest.mark.parametrize("solver", ["cg", "dense"])
    def test_unused_preconditioner_not_timed(self, capsys, solver):
        # cg and dense build the preconditioner for the diagnostics only
        code, out, err = run_cli(capsys, "run", "--case", "msd", "--size", "2",
                                 "--solver", solver)
        assert code == 0, err
        rec = parse_csv(out)[0]
        assert rec["kappa_preconditioned"] != "" and rec["rho_outer_split"] != ""
        assert float(rec["factor_s"]) == 0.0

    def test_divergence_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "run", "--case", "msd", "--size", "3",
                                 "--solver", "nbjm", "--L", "1")
        assert code == 3
        assert "diverged" in err and err.count("\n") == 1
        rec = parse_csv(out)[0]
        assert rec["converged"] == "false" and int(rec["steps"]) <= 300

    @pytest.mark.parametrize("solver", ["pcgm", "cg", "nbjm", "dense"])
    def test_numerically_indefinite_problem_exit_code(self, capsys, tmp_path, solver):
        # passes validate, but Q = 1e300 I leaves pair-diagonal pivots
        # of 1e-300 that the factorization rejects
        p = generate_msd_case(2, 2, 2, seed=0)
        for i in range(2):
            for j in range(2):
                p.sub(i, j).Q = [1e300 * np.eye(4)] * 3
        path = tmp_path / "huge_q.json"
        save_problem(p, path)
        code, _, err = run_cli(capsys, "run", "--problem-file", str(path),
                               "--solver", solver)
        assert code == 2
        assert err.startswith("invalid problem:") and err.count("\n") == 1

    def test_padded_weights_not_positive_definite_exit_code(self, capsys, tmp_path):
        # validate factors Q unit-padded, as build_stacked does, so it
        # rejects the 1e-20 weight that passes unpadded
        p = make_padded_tiny_q_problem()
        msgs = validate(p)
        assert msgs and all("(0, 0)" in m and "Q[" in m for m in msgs)
        path = tmp_path / "tiny_q.json"
        save_problem(p, path)
        code, _, err = run_cli(capsys, "run", "--problem-file", str(path))
        assert code == 2
        assert err.startswith("invalid problem:") and err.count("\n") == 1
        assert "(0, 0)" in err

    def test_problem_file_round_trip(self, capsys, tmp_path):
        p = generate_msd_case(2, 2, 2, seed=1)
        path = tmp_path / "p.json"
        save_problem(p, path)
        code, out, _ = run_cli(
            capsys, "run", "--problem-file", str(path), "--solver", "pcgm",
        )
        assert code == 0
        assert parse_csv(out)[0]["case"] == "file"

    def test_json_format_and_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "run", "--case", "case2", "--size", "2", "--solver", "pcgm",
            "--format", "json", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        data = json.loads(target.read_text())
        assert data["records"][0]["converged"] is True
        assert np.isfinite(data["records"][0]["kappa_delta"])
        assert list(data["records"][0]) == CSV_COLUMNS

    @pytest.mark.parametrize("sizes", [
        ["--size", "5"], ["--sweep", "2,3"], ["--K", "2", "--N", "2", "--T", "2"],
    ])
    def test_problem_file_excludes_size_flags(self, capsys, tmp_path, monkeypatch, sizes):
        path = tmp_path / "p.json"
        save_problem(generate_msd_case(2, 2, 2, seed=0), path)
        calls = []
        monkeypatch.setattr(cli, "load_problem", lambda f: calls.append(f))
        code, out, err = run_cli(capsys, "run", "--problem-file", str(path), *sizes)
        assert code == 2 and out == "" and calls == []
        assert err.startswith("error: --problem-file") and err.count("\n") == 1
        assert sizes[0] in err

    @pytest.mark.parametrize("sizes", [
        ["--size", "0"], ["--sweep", "0"], ["--K", "2", "--N", "2", "--T", "0"],
    ])
    def test_zero_size_reaches_validation(self, capsys, sizes):
        code, _, err = run_cli(capsys, "run", "--case", "msd", *sizes)
        assert code == 2 and err.count("\n") == 1
        assert "grid dimensions must be positive" in err

    @pytest.mark.parametrize("solver", ["pcgm", "cg", "nbjm", "dense"])
    def test_record_rules_per_solver(self, capsys, solver):
        # pcgm and cg report their CG run; nbjm and dense the true residual
        problem = generate_msd_case(3, 3, 3, 0)
        stacked = build_stacked(problem)
        schur = build_schur(stacked)
        precond = NestedJacobiPreconditioner(schur, 2, 2)

        def true_residual(lam):
            return float(np.max(np.abs(schur.apply(lam) - stacked.offset)))

        def expected(budget):
            if solver == "dense":
                lam = dense_reference_solve(problem).multipliers
                return 1, True, true_residual(lam)
            try:
                if solver == "nbjm":
                    lam, outers = precond.solve(stacked.offset, tol=1e-9,
                                                max_outer=budget or 50000)
                    return outers, true_residual(lam) < 1e-9, true_residual(lam)
                if solver == "pcgm":
                    _, report = pcg_solve(schur, precond, stacked.offset, tol=1e-9,
                                          max_steps=budget)
                else:
                    _, report = cg_solve(schur, stacked.offset, tol=1e-9, max_steps=budget)
            except MaxIterationsExceeded as exc:
                residual = (exc.report.final_residual if exc.report is not None
                            else true_residual(exc.iterate))
                return exc.iterations, False, residual
            return report.steps, report.converged, report.final_residual

        budgets = [None] if solver == "dense" else [None, 2]
        flag = "--max-outer" if solver == "nbjm" else "--max-steps"
        for budget in budgets:
            extra = [] if budget is None else [flag, str(budget)]
            code, out, err = run_cli(capsys, "run", "--case", "msd", "--size", "3",
                                     "--solver", solver, *extra)
            assert code == (0 if budget is None else 3), err
            rec = parse_csv(out)[0]
            steps, converged, residual = expected(budget)
            assert rec["steps"] == str(steps)
            assert rec["converged"] == ("true" if converged else "false")
            assert rec["final_residual"] == repr(residual)

    def test_missing_size_is_invalid(self, capsys):
        code, _, err = run_cli(capsys, "run", "--case", "case1")
        assert code == 2
        assert "size" in err

    def test_explicit_dims(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--case", "case1", "--K", "2", "--N", "3", "--T", "2",
            "--solver", "pcgm",
        )
        assert code == 0
        rec = parse_csv(out)[0]
        assert (rec["K"], rec["N"], rec["T"]) == ("2", "3", "2")


class TestDeterminism:
    def test_repeat_runs_identical(self, tmp_path, capsys):
        outs = []
        for name in ("a.csv", "b.csv"):
            target = tmp_path / name
            code, _, _ = run_cli(
                capsys, "run", "--case", "case1", "--sweep", "2,3", "--solver",
                "pcgm", "--omit-timings", "--output", str(target),
            )
            assert code == 0
            outs.append(target.read_bytes())
        assert outs[0] == outs[1]

    def test_threaded_run_identical(self, tmp_path, capsys):
        outs = []
        for name, threads in (("one.csv", "1"), ("four.csv", "4")):
            target = tmp_path / name
            code, _, _ = run_cli(
                capsys, "run", "--case", "case2", "--sweep", "2,3", "--solver",
                "pcgm", "--omit-timings", "--threads", threads,
                "--output", str(target),
            )
            assert code == 0
            outs.append(target.read_bytes())
        assert outs[0] == outs[1]


class TestCompare:
    def test_pcgm_vs_dense_objectives_match(self, capsys):
        code, out, err = run_cli(
            capsys, "compare", "--case", "case1", "--size", "3",
            "--solver-a", "pcgm", "--solver-b", "dense",
        )
        assert code == 0, err
        assert "objective" in out

    def test_identical_specs_zero_deltas(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--case", "case2", "--size", "2",
            "--solver-a", "pcgm", "--solver-b", "pcgm",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("steps")]
        parts = lines[0].split()
        assert parts[1] == parts[2]

    def test_skips_unreported_diagnostics(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("compare prints no diagnostic")

        # pcgm against dense makes no plain CG run unless for a kappa estimate
        for name in ("condition_numbers", "splitting_spectral_radii", "cg_solve"):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.setattr(NestedJacobiPreconditioner, "splitting_radii", refuse)
        code, _, err = run_cli(capsys, "compare", "--case", "case1", "--size", "3")
        assert code == 0, err

        # run fills the radii matrix-free, with no dense diagnostic either
        monkeypatch.undo()
        for name in ("condition_numbers", "splitting_spectral_radii"):
            monkeypatch.setattr(cli, name, refuse)
        code, out, err = run_cli(capsys, "run", "--case", "case1", "--size", "3")
        assert code == 0, err
        rec = parse_csv(out)[0]
        assert rec["rho_inner_split"] != "" and rec["rho_outer_split"] != ""

    def test_pcgm_vs_nbjm_steps(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--case", "case2", "--size", "3",
            "--solver-a", "pcgm", "--solver-b", "nbjm",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("steps")]
        parts = lines[0].split()
        assert int(parts[1]) < int(parts[2])
