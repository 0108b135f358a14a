import csv
import io
import json

import numpy as np

from gridlq import generate_msd_case, kkt_assembly, save_problem
from gridlq.grid_problem import problem_to_dict
from gridlq.cli import CSV_COLUMNS, main


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

        for corrupt in (missing_boundary, ragged_row, wrong_type, ragged_matrix):
            doc = problem_to_dict(generate_msd_case(2, 2, 2, seed=0))
            corrupt(doc)
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc))
            code, _, err = run_cli(capsys, "run", "--problem-file", str(path))
            assert code == 2, corrupt.__name__
            assert err.startswith("invalid problem:"), corrupt.__name__

    def test_validates_once_per_solve(self, capsys, monkeypatch):
        calls = []
        validate = kkt_assembly.validate
        monkeypatch.setattr(kkt_assembly, "validate", lambda p: calls.append(p) or validate(p))
        code, _, _ = run_cli(capsys, "run", "--case", "case1", "--sweep", "2,3")
        assert code == 0
        assert len(calls) == 2

    def test_threads_must_be_positive(self, capsys):
        code, _, err = run_cli(capsys, "run", "--case", "case1", "--size", "2",
                               "--threads", "0")
        assert code == 2
        assert "--threads" in err

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

    def test_pcgm_vs_nbjm_steps(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--case", "case2", "--size", "3",
            "--solver-a", "pcgm", "--solver-b", "nbjm",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("steps")]
        parts = lines[0].split()
        assert int(parts[1]) < int(parts[2])
