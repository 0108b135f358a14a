"""Tests of the benchmark's own checks, on problems small enough to solve in
well under a second.

    python3 -m pytest -q perfbench
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
from gridlq import dense_reference_solve, generate_msd_case, recover_solution
from spans import Tracer

HERE = Path(__file__).resolve().parent


def solve(problem, api):
    _, (stacked, schur, precond) = bench.set_up(problem, api)
    _, _, sol, report = bench.solve_and_recover(stacked, schur, precond, api)
    return stacked, sol, report


@pytest.fixture(scope="module")
def problem():
    return generate_msd_case(3, 4, 3, seed=5)


def test_converged_solve_passes_the_check(problem):
    stacked, sol, report = solve(problem, bench.PLAIN)
    assert bench.check_solution(problem, stacked, sol, report.converged) == []


def test_perturbed_multipliers_count_as_a_failure(problem):
    stacked, sol, report = solve(problem, bench.PLAIN)
    lam = sol.multipliers.copy()
    lam[len(lam) // 2] += 1e-6
    reasons = bench.check_solution(problem, stacked, recover_solution(stacked, lam),
                                   report.converged)
    assert any("dynamics" in r for r in reasons)
    assert any("simulated states" in r for r in reasons)


def test_cli_record_off_the_oracle_counts_as_a_failure(problem):
    oracle = dense_reference_solve(problem).objective_value
    record = {"converged": "true", "kkt_stationarity_x": "0.0",
              "kkt_stationarity_u": "0.0", "kkt_dynamics": "1e-10",
              "objective": repr(oracle)}
    assert bench.check_record(record, 0, oracle) == []
    record["objective"] = repr(oracle * (1 + 1e-5))
    assert bench.check_record(record, 0, oracle) != []
    assert bench.check_record({**record, "objective": repr(oracle)}, 3, oracle) != []


def test_traced_solve_is_bitwise_equal_and_its_flops_add_up(problem):
    _, plain, _ = solve(problem, bench.PLAIN)
    tracer = Tracer()
    with tracer.patched():
        _, traced, report = solve(problem, tracer.api())
    assert traced.multipliers.tobytes() == plain.multipliers.tobytes()
    assert traced.objective_value == plain.objective_value
    assert tracer.flop_mismatches() == []
    layers = tracer.layers()
    assert layers["schur.apply"]["calls"] == report.steps
    assert layers["validate"]["calls"] == 2


def test_a_missed_call_shows_in_the_flop_check(problem):
    tracer = Tracer()
    solve(problem, tracer.api())
    pair_solves = [s for s in tracer.spans if s[0] == "pair.solve"]
    pair_solves[0][5] = 0
    assert any("preconditioner_apply" in m for m in tracer.flop_mismatches())


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "msd-oneshot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert '"correct"' not in result.stdout
