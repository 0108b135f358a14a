"""The three gridlq benchmark workloads, the output check behind ``failed``,
and the measured and traced run loops.

Every workload is a closed loop with one caller: the next solve starts when
the previous one has been checked. Inputs come from the run seed alone, and
making them is never timed.
"""

from __future__ import annotations

import csv
import math
import os
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from gridlq import cli
from gridlq import (
    GridLQError,
    NestedJacobiPreconditioner,
    build_schur,
    build_splitting,
    build_stacked,
    dense_reference_solve,
    generate_irrigation_case,
    generate_msd_case,
    kkt_residual,
    pcg_solve,
    recover_solution,
    simulate_states,
    validate,
)

TOL = 1e-9
KKT_FACTOR = 10       # each KKT residual norm must be <= KKT_FACTOR * TOL
STATE_ATOL = 1e-8     # simulated states must reproduce the recovered ones
ORACLE_RTOL = 1e-6    # the rule `gridlq compare` applies to objectives
SWEEPS = 2            # L = S = 2, the CLI defaults

PLAIN = {
    "validate": validate,
    "build_stacked": build_stacked,
    "build_schur": build_schur,
    "build_splitting": build_splitting,
    "NestedJacobiPreconditioner": NestedJacobiPreconditioner,
    "pcg_solve": pcg_solve,
    "recover_solution": recover_solution,
    "kkt_residual": kkt_residual,
    "cli.main": cli.main,
}

CLI_TIMINGS = ("assembly_s", "factor_s", "solve_s")


@dataclass
class Sample:
    """One attempted solve: its timings, why it failed the check (empty when
    it passed) and the values a traced repeat must reproduce bit for bit."""

    tts: float | None = None
    solve_s: float | None = None
    setup_s: float | None = None
    steps: int | None = None
    reasons: list = field(default_factory=list)
    result: tuple = ()
    unreported_s: float = 0.0


def check_solution(problem, stacked, sol, converged, kkt=kkt_residual, tol=TOL):
    """Reasons a recovered trajectory fails the output check; empty if none.

    The solve must report convergence, its three KKT residual norms must be
    at most KKT_FACTOR * tol, and forward simulation of the recovered inputs
    from the problem data must reproduce the recovered states.
    """
    reasons = [] if converged else ["solver did not report convergence"]
    for label, norm in zip(("stationarity_x", "stationarity_u", "dynamics"),
                           kkt(stacked, sol)):
        if not norm <= KKT_FACTOR * tol:
            reasons.append(f"kkt {label} residual {norm:.3e}")
    gap = float(np.max(np.abs(simulate_states(problem, stacked.layout, sol.u_flat)
                              - sol.x_flat)))
    if not gap <= STATE_ATOL:
        reasons.append(f"simulated states differ by {gap:.3e}")
    return reasons


def check_record(record, code, oracle_objective, tol=TOL):
    """Reasons one CSV record of ``gridlq run`` fails the output check."""
    reasons = [] if code == 0 else [f"exit code {code}"]
    if record.get("converged") != "true":
        reasons.append("record does not report convergence")
    for key in ("kkt_stationarity_x", "kkt_stationarity_u", "kkt_dynamics"):
        norm = float(record.get(key) or "nan")
        if not norm <= KKT_FACTOR * tol:
            reasons.append(f"{key} {norm:.3e}")
    objective = float(record.get("objective") or "nan")
    scale = max(abs(objective), abs(oracle_objective), 1e-30)
    if not abs(objective - oracle_objective) <= ORACLE_RTOL * scale:
        reasons.append(f"objective {objective!r} != oracle {oracle_objective!r}")
    return reasons


def set_up(problem, api):
    """validate + build_stacked + build_schur + build_splitting + all pair
    factors, as `gridlq run` does them; returns (seconds, parts)."""
    start = perf_counter()
    msgs = api["validate"](problem)
    if msgs:
        raise ValueError("invalid problem: " + "; ".join(msgs))
    stacked = api["build_stacked"](problem)
    schur = api["build_schur"](stacked)
    splitting = api["build_splitting"](schur)
    precond = api["NestedJacobiPreconditioner"](
        schur, inner_sweeps=SWEEPS, outer_sweeps=SWEEPS, splitting=splitting)
    return perf_counter() - start, (stacked, schur, precond)


def solve_and_recover(stacked, schur, precond, api):
    """(solve seconds, recovery seconds, trajectory, report)."""
    start = perf_counter()
    lam, report = api["pcg_solve"](schur, precond, stacked.offset, tol=TOL)
    mid = perf_counter()
    sol = api["recover_solution"](stacked, lam)
    return mid - start, perf_counter() - mid, sol, report


# -- workloads ----------------------------------------------------------------


class MsdOneshot:
    """A fresh msd problem per solve; each pays set-up, solve and recovery."""

    name = "msd-oneshot"
    size = 12
    setup_repeats = 0
    shared_setup = False

    def __init__(self, seed, out_dir):
        self.seed = seed

    def inputs(self, k):
        return generate_msd_case(self.size, self.size, self.size, self.seed * 1000 + k)

    def step(self, problem, api, state):
        setup_s, (stacked, schur, precond) = set_up(problem, api)
        solve_s, recover_s, sol, report = solve_and_recover(stacked, schur, precond, api)
        return Sample(
            tts=setup_s + solve_s + recover_s, solve_s=solve_s, setup_s=setup_s,
            steps=report.steps,
            reasons=check_solution(problem, stacked, sol, report.converged,
                                   api["kkt_residual"]),
            result=(sol.multipliers.tobytes(), sol.objective_value))


class IrrigationMpc:
    """Receding horizon: one set-up, then a stream of right-hand sides from
    the initial states of irrigation seeds seed+1, seed+2, ..."""

    name = "irrigation-mpc"
    shape = (24, 4, 12)
    setup_repeats = 3
    shared_setup = True

    def __init__(self, seed, out_dir):
        self.seed = seed

    def setup(self, api):
        return set_up(generate_irrigation_case(*self.shape, seed=self.seed), api)

    def inputs(self, k):
        problem = generate_irrigation_case(*self.shape, seed=self.seed + 1 + k)
        return problem, build_stacked(problem)

    def step(self, inputs, api, state):
        problem, stacked = inputs
        _, schur, precond = state
        solve_s, recover_s, sol, report = solve_and_recover(stacked, schur, precond, api)
        return Sample(
            tts=solve_s + recover_s, solve_s=solve_s, steps=report.steps,
            reasons=check_solution(problem, stacked, sol, report.converged,
                                   api["kkt_residual"]),
            result=(sol.multipliers.tobytes(), sol.objective_value))


class CliDiagnostics:
    """``gridlq run --case msd --size 7`` in-process, dense diagnostics on.

    Set-up is timed on the same problem through the library calls the CLI
    makes, because the CLI's own report leaves ``validate`` out of it.
    """

    name = "cli-diagnostics"
    size = 7
    setup_repeats = 5
    shared_setup = False

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.problem = generate_msd_case(self.size, self.size, self.size, seed)
        self.path = os.path.join(out_dir, f"cli-{os.getpid()}.csv")
        self.oracle = None

    def setup(self, api):
        return set_up(self.problem, api)

    def inputs(self, k):
        if self.oracle is None:
            self.oracle = dense_reference_solve(self.problem).objective_value
        return ["run", "--case", "msd", "--size", str(self.size),
                "--seed", str(self.seed), "--output", self.path]

    def step(self, argv, api, state):
        start = perf_counter()
        code = api["cli.main"](argv)
        wall = perf_counter() - start
        try:
            with open(self.path, newline="") as fh:
                records = list(csv.DictReader(fh))
        finally:
            if os.path.exists(self.path):
                os.remove(self.path)
        if len(records) != 1:
            return Sample(reasons=[f"expected one CSV record, got {len(records)}"])
        record = records[0]
        timings = [float(record[k]) for k in CLI_TIMINGS]
        return Sample(
            tts=wall, solve_s=timings[2], steps=int(record["steps"]),
            reasons=check_record(record, code, self.oracle),
            result=tuple(v for k, v in record.items() if k not in CLI_TIMINGS),
            unreported_s=wall - sum(timings))


WORKLOADS = {w.name: w for w in (MsdOneshot, IrrigationMpc, CliDiagnostics)}


# -- run loops ------------------------------------------------------------------


def attempt(workload, inputs, api, state):
    """One solve; an error gridlq raises counts as a failed solve."""
    try:
        return workload.step(inputs, api, state)
    except (GridLQError, ValueError) as exc:
        return Sample(reasons=[f"{type(exc).__name__}: {exc}"])


def closed_loop(seconds, body):
    """Call ``body(k)`` for k = 0, 1, ... and stop before the call that the
    median call time so far says would end after ``seconds``; at least once."""
    start = perf_counter()
    walls = []
    while True:
        t = perf_counter()
        body(len(walls))
        walls.append(perf_counter() - t)
        if perf_counter() - start + statistics.median(walls) > seconds:
            return


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def matmul_mflops(block, batch=2048, calls=10, repeats=7):
    """Best Mflop/s of numpy's batched matmul on ``batch`` pairs of
    ``block`` x ``block`` matrices: the same-run ceiling the layers' rates
    are read against."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, batch, block, block))
    out = np.empty_like(a)
    best = math.inf
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(calls):
            np.matmul(a, b, out=out)
        best = min(best, perf_counter() - start)
    return 2.0 * block**3 * batch * calls / best / 1e6


def median(values):
    return statistics.median(values) if values else None


def measure(workload, seconds):
    """Untraced run; returns (samples, end-to-end metrics)."""
    setups, state = [], None
    for _ in range(workload.setup_repeats):
        seconds_taken, state = workload.setup(PLAIN)
        setups.append(seconds_taken)
    samples = []
    closed_loop(seconds, lambda k: samples.append(
        attempt(workload, workload.inputs(k), PLAIN, state)))
    done = [s for s in samples if s.tts is not None]
    passed = sum(1 for s in samples if not s.reasons)
    setups += [s.setup_s for s in done if s.setup_s is not None]
    tts = [s.tts for s in done]
    solves = [s.solve_s for s in done]
    metrics = {
        "time_to_solution_s": (median(tts), "s", tts),
        "setup_s": (median(setups), "s", setups),
        "solve_s": (median(solves), "s", solves),
        "solves_per_s": (passed / sum(tts) if tts else None, "1/s", None),
        "peak_rss_mb": (peak_rss_mb(), "MB", None),
    }
    return samples, metrics


def traced(workload, seconds, tracer):
    """Traced run: each input is solved untraced, then traced.

    Returns (samples, trace mismatches, tts pairs). Beyond each
    sample's own check, a traced solve must reproduce its untraced twin bit
    for bit, and the traced flops must match ``SolveReport.op_counts``.
    """
    api = tracer.api()
    api["cli.main"] = tracer.wrap("cli.main", cli.main)
    plain_state = traced_state = None
    if workload.shared_setup:
        _, plain_state = workload.setup(PLAIN)
        with tracer.patched():
            _, traced_state = workload.setup(api)
    samples, pairs, mismatches = [], [], []

    def body(k):
        inputs = workload.inputs(k)
        plain = attempt(workload, inputs, PLAIN, plain_state)
        tracer.solve = k
        with tracer.patched():
            trace = attempt(workload, inputs, api, traced_state)
        samples.extend((plain, trace))
        if plain.result != trace.result:
            mismatches.append(f"input {k}: traced result differs from untraced")
        if plain.tts is not None and trace.tts is not None:
            pairs.append((plain.tts, trace.tts))

    closed_loop(seconds, body)
    mismatches += tracer.flop_mismatches()
    return samples, mismatches, pairs


def layer_metrics(tracer, samples, pairs, peaks):
    """Per-layer metrics: solve layers per traced solve, set-up layers per
    traced set-up. ``s`` and ``self_s`` are both self time."""
    layers = tracer.layers()
    get = lambda name, key: layers.get(name, {}).get(key, 0)
    ratio = lambda a, b: a / b if b else 0.0
    solves, setups = get("pcg_solve", "calls"), get("factor", "calls")
    out = {}
    for key, name in (("kkt_assembly.schur_apply", "schur.apply"),
                      ("block_linalg.pair_solve", "pair.solve"),
                      ("kkt_assembly.inner_coupling", "inner.coupling"),
                      ("kkt_assembly.outer_coupling", "outer.coupling")):
        out[f"{key}.calls"] = (ratio(get(name, "calls"), solves), "count")
        out[f"{key}.self_s"] = (ratio(get(name, "self_s"), solves), "s")
        out[f"{key}.flops"] = (ratio(get(name, "flops"), solves), "flop")
        out[f"{key}.mflops"] = (ratio(get(name, "flops"), get(name, "self_s")) / 1e6,
                                "Mflop/s")
    out["nested_jacobi.precond_apply.calls"] = (
        ratio(get("precond.apply", "calls"), solves), "count")
    out["nested_jacobi.precond_apply.self_s"] = (
        ratio(get("precond.apply", "self_s"), solves), "s")
    steps = get("schur.apply", "calls")
    vector = sum(traced["vector"] for traced, _ in tracer.solve_flops())
    out["pcg.steps"] = (ratio(steps, solves), "count")
    out["pcg.step_s"] = (ratio(get("pcg_solve", "s"), steps), "s")
    out["pcg.self_s"] = (ratio(get("pcg_solve", "self_s"), solves), "s")
    out["pcg.vector_flops"] = (ratio(vector, solves), "flop")
    out["grid_problem.validate.calls"] = (ratio(get("validate", "calls"), setups), "count")
    out["grid_problem.validate.s"] = (ratio(get("validate", "self_s"), setups), "s")
    for name in ("build_stacked", "build_schur", "build_splitting"):
        out[f"kkt_assembly.{name}.s"] = (ratio(get(name, "self_s"), setups), "s")
    out["block_linalg.factor.s"] = (ratio(get("factor", "self_s"), setups), "s")
    out["block_linalg.factor.flops"] = (ratio(get("factor", "flops"), setups), "flop")
    out["recovery.recover.s"] = (ratio(get("recover_solution", "self_s"), solves), "s")
    out["recovery.kkt_residual.s"] = (ratio(get("kkt_residual", "self_s"), solves), "s")
    out["recovery.diagnostics.s"] = (
        ratio(get("condition_numbers", "s") + get("splitting_spectral_radii", "s"), solves),
        "s")
    traced_samples = samples[1::2]
    out["cli.unreported_s"] = (
        ratio(sum(s.unreported_s for s in traced_samples), len(traced_samples)), "s")
    out["numpy.peak_mflops.b4"] = (peaks[4], "Mflop/s")
    out["numpy.peak_mflops.b8"] = (peaks[8], "Mflop/s")
    plain = median([p for p, _ in pairs])
    out["trace.overhead_frac"] = (
        median([t for _, t in pairs]) / plain - 1.0 if plain else 0.0, "frac")
    return out
