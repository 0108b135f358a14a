"""Benchmark command line: generate or load a grid problem, solve it with a
chosen method, and emit machine-readable reports.

A `run` record's `final_residual` is the residual the CG recurrence last
computed for pcgm and cg, also on a budget stop or divergence, and the true
residual max|Delta lam - rhs| for nbjm and dense. `converged` is true
exactly when the run exits 0.

`run` also reports two condition numbers at every size, of the reduced
operator and of the preconditioned one: Lanczos estimates, hence lower
bounds, from the step coefficients of CG runs on the multiplier system.
The pcgm and cg solves each give their own; every other run is made once,
outside the timing columns. A run that diverges, breaks down or takes no
step, as on a zero right-hand side, leaves its column blank; the outer
splitting radius shares kappa_preconditioned's run and column rules, the
inner one makes a short run of its own (`precond.splitting_radii`). The
dense values stay in `oracle`; `--max-dense-dim` caps the dense solver.

Exit codes: 0 success; 1 `compare` objectives differ by more than 1e-6
relative; 2 invalid problem or solver spec, including a problem whose
reduced operator is not numerically positive definite; 3 non-convergence
or divergence; 4 dimension guard. Each failure prints one line to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time

import numpy as np

from .errors import (
    DENSE_GUARD,
    BreakdownError,
    DimensionGuardError,
    DivergenceError,
    InvalidProblemError,
    MaxIterationsExceeded,
    NotPositiveDefiniteError,
)
from .grid_problem import (
    generate_irrigation_case,
    generate_msd_case,
    load_problem,
    validate,  # noqa: F401  kept importable here: perfbench/spans.py traces it
)
from .kkt_assembly import build_schur, build_splitting, build_stacked
from .nested_jacobi import NestedJacobiPreconditioner
from .oracle import (
    condition_numbers,  # noqa: F401  kept importable here: perfbench/spans.py traces it
    dense_reference_solve,
    splitting_spectral_radii,  # noqa: F401  likewise
)
from .pcg import cg_solve, pcg_solve, spectrum_report
from .recovery import kkt_residual, recover_solution

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3
EXIT_DIMENSION_GUARD = 4

CSV_COLUMNS = [
    "case", "K", "N", "T", "solver", "L", "S", "seed", "unknowns", "steps",
    "converged", "final_residual", "assembly_s", "factor_s", "solve_s",
    "objective", "kkt_stationarity_x", "kkt_stationarity_u", "kkt_dynamics",
    "kappa_delta", "kappa_preconditioned", "rho_inner_split", "rho_outer_split",
]

GENERATORS = {"msd": generate_msd_case, "irrigation": generate_irrigation_case}
CASE_ALIASES = {"case1": "msd", "case2": "irrigation", **{case: case for case in GENERATORS}}
SOLVERS = ("pcgm", "cg", "nbjm", "dense")


def _sweep_sizes(text):
    """Parse --sweep; an entry that is not an integer gives no sizes, which
    `_spec_errors` rejects."""
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        return []


def _problems(args):
    """Yield (problem, label) for each size the flags name; `_spec_errors`
    has checked them. --K/--N/--T override the size they are given with."""
    if args.problem_file:
        yield load_problem(args.problem_file), "file"
        return
    case = CASE_ALIASES[args.case]
    for size in getattr(args, "sweep", None) or [args.size]:
        k, n, t = (size if dim is None else dim for dim in (args.K, args.N, args.T))
        yield GENERATORS[case](k, n, t, seed=args.seed), case


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit(records, args, stream):
    if args.format == "csv":
        stream.write(",".join(CSV_COLUMNS) + "\n")
        for rec in records:
            stream.write(",".join(_fmt(rec.get(c)) for c in CSV_COLUMNS) + "\n")
    else:
        ordered = [{c: rec[c] for c in CSV_COLUMNS if c in rec} for rec in records]
        json.dump({"records": ordered}, stream, indent=2)
        stream.write("\n")


def _solve(solver, problem, stacked, schur, precond, args):
    """Run ``solver`` once and return (multipliers, or the dense oracle's
    solution; the CG SolveReport or None; step count)."""
    if solver == "pcgm":
        lam, report = pcg_solve(schur, precond, stacked.offset, tol=args.tol,
                                max_steps=args.max_steps)
    elif solver == "cg":
        lam, report = cg_solve(schur, stacked.offset, tol=args.tol, max_steps=args.max_steps)
    elif solver == "nbjm":
        lam, outers = precond.solve(stacked.offset, tol=args.tol, max_outer=args.max_outer)
        return lam, None, outers
    else:
        return dense_reference_solve(problem, max_dim=args.max_dense_dim), None, 1
    return lam, report, report.steps


def _solve_record(problem, label, args, solver, diagnostics=True):
    """Solve one problem with ``solver`` and return (record, exit status).
    With ``diagnostics`` false the conditioning and splitting-radius
    columns stay blank."""
    applies = solver in ("pcgm", "nbjm")
    rec = {
        "case": label,
        "K": problem.K,
        "N": problem.N,
        "T": problem.T,
        "solver": solver,
        "L": args.L if applies else None,
        "S": args.S if solver == "pcgm" else None,
        "seed": args.seed,
    }

    t0 = time.perf_counter()
    try:
        stacked = build_stacked(problem)
    except InvalidProblemError as exc:
        print("invalid problem: " + "; ".join(exc.messages), file=sys.stderr)
        return rec, EXIT_INVALID
    schur = build_schur(stacked)
    assembly_s = time.perf_counter() - t0
    rec["unknowns"] = stacked.layout.n_total

    # an odd inner budget gives a map that is not SPD: no kappa columns
    kappas = diagnostics and args.L % 2 == 0
    precond = None
    factor_s = 0.0
    status, diverged = EXIT_OK, False
    try:
        if applies or diagnostics:
            t0 = time.perf_counter()
            precond = NestedJacobiPreconditioner(schur, inner_sweeps=args.L, outer_sweeps=args.S,
                                                 splitting=build_splitting(schur))
            # cg and dense never apply it: only the diagnostics need it
            if applies:
                factor_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        lam, report, steps = _solve(solver, problem, stacked, schur, precond, args)
    except MaxIterationsExceeded as exc:
        lam, report, steps = exc.iterate, exc.report, exc.iterations
        status, diverged = EXIT_NO_CONVERGENCE, isinstance(exc, DivergenceError)
        print(f"solver did not converge: {exc}", file=sys.stderr)
    except DimensionGuardError as exc:
        print(f"dimension guard: {exc}", file=sys.stderr)
        return rec, EXIT_DIMENSION_GUARD
    except (NotPositiveDefiniteError, BreakdownError) as exc:
        print(f"invalid problem: {exc}", file=sys.stderr)
        return rec, EXIT_INVALID

    sol, lam = (lam, lam.multipliers) if solver == "dense" else (None, lam)
    rec["steps"] = steps
    rec["converged"] = status == EXIT_OK
    if report is not None:
        rec["final_residual"] = report.final_residual
    elif lam is not None:
        rec["final_residual"] = float(np.max(np.abs(schur.apply(lam) - stacked.offset)))
    if sol is None and lam is not None:
        sol = recover_solution(stacked, lam)
    solve_s = time.perf_counter() - t0

    if sol is not None:
        rec["objective"] = sol.objective_value
        rx, ru, rdyn = kkt_residual(stacked, sol)
        rec["kkt_stationarity_x"] = rx
        rec["kkt_stationarity_u"] = ru
        rec["kkt_dynamics"] = rdyn

    pre = None
    if kappas:
        # a diverged run's coefficients estimate no spectrum
        own = None if diverged else report
        cg_args = {"rhs": stacked.offset, "tol": args.tol, "max_steps": args.max_steps}
        plain = own if solver == "cg" else spectrum_report(cg_solve, schur, **cg_args)
        rec["kappa_delta"] = None if plain is None else plain.kappa_estimate
        pre = own if solver == "pcgm" else spectrum_report(pcg_solve, schur, precond, **cg_args)
        rec["kappa_preconditioned"] = None if pre is None else pre.kappa_estimate
    if diagnostics:
        rec["rho_inner_split"], rec["rho_outer_split"] = precond.splitting_radii(pre)

    if not args.omit_timings:
        rec.update(assembly_s=assembly_s, factor_s=factor_s, solve_s=solve_s)
    return rec, status


def _add_common(parser):
    parser.add_argument("--case", choices=sorted(CASE_ALIASES), default="case1",
                        help="problem family (case1/msd or case2/irrigation)")
    parser.add_argument("--problem-file", help="load a problem JSON instead of generating")
    parser.add_argument("--size", type=int, help="K = N = T = SIZE")
    for dim in ("K", "N", "T"):
        parser.add_argument(f"--{dim}", type=int)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--L", type=int, default=2, help="inner sweep budget")
    parser.add_argument("--S", type=int, default=2, help="outer sweep budget")
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--max-steps", type=int, default=None)
    parser.add_argument("--max-outer", type=int, default=50000)
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility (at least 1); the solver "
                             "runs on one thread and neither results nor speed "
                             "depend on it")
    parser.add_argument("--max-dense-dim", type=int, default=DENSE_GUARD,
                        help="cap on the dense solver's dimension")
    parser.add_argument("--omit-timings", action="store_true",
                        help="blank the timing fields for reproducible reports")


def _parser():
    parser = argparse.ArgumentParser(
        prog="gridlq",
        description="Structured solver benchmark for grid-coupled LQ optimal control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve one size or a sweep and emit a report")
    _add_common(run)
    run.add_argument("--sweep", type=_sweep_sizes, help="comma-separated sizes, e.g. 2,3,4")
    run.add_argument("--solver", choices=SOLVERS, default="pcgm")
    run.add_argument("--output", help="report file (stdout when omitted)")
    run.add_argument("--format", choices=["csv", "json"], default="csv")

    cmp_cmd = sub.add_parser("compare", help="run two solvers on the same problem")
    _add_common(cmp_cmd)
    cmp_cmd.add_argument("--solver-a", choices=SOLVERS, default="pcgm")
    cmp_cmd.add_argument("--solver-b", choices=SOLVERS, default="dense")
    return parser


def _run(args):
    # opened before any solve, so an unwritable report path costs no work
    try:
        out = open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        print(f"error: cannot write --output: {exc}", file=sys.stderr)
        return EXIT_INVALID
    records = []
    with out as stream:
        # only loading a problem raises these: _solve_record reports its own failures
        try:
            for problem, label in _problems(args):
                rec, status = _solve_record(problem, label, args, args.solver)
                records.append(rec)
                if status != EXIT_OK:
                    break
        except (InvalidProblemError, OSError) as exc:
            print(f"invalid problem: {exc}", file=sys.stderr)
            status = EXIT_INVALID
        _emit(records, args, stream)
    return status


def _compare(args):
    try:
        problem, label = next(_problems(args))
    except (InvalidProblemError, OSError) as exc:
        print(f"invalid problem: {exc}", file=sys.stderr)
        return EXIT_INVALID
    # compare prints no conditioning column, so it skips the diagnostics
    rec_a, code_a = _solve_record(problem, label, args, args.solver_a, diagnostics=False)
    rec_b, code_b = _solve_record(problem, label, args, args.solver_b, diagnostics=False)

    fields = ["solver", "steps", "converged", "final_residual", "objective",
              "kkt_dynamics", "solve_s"]
    table = [["field", args.solver_a, args.solver_b]]
    table += [[f, _fmt(rec_a.get(f)), _fmt(rec_b.get(f))] for f in fields]
    widths = [max(len(row[c]) for row in table) + 2 for c in range(3)]
    for row in table:
        print("".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    if code_a or code_b:
        return code_a or code_b

    obj_a, obj_b = rec_a["objective"], rec_b["objective"]
    scale = max(abs(obj_a), abs(obj_b), 1e-30)
    if abs(obj_a - obj_b) > 1e-6 * scale:
        print(
            f"objective mismatch: {obj_a!r} vs {obj_b!r} "
            f"(relative {abs(obj_a - obj_b) / scale:.3e})",
            file=sys.stderr,
        )
        return 1
    return EXIT_OK


def _spec_errors(args):
    """Violations of the solver and size spec, checked before any work."""
    errors = []
    for name in ("L", "S", "max_steps", "max_outer", "threads", "max_dense_dim"):
        value = getattr(args, name)
        if value is not None and value < 1:
            errors.append(f"--{name.replace('_', '-')} must be at least 1, got {value}")
    if args.seed < 0:
        errors.append(f"--seed must be non-negative, got {args.seed}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        errors.append(f"--tol must be finite and positive, got {args.tol!r}")
    solvers = (args.solver,) if args.command == "run" else (args.solver_a, args.solver_b)
    if "pcgm" in solvers and args.L % 2:
        errors.append(f"--L must be even for pcgm, got {args.L}")
    sweep = getattr(args, "sweep", None)
    sized = [f for f in ("size", "sweep", "K", "N", "T") if getattr(args, f, None) is not None]
    if args.problem_file:
        if sized:
            errors.append("--problem-file takes no size flags, got --" + " --".join(sized))
    elif sweep is not None:
        if args.size is not None:
            errors.append("--sweep and --size are exclusive")
        if not sweep:
            errors.append("--sweep takes comma-separated integer sizes, e.g. 2,3,4")
    elif args.size is None and len(sized) < 3:
        errors.append("provide all of --K --N --T, or --size" if sized else
                      "no problem size given (use --size, --sweep or --K/--N/--T)")
    return errors


def main(argv=None):
    args = _parser().parse_args(argv)
    errors = _spec_errors(args)
    if errors:
        print("error: " + "; ".join(errors), file=sys.stderr)
        return EXIT_INVALID
    return _run(args) if args.command == "run" else _compare(args)


if __name__ == "__main__":
    sys.exit(main())
