"""Benchmark command line: generate or load a grid problem, solve it with a
chosen method, and emit machine-readable reports.

A `run` record's `final_residual` is the residual the CG recurrence last
computed for pcgm and cg, also on a budget stop or divergence, and the true
residual max|Delta lam - rhs| for nbjm and dense. `converged` is the CG
report's flag for pcgm and cg, true residual < tol for nbjm, always true
for dense, and false for any run stopped by its budget or by divergence.

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

CASE_ALIASES = {
    "case1": "msd",
    "msd": "msd",
    "case2": "irrigation",
    "irrigation": "irrigation",
}


def _build_problem(args, size):
    if args.problem_file:
        problem = load_problem(args.problem_file)
        return problem, "file"
    case = CASE_ALIASES[args.case]
    k, n, t = (size if dim is None else dim for dim in (args.K, args.N, args.T))
    if case == "msd":
        return generate_msd_case(k, n, t, args.seed), case
    return generate_irrigation_case(k, n, t, seed=args.seed), case


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
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
    rec = {
        "case": label,
        "K": problem.K,
        "N": problem.N,
        "T": problem.T,
        "solver": solver,
        "L": args.L if solver in ("pcgm", "nbjm") else None,
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
    applies = solver in ("pcgm", "nbjm")
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
    if report is not None:
        rec["final_residual"] = report.final_residual
    elif lam is not None:
        rec["final_residual"] = float(np.max(np.abs(schur.apply(lam) - stacked.offset)))
    rec["converged"] = status == EXIT_OK and (
        report.converged if report is not None
        else solver == "dense" or rec["final_residual"] < args.tol
    )
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
    parser.add_argument("--K", type=int)
    parser.add_argument("--N", type=int)
    parser.add_argument("--T", type=int)
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
    run.add_argument("--sweep", help="comma-separated sizes, e.g. 2,3,4")
    run.add_argument("--solver", choices=["pcgm", "cg", "nbjm", "dense"],
                     default="pcgm")
    run.add_argument("--output", help="report file (stdout when omitted)")
    run.add_argument("--format", choices=["csv", "json"], default="csv")

    cmp_cmd = sub.add_parser("compare", help="run two solvers on the same problem")
    _add_common(cmp_cmd)
    cmp_cmd.add_argument("--solver-a", choices=["pcgm", "cg", "nbjm", "dense"],
                         default="pcgm")
    cmp_cmd.add_argument("--solver-b", choices=["pcgm", "cg", "nbjm", "dense"],
                         default="dense")
    return parser


def _sizes(args):
    if getattr(args, "sweep", None):
        sizes = [int(s) for s in args.sweep.split(",") if s.strip()]
        if not sizes:
            raise ValueError("empty sweep list")
        return sizes
    if args.size is not None:
        return [args.size]
    dims = (args.K, args.N, args.T)
    if dims != (None, None, None):
        if None in dims:
            raise ValueError("provide all of --K --N --T, or --size")
        return [None]
    if args.problem_file:
        return [None]
    raise ValueError("no problem size given (use --size, --sweep or --K/--N/--T)")


def _run(args):
    try:
        sizes = _sizes(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    # opened before any solve, so an unwritable report path costs no work
    try:
        out = open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        print(f"error: cannot write --output: {exc}", file=sys.stderr)
        return EXIT_INVALID
    records = []
    status = EXIT_OK
    with out as stream:
        for size in sizes:
            try:
                problem, label = _build_problem(args, size)
            except (InvalidProblemError, OSError) as exc:
                print(f"invalid problem: {exc}", file=sys.stderr)
                status = EXIT_INVALID
                break
            rec, code = _solve_record(problem, label, args, args.solver)
            records.append(rec)
            if code != EXIT_OK:
                status = code
                break
        _emit(records, args, stream)
    return status


def _compare(args):
    try:
        _sizes(args)
        problem, label = _build_problem(args, args.size)
    except (InvalidProblemError, OSError) as exc:
        print(f"invalid problem: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
    """Violations of the solver spec, checked before any work."""
    errors = []
    for name in ("L", "S", "max_steps", "max_outer", "threads"):
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
    sized = [f for f in ("size", "sweep", "K", "N", "T") if getattr(args, f, None) is not None]
    if args.problem_file and sized:
        errors.append("--problem-file takes no size flags, got --" + " --".join(sized))
    return errors


def main(argv=None):
    args = _parser().parse_args(argv)
    errors = _spec_errors(args)
    if errors:
        print("error: " + "; ".join(errors), file=sys.stderr)
        return EXIT_INVALID
    if args.command == "run":
        return _run(args)
    return _compare(args)


if __name__ == "__main__":
    sys.exit(main())
