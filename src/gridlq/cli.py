"""Benchmark command line: generate or load a grid problem, solve it with a
chosen method, and emit machine-readable reports.

`run` reports two condition numbers at every size: of the reduced operator
and of the preconditioned one. They are Lanczos estimates from the step
coefficients of conjugate gradient runs on the multiplier system, so they
are lower bounds. The pcgm solve gives the preconditioned one itself, and
one plain CG run on the same right-hand side gives the other; for the other
solvers, each CG run the solve did not make is made once, outside the
timing columns. A run that diverges or breaks down, as on a zero
right-hand side, leaves its column blank. The dense values stay available
from `recovery.condition_numbers`. The splitting radii come from the dense
per-stage eigenproblems, under `--max-dense-dim` only.

Exit codes: 0 success; 2 invalid problem or solver spec, including a
problem whose reduced operator is not numerically positive definite;
3 non-convergence or divergence; 4 dimension guard. Each failure prints
one line to stderr.
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
from .kkt_assembly import DENSE_GUARD, build_schur, build_splitting, build_stacked
from .nested_jacobi import NestedJacobiPreconditioner
from .pcg import cg_solve, pcg_solve
from .recovery import (
    condition_numbers,  # noqa: F401  kept importable here: perfbench/spans.py traces it
    dense_reference_solve,
    kkt_residual,
    recover_solution,
    splitting_spectral_radii,
)

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
    k = args.K if args.K else size
    n = args.N if args.N else size
    t = args.T if args.T else size
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
        json.dump({"records": records}, stream, indent=2)
        stream.write("\n")


def _kappa_estimate(reports, name, solve, *args, **kwargs):
    """Lanczos condition number estimate from the CG run ``reports[name]``,
    made now with ``solve`` when the solve did not make it. None when that
    run diverged or broke down: its coefficients estimate no spectrum."""
    if name not in reports:
        try:
            _, reports[name] = solve(*args, **kwargs)
        except (DivergenceError, BreakdownError):
            reports[name] = None
        except MaxIterationsExceeded as exc:
            reports[name] = exc.report
    report = reports[name]
    return None if report is None else report.kappa_estimate


def _solve_record(problem, label, args, diagnostics=True):
    """Solve one problem and return (record, exit status). With
    ``diagnostics`` false the conditioning and splitting-radius columns
    stay blank."""
    rec = {
        "case": label,
        "K": problem.K,
        "N": problem.N,
        "T": problem.T,
        "solver": args.solver,
        "L": args.L if args.solver in ("pcgm", "nbjm") else None,
        "S": args.S if args.solver == "pcgm" else None,
        "seed": args.seed,
    }
    status = EXIT_OK

    t0 = time.perf_counter()
    try:
        stacked = build_stacked(problem)
    except InvalidProblemError as exc:
        for msg in exc.messages:
            print(f"invalid problem: {msg}", file=sys.stderr)
        return rec, EXIT_INVALID
    schur = build_schur(stacked)
    assembly_s = time.perf_counter() - t0
    lay = stacked.layout
    rec["unknowns"] = lay.n_total

    splitting = None
    precond = None
    factor_s = 0.0
    sol = None
    under_cap = diagnostics and lay.n_total <= args.max_dense_dim
    # an odd inner budget gives a map that is not SPD: no kappa columns
    kappas = diagnostics and args.L % 2 == 0
    # SolveReport of the pcgm ("pcgm") or plain ("cg") run, None if it diverged
    reports = {}
    try:
        if args.solver in ("pcgm", "nbjm") or kappas or under_cap:
            t0 = time.perf_counter()
            splitting = build_splitting(schur)
            precond = NestedJacobiPreconditioner(
                schur, inner_sweeps=args.L, outer_sweeps=args.S, splitting=splitting
            )
            # cg and dense never apply it: only the diagnostics need it
            if args.solver in ("pcgm", "nbjm"):
                factor_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        if args.solver == "pcgm":
            lam, report = pcg_solve(
                schur, precond, stacked.offset, tol=args.tol,
                max_steps=args.max_steps,
            )
            reports["pcgm"] = report
            rec["steps"] = report.steps
            rec["converged"] = report.converged
            rec["final_residual"] = report.final_residual
            sol = recover_solution(stacked, lam)
        elif args.solver == "cg":
            lam, report = cg_solve(
                schur, stacked.offset, tol=args.tol,
                max_steps=args.max_steps,
            )
            reports["cg"] = report
            rec["steps"] = report.steps
            rec["converged"] = report.converged
            rec["final_residual"] = report.final_residual
            sol = recover_solution(stacked, lam)
        elif args.solver == "nbjm":
            lam, outers = precond.solve(
                stacked.offset, tol=args.tol, max_outer=args.max_outer,
            )
            rec["steps"] = outers
            rec["final_residual"] = float(
                np.max(np.abs(schur.apply(lam) - stacked.offset))
            )
            rec["converged"] = rec["final_residual"] < args.tol
            sol = recover_solution(stacked, lam)
        elif args.solver == "dense":
            sol = dense_reference_solve(problem, max_dim=args.max_dense_dim)
            rec["steps"] = 1
            rec["converged"] = True
            rec["final_residual"] = float(
                np.max(np.abs(schur.apply(sol.multipliers) - stacked.offset))
            )
    except MaxIterationsExceeded as exc:
        rec["steps"] = exc.iterations
        rec["converged"] = False
        if args.solver in ("pcgm", "cg"):
            reports[args.solver] = (
                None if isinstance(exc, DivergenceError) else exc.report
            )
        if exc.report is not None:
            rec["final_residual"] = exc.report.final_residual
        if exc.iterate is not None:
            if exc.report is None:
                rec["final_residual"] = float(
                    np.max(np.abs(schur.apply(exc.iterate) - stacked.offset))
                )
            sol = recover_solution(stacked, exc.iterate)
        status = EXIT_NO_CONVERGENCE
        print(f"solver did not converge: {exc}", file=sys.stderr)
    except DimensionGuardError as exc:
        print(f"dimension guard: {exc}", file=sys.stderr)
        return rec, EXIT_DIMENSION_GUARD
    except (NotPositiveDefiniteError, BreakdownError) as exc:
        print(f"invalid problem: {exc}", file=sys.stderr)
        return rec, EXIT_INVALID
    solve_s = time.perf_counter() - t0

    if sol is not None:
        rec["objective"] = sol.objective_value
        rx, ru, rdyn = kkt_residual(stacked, sol)
        rec["kkt_stationarity_x"] = rx
        rec["kkt_stationarity_u"] = ru
        rec["kkt_dynamics"] = rdyn

    if kappas:
        budget = {"tol": args.tol, "max_steps": args.max_steps}
        rec["kappa_delta"] = _kappa_estimate(
            reports, "cg", cg_solve, schur, stacked.offset, **budget
        )
        rec["kappa_preconditioned"] = _kappa_estimate(
            reports, "pcgm", pcg_solve, schur, precond, stacked.offset, **budget
        )
    if under_cap:
        rho_inner, rho_outer = splitting_spectral_radii(
            schur, splitting, max_dim=args.max_dense_dim
        )
        rec["rho_inner_split"] = rho_inner
        rec["rho_outer_split"] = rho_outer

    if not args.omit_timings:
        rec["assembly_s"] = assembly_s
        rec["factor_s"] = factor_s
        rec["solve_s"] = solve_s
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
                        help="cap for dense solves and splitting radii")
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
    if args.size:
        return [args.size]
    if args.K or args.N or args.T:
        if not (args.K and args.N and args.T):
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
            rec, code = _solve_record(problem, label, args)
            records.append(rec)
            if code != EXIT_OK:
                status = code
                break
        _emit(records, args, stream)
    return status


def _run_single(problem, label, args, solver):
    sub_args = argparse.Namespace(**vars(args))
    sub_args.solver = solver
    # compare prints no conditioning column, so it skips the diagnostics
    return _solve_record(problem, label, sub_args, diagnostics=False)


def _compare(args):
    args.sweep = None
    try:
        _sizes(args)
        problem, label = _build_problem(args, args.size)
    except (InvalidProblemError, OSError) as exc:
        print(f"invalid problem: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    rec_a, code_a = _run_single(problem, label, args, args.solver_a)
    rec_b, code_b = _run_single(problem, label, args, args.solver_b)

    fields = ["solver", "steps", "converged", "final_residual", "objective",
              "kkt_dynamics", "solve_s"]
    table = [["field", args.solver_a, args.solver_b]]
    table += [[f, _fmt(rec_a.get(f)), _fmt(rec_b.get(f))] for f in fields]
    widths = [max(len(row[c]) for row in table) + 2 for c in range(3)]
    for row in table:
        print("".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    if code_a or code_b:
        return code_a or code_b

    obj_a, obj_b = rec_a.get("objective"), rec_b.get("objective")
    if obj_a is None or obj_b is None:
        print("comparison incomplete: missing objective", file=sys.stderr)
        return 1
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
    if not (math.isfinite(args.tol) and args.tol > 0):
        errors.append(f"--tol must be finite and positive, got {args.tol!r}")
    solvers = (args.solver,) if args.command == "run" else (args.solver_a, args.solver_b)
    if "pcgm" in solvers and args.L % 2:
        errors.append(f"--L must be even for pcgm, got {args.L}")
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
