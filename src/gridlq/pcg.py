"""Conjugate gradient driver over the matrix-free reduced operator.

The preconditioned update recomputes the preconditioned residual after
every accepted step and uses it (not the raw residual) in the direction
update, which is what makes the inner product bookkeeping consistent.
Dot products are single full-vector reductions in a fixed order, so
repeated runs produce bitwise identical results.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import BreakdownError, DimensionMismatchError, MaxIterationsExceeded

COUNT_KEYS = (
    "operator_apply",
    "curvature_dot",
    "solution_update",
    "residual_update",
    "residual_norm",
    "preconditioner_apply",
    "precondition_dot",
    "direction_update",
)


@dataclass
class SolveReport:
    steps: int
    residual_inf_history: list
    converged: bool
    tolerance: float
    wall_time_s: float
    op_counts: dict = field(default_factory=dict)

    @property
    def final_residual(self):
        return self.residual_inf_history[-1] if self.residual_inf_history else float("nan")

    @property
    def flops_per_step(self):
        total = sum(self.op_counts.values())
        return total / self.steps if self.steps else 0.0


def pcg_solve(schur, preconditioner, rhs, tol=1e-9, max_steps=None, x0=None,
              callback=None):
    """Preconditioned conjugate gradient for the reduced multiplier system.

    preconditioner is any object with an ``apply(r)`` method and an
    ``apply_flops`` attribute, or None for plain conjugate gradient.
    Iterates from x0 (default zero) until the recurred residual infinity
    norm drops below tol. Returns (solution, SolveReport); raises
    BreakdownError on non-positive or NaN curvature and MaxIterationsExceeded
    (carrying the best iterate and the report) when the step budget runs
    out. ``callback(step, x, r)`` is invoked after every accepted step.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim != 1 or rhs.shape[0] != schur.dim:
        raise DimensionMismatchError("right-hand side does not match operator dimension")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("right-hand side contains non-finite entries")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    if max_steps is None:
        max_steps = schur.dim + 50
    if max_steps < 1:
        raise ValueError("need at least one step")

    start = time.perf_counter()
    n = schur.dim
    counts = dict.fromkeys(COUNT_KEYS, 0.0)
    precond_flops = getattr(preconditioner, "apply_flops", 0.0)

    if x0 is None:
        x = np.zeros(n)
        r = rhs.copy()
    else:
        x = np.array(x0, dtype=float, copy=True)
        r = rhs - schur.apply(x)
        counts["operator_apply"] += schur.matvec_flops

    if preconditioner is not None:
        d = preconditioner.apply(r)
        counts["preconditioner_apply"] += precond_flops
    else:
        d = r.copy()
    mu = float(d @ r)
    counts["precondition_dot"] += n

    history = []
    converged = False
    steps = 0
    for _ in range(max_steps):
        y = schur.apply(d)
        counts["operator_apply"] += schur.matvec_flops
        curvature = float(y @ d)
        counts["curvature_dot"] += n
        if not curvature > 0.0:
            raise BreakdownError(
                f"non-positive or NaN curvature {curvature:.3e}; operator or "
                "preconditioner is not positive definite"
            )
        alpha = mu / curvature
        x += alpha * d
        counts["solution_update"] += n
        r = r - alpha * y
        counts["residual_update"] += n
        res = float(np.max(np.abs(r)))
        counts["residual_norm"] += n
        history.append(res)
        steps += 1
        if callback is not None:
            callback(steps, x, r)
        if res < tol:
            converged = True
            break
        if preconditioner is not None:
            q = preconditioner.apply(r)
            counts["preconditioner_apply"] += precond_flops
        else:
            q = r
        mu_next = float(q @ r)
        counts["precondition_dot"] += n
        d = q + (mu_next / mu) * d
        counts["direction_update"] += n
        mu = mu_next

    report = SolveReport(
        steps=steps,
        residual_inf_history=history,
        converged=converged,
        tolerance=tol,
        wall_time_s=time.perf_counter() - start,
        op_counts=counts,
    )
    if not converged:
        raise MaxIterationsExceeded(
            f"conjugate gradient did not reach {tol:g} within {steps} steps "
            f"(residual {report.final_residual:.3e})",
            iterate=x,
            iterations=steps,
            report=report,
        )
    return x, report


def cg_solve(schur, rhs, tol=1e-9, max_steps=None, x0=None, callback=None):
    """Unpreconditioned conjugate gradient baseline."""
    return pcg_solve(schur, None, rhs, tol=tol, max_steps=max_steps, x0=x0,
                     callback=callback)
