"""Conjugate gradient driver over the matrix-free reduced operator.

The preconditioned update recomputes the preconditioned residual after
every accepted step and uses it (not the raw residual) in the direction
update, which is what makes the inner product bookkeeping consistent.
Dot products are single full-vector reductions in a fixed order, so
repeated runs produce bitwise identical results.

PCG is a Lanczos process on the preconditioned operator, and its step
coefficients define the Lanczos tridiagonal. The solve keeps them, so its
report can estimate the operator's extreme eigenvalues for free (Meurant &
Strakos, Acta Numerica 15, 2006; Saad, Iterative Methods for Sparse Linear
Systems, 2003, section 6.7.3).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BreakdownError,
    DimensionMismatchError,
    DivergenceError,
    MaxIterationsExceeded,
)

# a recurred residual beyond this multiple of the initial one is divergence;
# convergent solves of the paper's problem families grow it by under 2x
DIVERGENCE_FACTOR = 1e8

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
    alphas: list = field(default_factory=list)
    betas: list = field(default_factory=list)

    @property
    def final_residual(self):
        return self.residual_inf_history[-1] if self.residual_inf_history else float("nan")

    @property
    def flops_per_step(self):
        total = sum(self.op_counts.values())
        return total / self.steps if self.steps else 0.0

    def lanczos_extremes(self):
        """(smallest, largest) eigenvalue of the Lanczos tridiagonal that the
        step coefficients define: Ritz values of the (preconditioned)
        operator, inside its spectrum, and converging to its extreme
        eigenvalues as the solve proceeds.

        With alpha_k the step lengths and beta_k the direction-update
        ratios, the tridiagonal has diagonal 1/alpha_0 and
        1/alpha_k + beta_(k-1)/alpha_(k-1), and off-diagonal
        sqrt(beta_k)/alpha_k. Its size is the step count, and the cost is
        linear in it (``tridiagonal_extremes``).
        """
        a = np.asarray(self.alphas)
        b = np.asarray(self.betas[: a.size - 1])
        diag = 1.0 / a
        diag[1:] += b / a[:-1]
        off = np.sqrt(b) / a[:-1]
        return tridiagonal_extremes(diag, off)

    @property
    def kappa_estimate(self):
        """Condition number estimate from ``lanczos_extremes``: up to
        rounding at most the true value, and close to it once the solve has
        converged."""
        lo, hi = self.lanczos_extremes()
        return hi / lo


def tridiagonal_extremes(diag, off):
    """(smallest, largest) eigenvalue of the symmetric tridiagonal with
    diagonal ``diag`` and off-diagonal ``off``, to about 4 eps times its
    norm.

    Sturm-sequence multisection inside the Gershgorin interval: each pass
    counts the eigenvalues below 63 shifts per extreme with one
    LDL' pivot recurrence and keeps the pair of neighbouring shifts where
    the count crosses. A pass costs O(k) time for k rows and nothing but
    the shifts is stored, so a tridiagonal as wide as the operator stays
    cheap.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    k = diag.size
    radius = np.zeros(k)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    tol = 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi))
    # row 0 brackets the smallest eigenvalue, row 1 the largest; a count of
    # at least 1 (at least k) eigenvalues below a shift puts it above it
    brackets = np.array([[lo, hi], [lo, hi]])
    targets = (1, k)
    sections = 63
    fractions = np.arange(1, sections + 1) / (sections + 1)
    # a pivot of exactly zero turns into an infinite one and back, never NaN
    d = diag.tolist()
    e2 = np.maximum(off * off, np.finfo(float).tiny).tolist()
    with np.errstate(divide="ignore"):
        while np.max(brackets[:, 1] - brackets[:, 0]) > tol:
            shifts = brackets[:, :1] + (brackets[:, 1:] - brackets[:, :1]) * fractions
            pivot = d[0] - shifts
            below = (pivot < 0).astype(int)
            for i in range(1, k):
                pivot = (d[i] - shifts) - e2[i - 1] / pivot
                below += pivot < 0
            for j, target in enumerate(targets):
                above = np.flatnonzero(below[j] >= target)
                first = above[0] if above.size else sections
                if first > 0:
                    brackets[j, 0] = shifts[j, first - 1]
                if first < sections:
                    brackets[j, 1] = shifts[j, first]
    smallest, largest = brackets.mean(axis=1)
    return float(smallest), float(largest)


def pcg_solve(schur, preconditioner, rhs, tol=1e-9, max_steps=None, x0=None,
              callback=None):
    """Preconditioned conjugate gradient for the reduced multiplier system.

    preconditioner is any object with an ``apply(r)`` method and an
    ``apply_flops`` attribute, or None for plain conjugate gradient.
    Iterates from x0 (default zero) until the recurred residual infinity
    norm drops below tol. Returns (solution, SolveReport); raises
    BreakdownError on non-positive or NaN curvature, DivergenceError when
    the recurred residual turns non-finite or exceeds DIVERGENCE_FACTOR
    times its initial infinity norm, and MaxIterationsExceeded when the
    step budget runs out; the last two carry the last iterate and the
    report. ``callback(step, x, r)`` is invoked after every accepted step.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim != 1 or rhs.shape[0] != schur.dim:
        raise DimensionMismatchError("right-hand side does not match operator dimension")
    initial = float(np.max(np.abs(rhs)))
    if not math.isfinite(initial):
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
        initial = float(np.max(np.abs(r)))
        counts["residual_norm"] += n
    limit = DIVERGENCE_FACTOR * initial

    if preconditioner is not None:
        d = preconditioner.apply(r)
        counts["preconditioner_apply"] += precond_flops
    else:
        d = r.copy()
    mu = float(d @ r)
    counts["precondition_dot"] += n

    history, alphas, betas = [], [], []
    converged = diverged = False
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
        alphas.append(alpha)
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
        if not res <= limit:
            diverged = True
            break
        if preconditioner is not None:
            q = preconditioner.apply(r)
            counts["preconditioner_apply"] += precond_flops
        else:
            q = r
        mu_next = float(q @ r)
        counts["precondition_dot"] += n
        beta = mu_next / mu
        betas.append(beta)
        d = q + beta * d
        counts["direction_update"] += n
        mu = mu_next

    report = SolveReport(
        steps=steps,
        residual_inf_history=history,
        converged=converged,
        tolerance=tol,
        wall_time_s=time.perf_counter() - start,
        op_counts=counts,
        alphas=alphas,
        betas=betas,
    )
    if diverged:
        raise DivergenceError(
            f"conjugate gradient diverged after {steps} steps: residual "
            f"{report.final_residual:.3e} is non-finite or above "
            f"{DIVERGENCE_FACTOR:g} times its initial value",
            iterate=x,
            iterations=steps,
            report=report,
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
