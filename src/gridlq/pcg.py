"""Conjugate gradient driver over the matrix-free reduced operator.

Every solve starts from zero. Its loop holds only the recurrence and its
stop tests; the op counts follow from its step and preconditioner-apply
counts after it. Dot products are single full-vector reductions in a fixed
order, so repeated runs produce bitwise identical results.

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
        linear in it (``tridiagonal_extremes``), paid once per report.
        """
        if "_extremes" not in vars(self):
            a = np.asarray(self.alphas)
            b = np.asarray(self.betas[: a.size - 1])
            diag = 1.0 / a
            diag[1:] += b / a[:-1]
            off = np.sqrt(b) / a[:-1]
            self._extremes = tridiagonal_extremes(diag, off)
        return self._extremes

    @property
    def kappa_estimate(self):
        """Condition number estimate from ``lanczos_extremes``: up to
        rounding at most the true value, and close to it once the solve has
        converged; None when the solve took no step."""
        if not self.alphas:
            return None
        lo, hi = self.lanczos_extremes()
        return hi / lo


def tridiagonal_extremes(diag, off):
    """(smallest, largest) eigenvalue of the symmetric tridiagonal with
    diagonal ``diag`` and off-diagonal ``off``, to about 4 eps times its
    norm.

    Sturm bisection (Barth, Martin & Wilkinson, Numer. Math. 9, 1967), one
    extreme at a time, inside the Gershgorin interval: the negative pivots
    of the LDL' factorization of T - shift I count the eigenvalues below the
    shift, and each count halves the interval holding the extreme. A count
    costs O(k) time for k rows and stores nothing, so a tridiagonal as wide
    as the operator stays cheap. As in LAPACK, squared off-diagonals are
    floored and a zero pivot is replaced by the smallest normal number.
    """
    diag, off = np.asarray(diag, dtype=float), np.asarray(off, dtype=float)
    radius = np.pad(np.abs(off), (0, 1)) + np.pad(np.abs(off), (1, 0))
    lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    tol = 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi))
    tiny = float(np.finfo(float).tiny)
    # Python floats, ~10x faster here than numpy scalars; e2[0] = 0 starts row 0
    d, e2 = diag.tolist(), [0.0] + np.maximum(off * off, tiny).tolist()

    def below(shift):
        count, pivot = 0, 1.0
        for di, e in zip(d, e2):
            pivot = (di - shift) - e / pivot
            if pivot < 0.0:
                count += 1
            elif not pivot:
                pivot = tiny
        return count

    def bisect(target):
        a, b = lo, hi
        while b - a > tol:
            mid = 0.5 * (a + b)
            a, b = (a, mid) if below(mid) >= target else (mid, b)
        return 0.5 * (a + b)

    return bisect(1), bisect(diag.size)


def pcg_solve(schur, preconditioner, rhs, tol=1e-9, max_steps=None, callback=None):
    """Preconditioned conjugate gradient for the reduced multiplier system.

    preconditioner is any object with an ``apply(r)`` method and an
    ``apply_flops`` attribute, or None for plain conjugate gradient.
    Iterates from zero until the recurred residual infinity norm drops below
    tol; a right-hand side already below tol returns zero after no step,
    with its norm as the report's only history entry. The report's op
    counts follow from its step and preconditioner-apply counts.
    Returns (solution, SolveReport); raises BreakdownError on non-positive
    or NaN curvature or preconditioned residual product, DivergenceError when
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
    precondition = preconditioner.apply if preconditioner is not None else (lambda r: r)
    limit = DIVERGENCE_FACTOR * initial
    # no line writes r or d in place, so the caller's rhs stays unwritten
    x, r = np.zeros(n), rhs
    d = precondition(r)
    mu = float(d @ r)

    converged, diverged = initial < tol, False
    history, alphas, betas = [initial] if converged else [], [], []
    for _ in range(0 if converged else max_steps):
        y = schur.apply(d)
        curvature = float(y @ d)
        if not curvature > 0.0:
            raise BreakdownError(
                f"non-positive or NaN curvature {curvature:.3e}; operator or "
                "preconditioner is not positive definite"
            )
        alpha = mu / curvature
        alphas.append(alpha)
        x += alpha * d
        r = r - alpha * y
        res = float(np.max(np.abs(r)))
        history.append(res)
        if callback is not None:
            callback(len(alphas), x, r)
        converged, diverged = res < tol, not res <= limit
        if converged or diverged:
            break
        q = precondition(r)
        mu_next = float(q @ r)
        if not mu_next > 0.0:
            raise BreakdownError(f"preconditioned residual product {mu_next:.3e} is not "
                                 "positive: indefinite preconditioner or underflow")
        beta = mu_next / mu
        betas.append(beta)
        d = q + beta * d
        mu = mu_next

    # one preconditioner apply before the first step, one per direction update
    steps, applies = len(alphas), len(betas) + 1
    counts = dict(zip(COUNT_KEYS, map(float, (
        steps * schur.matvec_flops, steps * n, steps * n, steps * n, steps * n,
        applies * getattr(preconditioner, "apply_flops", 0.0), applies * n,
        len(betas) * n))))
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


def cg_solve(schur, rhs, tol=1e-9, max_steps=None, callback=None):
    """Unpreconditioned conjugate gradient baseline."""
    return pcg_solve(schur, None, rhs, tol=tol, max_steps=max_steps, callback=callback)


def spectrum_report(solve, *args, **kwargs):
    """SolveReport of the CG run ``solve(*args, **kwargs)``, also on a budget
    stop; None when it diverges or breaks down: no spectrum estimate then."""
    try:
        return solve(*args, **kwargs)[1]
    except (DivergenceError, BreakdownError):
        return None
    except MaxIterationsExceeded as exc:
        return exc.report
