"""Nested block Jacobi sweeps over the reduced multiplier operator.

One outer sweep refreshes the right-hand side through the stage couplings;
each outer sweep runs a fixed number of inner sweeps whose pair-diagonal
solves are one batched solve over every (pair, stage): one product with the
inverses of shallow pairs, a block tri-diagonal sweep on deep ones.
Run with fixed budgets from a zero start the sweeps are a linear, symmetric
positive definite map and serve as the conjugate gradient preconditioner;
the positive definiteness needs an even inner budget, which ``apply``
enforces. The standalone solver is Richardson iteration on the reduced
operator with the inner sweep as its approximate inverse.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .errors import DENSE_GUARD, DivergenceError, MaxIterationsExceeded, guard
from .kkt_assembly import PairSplitting, SchurOperator, build_splitting
from .pcg import pcg_solve, spectrum_report

# identity columns per apply in ``materialize``; bounds its work arrays
MATERIALIZE_COLUMNS = 64

# steps of the inner-radius Lanczos run: a residual stop would end it before
# its Ritz values reach the extremes, so its tolerance only guards underflow
RADIUS_STEPS = 30

# key of the batched pair factor in ``NestedJacobiPreconditioner.factors``
PAIRS = "pairs"


class NestedJacobiPreconditioner:
    """Fixed-budget nested Jacobi map over a reduced multiplier operator.

    All pair-diagonal blocks are factored once at construction, as one
    batched factor stored under ``factors[PAIRS]``; applies and solves reuse
    it. ``inner_sweeps`` plays the role of the inner budget L,
    ``outer_sweeps`` the outer budget S.
    """

    def __init__(self, schur: SchurOperator, inner_sweeps=2, outer_sweeps=2,
                 splitting: PairSplitting | None = None):
        if inner_sweeps < 1 or outer_sweeps < 1:
            raise ValueError("sweep budgets must be at least 1")
        self.schur = schur
        self.inner_sweeps = int(inner_sweeps)
        self.outer_sweeps = int(outer_sweeps)
        self.splitting = splitting if splitting is not None else build_splitting(schur)
        self.factors = {PAIRS: self.splitting.factor()}
        l, s = self.inner_sweeps, self.outer_sweeps
        # flops of one fixed-budget apply (first-sweep zero terms skipped)
        self.apply_flops = (
            s * l * self.factors[PAIRS].solve_flops
            + s * (l - 1) * self.splitting.inner_coupling_flops
            + (s - 1) * schur.outer_coupling_flops
        )

    @property
    def dim(self):
        return self.schur.dim

    # -- sweeps ------------------------------------------------------------

    def inner_sweep(self, rhs):
        """Run the inner budget of sweeps from a zero start.

        Each sweep solves every (pair, stage) block against the rhs plus
        the inter-pair couplings of the previous sweep's iterate; the first
        sweep's coupling term vanishes and is skipped. The result is linear
        in rhs.
        """
        theta = self.factors[PAIRS].solve(rhs)
        for _ in range(self.inner_sweeps - 1):
            theta = self.factors[PAIRS].solve(rhs + self.splitting.apply_inner_coupling(theta))
        return theta

    def apply(self, r):
        """The preconditioner map: fixed outer x inner budgets from zero.

        Exactly linear in r (no convergence checks), and positive definite
        for even inner budgets, which is required here. Accepts stacked
        right-hand sides as a 2-d array.
        """
        if self.inner_sweeps % 2:
            raise ValueError(
                "preconditioner use requires an even inner budget "
                f"(got {self.inner_sweeps}); odd budgets are standalone-only"
            )
        delta = self.inner_sweep(r)
        for _ in range(self.outer_sweeps - 1):
            delta = self.inner_sweep(r + self.schur.apply_outer_coupling(delta))
        return delta

    def solve(self, rhs, tol=1e-9, max_outer=50000):
        """Standalone nested Jacobi iteration.

        Richardson iteration from zero with the inner sweep P as the
        approximate inverse: every outer sweep adds P(rhs - operator lam).
        This equals outer sweeps whose inner sweeps warm-start from the
        current iterate, and its fixed point solves the system exactly for
        any inner budget >= 1. Stops when the true residual infinity norm
        drops below tol and returns (solution, outer sweep count). Raises
        DivergenceError when the residual turns non-finite or exceeds 1e3
        times its initial value, and MaxIterationsExceeded when the budget
        runs out; both carry the last iterate. Raises ValueError unless tol
        is finite and positive.
        """
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
        rhs = np.asarray(rhs, dtype=float)
        lam = np.zeros_like(rhs)
        res = rhs
        limit = 1e3 * float(np.max(np.abs(rhs)))
        for s in range(max_outer):
            lam += self.inner_sweep(res)
            res = rhs - self.schur.apply(lam)
            norm = float(np.max(np.abs(res)))
            if norm < tol:
                return lam, s + 1
            if not norm <= limit:
                raise DivergenceError(
                    f"nested Jacobi diverged: residual {norm:.3e} after {s + 1} "
                    "outer sweeps exceeds 1e3 times its initial value",
                    iterate=lam,
                    iterations=s + 1,
                )
        raise MaxIterationsExceeded(
            f"nested Jacobi did not converge within {max_outer} outer sweeps",
            iterate=lam,
            iterations=max_outer,
        )

    def splitting_radii(self, report=None):
        """(inner, outer) spectral radii of (pair diagonal)^-1 (inter-pair
        couplings) and (stage diagonal)^-1 (stage couplings) from Lanczos
        extremes; None where a run broke down, diverged or took no step.

        Inner: RADIUS_STEPS PCG steps on the stage diagonal preconditioned by
        the pair solve, a map equal to I minus the inner iteration matrix.
        Outer: from ``report``, a PCG solve preconditioned by this map. With
        exact inner solves that map has eigenvalues 1 - mu^S over the outer
        iteration matrix's spectrum, symmetric as the stage coupling is
        2-cyclic; with L inner sweeps the value is the contraction achieved.
        """
        rhs = np.random.default_rng(0).standard_normal(self.dim)
        stage = spectrum_report(
            pcg_solve, SchurOperator(self.schur.layout, self.schur.diag),
            SimpleNamespace(apply=self.factors[PAIRS].solve), rhs,
            tol=1e-100 * float(np.max(np.abs(rhs))), max_steps=RADIUS_STEPS)
        inner = None if stage is None else max(abs(1.0 - x) for x in stage.lanczos_extremes())
        outer = None
        if report is not None and report.alphas:
            outer = max(0.0, 1.0 - report.lanczos_extremes()[0]) ** (1.0 / self.outer_sweeps)
        return inner, outer

    def materialize(self, max_dim=DENSE_GUARD):
        """Dense matrix of the preconditioner map, by applying it to the
        identity, MATERIALIZE_COLUMNS stacked columns at a time. Symmetric
        positive definite for even inner budgets. Diagnostic use only, hence
        the dimension cap."""
        guard(self.dim, max_dim)
        out = np.empty((self.dim, self.dim))
        for lo in range(0, self.dim, MATERIALIZE_COLUMNS):
            width = min(MATERIALIZE_COLUMNS, self.dim - lo)
            out[:, lo : lo + width] = self.apply(np.eye(self.dim, width, -lo))
        return out
