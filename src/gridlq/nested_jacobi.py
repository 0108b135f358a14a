"""Nested block Jacobi sweeps over the reduced multiplier operator.

One outer sweep refreshes the right-hand side through the stage couplings;
each outer sweep runs a fixed number of inner sweeps whose pair-diagonal
solves are one batched block tri-diagonal solve over every (pair, stage).
Run with a convergence check this is a standalone stationary solver; run
with fixed budgets from a zero start it is a linear, symmetric positive
definite map and serves as the conjugate gradient preconditioner. The
positive definiteness of the induced map needs an even inner budget, which
``apply`` enforces.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionGuardError, MaxIterationsExceeded
from .kkt_assembly import PairSplitting, SchurOperator, build_splitting

MATERIALIZE_GUARD = 2000
# identity columns per apply in ``materialize``; bounds its work arrays
MATERIALIZE_COLUMNS = 256

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

    def _pair_solves(self, rhs):
        pad = self.schur.padding
        out = self.factors[PAIRS].solve(pad.to_pairs(rhs))
        return pad.from_pairs(out, np.ndim(rhs) == 1)

    def inner_sweep(self, rhs, sweeps=None, start=None):
        """Run a fixed number of inner sweeps.

        Each sweep solves every (pair, stage) block against the rhs plus
        the inter-pair couplings of the previous sweep's iterate. The
        default zero start makes the map linear in rhs (its coupling term
        vanishes exactly and is skipped); the standalone solver instead
        warm-starts from the current outer iterate, which is what makes
        its fixed point solve the original system despite the truncated
        inner budget.
        """
        count = self.inner_sweeps if sweeps is None else int(sweeps)
        if count < 1:
            raise ValueError("need at least one inner sweep")
        if start is None:
            theta = self._pair_solves(rhs)
            remaining = count - 1
        else:
            theta = start
            remaining = count
        for _ in range(remaining):
            theta = self._pair_solves(rhs + self.splitting.apply_inner_coupling(theta))
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

        Outer sweeps run until the successive-iterate infinity norm drops
        below tol; the inner budget stays fixed, with inner sweeps
        warm-started from the current outer iterate so the iteration is
        consistent (its fixed point solves the system exactly). Any inner
        budget >= 1 is allowed here. Returns (solution, outer sweep count)
        and raises MaxIterationsExceeded (carrying the last iterate) when
        the budget runs out.
        """
        delta = None
        for s in range(max_outer):
            if delta is None:
                new = self.inner_sweep(rhs)
                prev = np.zeros_like(new)
            else:
                stage_rhs = rhs + self.schur.apply_outer_coupling(delta)
                new = self.inner_sweep(stage_rhs, start=delta)
                prev = delta
            if float(np.max(np.abs(new - prev))) < tol:
                return new, s + 1
            delta = new
        raise MaxIterationsExceeded(
            f"nested Jacobi did not converge within {max_outer} outer sweeps",
            iterate=delta,
            iterations=max_outer,
        )

    def materialize(self, max_dim=MATERIALIZE_GUARD):
        """Dense matrix of the preconditioner map, by applying it to the
        identity, MATERIALIZE_COLUMNS stacked columns at a time. Symmetric
        positive definite for even inner budgets. Diagnostic use only, hence
        the dimension cap."""
        if self.dim > max_dim:
            raise DimensionGuardError(
                f"materializing dimension {self.dim} exceeds cap {max_dim}"
            )
        out = np.empty((self.dim, self.dim))
        for lo in range(0, self.dim, MATERIALIZE_COLUMNS):
            width = min(MATERIALIZE_COLUMNS, self.dim - lo)
            out[:, lo : lo + width] = self.apply(np.eye(self.dim, width, -lo))
        return out
