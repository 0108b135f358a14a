"""Dense kernels for small blocks, batched over leading axes.

The blocks in this problem family are tiny (state dimensions in the single
digits), so the kernels are unblocked textbook algorithms whose Python loops
run over the entries of one block while numpy runs over the batch: a single
matrix is a batch of none. All structure exploitation happens at the block
level.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NotPositiveDefiniteError

# Relative pivot threshold for declaring a matrix not positive definite.
# Kept tight on purpose: the assembled operators are SPD in exact
# arithmetic, so a failure here indicates a bug upstream and a loose
# threshold would mask it.
PIVOT_RTOL = 1e-14

SYMMETRY_RTOL = 1e-12


def transposed(m):
    """Transpose of every matrix in a batch."""
    return m.swapaxes(-1, -2)


def dense_cholesky(m):
    """Lower-triangular L with L @ L.T == m, for symmetric positive definite m
    or a batch of them.

    Unblocked column algorithm. Raises NotPositiveDefiniteError when a pivot
    is not above PIVOT_RTOL times the largest diagonal entry of its matrix,
    which includes every non-finite pivot. Raises DimensionMismatchError
    unless m is square and every matrix is symmetric to SYMMETRY_RTOL times
    max(1, its largest entry); a NaN entry is left to the pivot check.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatchError(f"expected square matrices, got shape {m.shape}")
    scale = np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1), keepdims=True, initial=0.0))
    with np.errstate(invalid="ignore"):
        if np.any(np.abs(m - transposed(m)) > SYMMETRY_RTOL * scale):
            raise DimensionMismatchError("matrix is not symmetric within tolerance")
    n = m.shape[-1]
    lower = np.zeros_like(m)
    if n == 0:
        return lower
    tol = PIVOT_RTOL * np.max(np.diagonal(m, axis1=-2, axis2=-1), axis=-1)
    for j in range(n):
        row = lower[..., j, :j]
        pivot = m[..., j, j] - np.einsum("...k,...k->...", row, row)
        bad = ~(pivot > tol)
        if np.any(bad):
            at = np.unravel_index(np.argmax(bad), np.shape(bad))
            where = f" of matrix {tuple(int(a) for a in at)}" if at else ""
            raise NotPositiveDefiniteError(
                f"pivot {pivot[at]:.3e} at index {j}{where} (threshold {tol[at]:.3e})"
            )
        ljj = np.sqrt(pivot)
        lower[..., j, j] = ljj
        lower[..., j + 1 :, j] = (
            m[..., j + 1 :, j] - np.einsum("...rk,...k->...r", lower[..., j + 1 :, :j], row)
        ) / ljj[..., None]
    return lower


def lower_triangular_inverse(lower):
    """Invert lower-triangular matrices by forward substitution."""
    lower = np.asarray(lower, dtype=float)
    inv = np.zeros_like(lower)
    for i in range(lower.shape[-1]):
        row = -np.einsum("...k,...kc->...c", lower[..., i, :i], inv[..., :i, :])
        row[..., i] += 1.0
        inv[..., i, :] = row / lower[..., i, i, None]
    return inv


def cholesky_inverse(lower):
    """Inverse of SPD matrices from their Cholesky factors; exactly symmetric."""
    linv = lower_triangular_inverse(lower)
    inv = transposed(linv) @ linv
    return 0.5 * (inv + transposed(inv))


def spd_inverse(m):
    """Inverse of small SPD matrices via their Cholesky factors; exactly symmetric."""
    return cholesky_inverse(dense_cholesky(m))


class BlockTridiagCholesky:
    """Cholesky factorization of a batch of SPD block tri-diagonal matrices.

    ``diag[r]`` holds the diagonal blocks of block row r and ``sub[r]`` the
    blocks coupling block row r to block row r - 1 (``sub[0]`` is ignored);
    the axes between the block row and the two block axes are the batch.
    Factoring takes one batched step per block row and stores, per row, the
    inverse of the diagonal Cholesky factor and the scaled coupling, so each
    solve is a forward and a backward sweep of batched block products.
    """

    def __init__(self, diag, sub):
        rows, q = diag.shape[0], diag.shape[-1]
        self.shape = diag.shape[:-1]
        batch = int(np.prod(diag.shape[1:-2]))
        self.linv = np.empty_like(diag)
        self.coupling = np.zeros_like(diag)
        for r in range(rows):
            block = diag[r]
            if r:
                self.coupling[r] = sub[r] @ transposed(self.linv[r - 1])
                block = block - self.coupling[r] @ transposed(self.coupling[r])
                block = 0.5 * (block + transposed(block))
            self.linv[r] = lower_triangular_inverse(dense_cholesky(block))
        self.factor_flops = batch * (rows * q**3 / 3.0 + (rows - 1) * 2.0 * q**3)
        self.solve_flops = batch * (rows * 2 * q * q + (rows - 1) * 2 * q * q)

    def solve(self, b):
        """Solve for one or many right-hand sides, ordered like ``diag``'s
        leading axes and one block row of entries: (dim,) or (dim, k)."""
        b = np.asarray(b, dtype=float)
        dim = int(np.prod(self.shape))
        if b.ndim not in (1, 2) or b.shape[0] != dim:
            raise DimensionMismatchError(
                f"right-hand side has shape {b.shape}, factor expects {dim} rows"
            )
        return self.sweep(b.reshape(self.shape + (-1,)).copy()).reshape(b.shape)

    def sweep(self, work):
        """Solve in place for right-hand sides ``work``, ``shape + (k,)``."""
        rows = self.shape[0]
        for r in range(rows):
            if r:
                work[r] -= self.coupling[r] @ work[r - 1]
            work[r] = self.linv[r] @ work[r]
        for r in range(rows - 1, -1, -1):
            if r + 1 < rows:
                work[r] -= transposed(self.coupling[r + 1]) @ work[r + 1]
            work[r] = transposed(self.linv[r]) @ work[r]
        return work
