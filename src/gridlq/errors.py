"""Exception types shared across the package, and the dense dimension cap
that raises one of them."""

# cap on the dimension of every dense view, oracle and diagnostic: their
# memory grows quadratically and their cost cubically
DENSE_GUARD = 2000


class GridLQError(Exception):
    """Base class for all gridlq errors."""


class InvalidProblemError(GridLQError, ValueError):
    """A problem or problem document is malformed or violates an invariant.

    ``messages`` lists every violation found.
    """

    def __init__(self, message, messages=()):
        super().__init__(message)
        self.messages = list(messages) or [message]


class NotPositiveDefiniteError(GridLQError):
    """A matrix assumed symmetric positive definite produced a bad pivot.

    The operators assembled by this package are positive definite by
    construction, so seeing this usually means the input problem violates
    its cost-weight assumptions or an assembly step has a bug.
    """


class DimensionMismatchError(GridLQError):
    """Operand shapes do not conform."""


class DimensionGuardError(GridLQError):
    """A dense diagnostic was requested above its dimension cap."""


def guard(dim, max_dim):
    """Raise DimensionGuardError when a dense computation of dimension dim
    exceeds the cap max_dim."""
    if dim > max_dim:
        raise DimensionGuardError(
            f"dense computation of dimension {dim} exceeds cap {max_dim}"
        )


class BreakdownError(GridLQError):
    """Conjugate gradient hit non-positive curvature or preconditioned
    residual product; operator or preconditioner is not positive definite,
    or the product underflowed."""


class MaxIterationsExceeded(GridLQError):
    """An iterative solver ran out of iterations.

    Carries the last iterate so callers can inspect or reuse it. This
    signals slow or absent convergence, not a corrupted state.
    """

    def __init__(self, message, iterate=None, iterations=None, report=None):
        super().__init__(message)
        self.iterate = iterate
        self.iterations = iterations
        self.report = report


class DivergenceError(MaxIterationsExceeded):
    """An iterative solver's residual became non-finite or grew far beyond
    its initial value; carries the last iterate like its base class."""
