"""Exception types shared across the package."""


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


class BreakdownError(GridLQError):
    """Conjugate gradient hit non-positive curvature; operator or
    preconditioner is not positive definite."""


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
