"""Shared exception types.

Modules define their own specific subclasses where useful; the CLI maps
ValidationError (and ValueError and ArithmeticError generally) to exit
status 1 and InternalConsistencyError to exit status 2.
"""


class JMatrixError(Exception):
    """Base class for package-specific failures."""


class ValidationError(JMatrixError, ValueError):
    """A model, operator, or argument violates its documented preconditions."""


class ConvergenceError(JMatrixError, RuntimeError):
    """An iterative scheme hit its cap without meeting its tolerance.

    Keyword arguments record the scheme's last state; each becomes an
    attribute and all are kept together in ``state``.
    """

    def __init__(self, message: str, **state):
        super().__init__(message)
        self.state = state
        self.__dict__.update(state)


class InternalConsistencyError(JMatrixError, RuntimeError):
    """Two independent computations of the same quantity disagree."""
