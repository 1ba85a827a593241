"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration/usage problems exit 2,
I/O problems exit 3, numerical failures exit 4.
"""


class QugrayError(Exception):
    """Base class for all package errors."""


class InvalidDimensionError(QugrayError):
    """Dimension argument out of range (d < 2, bad index, ...)."""


class ContractViolationError(QugrayError):
    """An operator or array does not satisfy the role it was passed as
    (Hermitian, unitary, density, Choi, finite)."""


class InvalidConfigError(QugrayError):
    """Malformed configuration: bad value, unknown key, dimension mismatch."""


class DomainError(QugrayError):
    """Numeric argument outside its documented domain."""


class InvertibilityError(QugrayError):
    """Observable is singular and no shift was supplied."""


class DatasetIOError(QugrayError):
    """Reading or writing datasets/models/results failed."""


class OptimizationFailure(QugrayError):
    """All optimizer restarts diverged; carries the best point found."""

    def __init__(self, message, best_theta=None, best_cost=None):
        super().__init__(message)
        self.best_theta = best_theta
        self.best_cost = best_cost


class TrainingDiverged(QugrayError):
    """Training loss blew up past the abort threshold, or a loss or
    gradient became non-finite."""
