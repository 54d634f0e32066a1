"""Exception hierarchy shared by all modules of the package."""

from __future__ import annotations


class PmcError(Exception):
    """Base class for every error raised by this package."""


class ArityMismatchError(PmcError):
    """A vector's length disagrees with the expected arity."""


class MissingParameterError(PmcError):
    """An assignment or distance map does not cover a required parameter."""


class UnknownParameterError(PmcError):
    """A parameter id does not exist in the model."""


class DomainError(PmcError):
    """A scalar argument lies outside its admissible interval."""


class SimplexViolationError(PmcError):
    """A vector leaves the probability simplex (negative entry or bad sum)."""


class EmptyDestinationError(PmcError):
    """A reachability problem has an empty destination set."""


class IndexOutOfRangeError(PmcError):
    """A state index lies outside 1..n."""


class SingularSystemError(PmcError):
    """The restricted direct solve failed its residual check.

    A NaN entry in the system causes this; otherwise it is an internal error.
    """


class DirectionMismatchError(PmcError):
    """A direction's parameter ids do not match the model's parameters."""


class WeightsNotNormalizedError(PmcError):
    """Direction weights are negative or do not sum to one."""


class NonpositiveDeltaError(PmcError):
    """A perturbation distance that must be positive is zero or negative."""


class BadIndicesError(PmcError):
    """Extremal-perturbation entry indices are invalid or equal."""


class InfeasibleDistanceError(PmcError):
    """No vector on the simplex attains the requested distance."""


class EmptyVectorError(PmcError):
    """An operation received an empty vector where entries are required."""


class ModelSyntaxError(PmcError):
    """A model file is not well-formed JSON."""


class ModelSchemaError(PmcError):
    """A model file is valid JSON but violates the model-file schema."""


class ModelValidationError(PmcError):
    """A parsed model fails semantic validation.

    The individual violations are stored in :attr:`violations`.
    """

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)
