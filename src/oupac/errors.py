"""Exception hierarchy.

``ConfigError``, ``InvalidRangeError``, ``InvalidSpecError``,
``DimensionMismatchError`` and ``TooFewSamplesError`` (a sample count
or burn-in the caller chose) signal bad user input (CLI exit code 2);
every other subclass of :class:`OupacError` signals a numerical or
precondition failure inside the library (CLI exit code 3).
"""


class OupacError(Exception):
    """Base class for all errors raised by this package."""


class NotSquareError(OupacError):
    """Matrix input is not square."""


class NotPositiveDefiniteError(OupacError):
    """Matrix fails the (semi-)positive-definiteness check.

    Carries the smallest eigenvalue found so callers can see how far
    from admissible the input was.
    """

    def __init__(self, message: str, smallest_eigenvalue: float | None = None):
        super().__init__(message)
        self.smallest_eigenvalue = smallest_eigenvalue


class DimensionMismatchError(OupacError):
    """Operands have incompatible dimensions."""


class ResidualTooLargeError(OupacError):
    """A solver produced a solution whose residual exceeds tolerance."""


class SpectralRadiusTooLargeError(OupacError):
    """Linear map has spectral radius >= 1; no stationary covariance."""


class InvalidRangeError(OupacError, ValueError):
    """Argument lies outside its admissible range or set of values."""


class TooFewSamplesError(OupacError):
    """Not enough samples/records for the requested estimate."""


class UnstableDynamicsError(OupacError):
    """SGD dynamics fail stability_check; the chain would diverge."""


class SingularDesignError(OupacError):
    """Regression design matrix has a singular Gram matrix."""


class InvalidSpecError(OupacError):
    """Sample-size/confidence specification is out of range."""


class NumericalInconsistencyError(OupacError):
    """A quantity violates an exact mathematical property by more than
    floating-point noise (e.g. a distinctly negative KL divergence)."""


class ConfigError(OupacError):
    """Invalid run configuration (bad/missing/unknown keys or values)."""
