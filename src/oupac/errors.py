"""Exception hierarchy.

``ConfigError``, ``InvalidRangeError``, ``InvalidSpecError``,
``DimensionMismatchError`` and ``TooFewSamplesError`` (a sample count
or burn-in the caller chose) signal bad user input (CLI exit code 2);
every other subclass of :class:`OupacError` signals a numerical or
precondition failure inside the library (CLI exit code 3).

Every argument check goes through three helpers, so a wrong-typed or
non-finite argument raises an :class:`OupacError`: :func:`_integer` (a
Python or numpy integer, not a bool, with a lower bound), :func:`_real` (a
finite real, not a bool) and :func:`_typed` (an instance of a given type).
"""

import math
import numbers
import operator


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


def _integer(value, name: str, least: int | None = 1,
             error: type[OupacError] = InvalidRangeError) -> int:
    """``value`` as an int, if ``operator.index`` takes it (a Python or numpy
    integer; not a float) and it is not a bool, and it is at least ``least``
    (no bound if None); else raise ``error``."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is not None and (least is None or number >= least):
        return number
    kind = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}
    raise error(f"{name} must be {kind.get(least, f'an integer >= {least}')}, "
                f"got {_shown(value)}")


def _real(value, name: str, error: type[OupacError] = InvalidRangeError) -> float:
    """``value`` as a float, if it is a finite real number (not a bool); else
    raise ``error``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond float64
            number = math.inf
        if math.isfinite(number):
            return number
    raise error(f"{name} must be a finite real number, got {_shown(value)}")


def _shown(value) -> str:
    """``repr(value)`` for a message, with an int of more than 256 bits, which
    Python may refuse to print (over 4300 digits), named by its bit length,
    also as an entry of a list or tuple."""
    if type(value) is int and abs(value).bit_length() > 256:
        return f"{'a negative' if value < 0 else 'an'} integer of {abs(value).bit_length()} bits"
    if type(value) is list:
        return f"[{', '.join(map(_shown, value))}]"
    if type(value) is tuple:
        return f"({', '.join(map(_shown, value))}{',' if len(value) == 1 else ''})"
    return repr(value)


def _typed(value, cls: type, name: str):
    """``value``, if it is a ``cls``; else raise :class:`InvalidRangeError`."""
    if not isinstance(value, cls):
        raise InvalidRangeError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value
