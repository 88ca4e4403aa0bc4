"""Exception types shared across the package, and the checks that refuse
a malformed number with one."""

import math
import numbers


class DomainError(ValueError):
    """An input lies outside the mathematical domain of the operation."""


class AccuracyError(RuntimeError):
    """A numerical routine could not certify the requested tolerance.

    Carries the best available estimate so callers can still inspect it.
    """

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


class CapabilityError(RuntimeError):
    """The request exceeds a configured structural limit (order cap, node budget)."""


class ConditioningError(RuntimeError):
    """An intermediate linear problem is too ill-conditioned to trust."""


def require_finite(name: str, value) -> None:
    """Raise DomainError unless value is a finite real number.

    Strings, None and bools are refused, as are nan and inf.  The bounds
    are compared, not passed to math.isfinite, so any int is accepted.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not -math.inf < value < math.inf):
        raise DomainError(f"{name} must be finite and real, got {value!r}")


def finite_float(name: str, value) -> float:
    """value as a float, refusing with DomainError what require_finite
    refuses and an int beyond the range of floats."""
    require_finite(name, value)
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} must be finite and real, got an int "
                          f"beyond float range") from None
