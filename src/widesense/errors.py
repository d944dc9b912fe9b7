"""Error and warning types shared across the package."""

import math
import numbers


class InvalidSpecError(ValueError):
    """A signal or configuration object violates its own consistency rules."""


class DimensionError(ValueError):
    """Array shapes do not line up for the requested operation."""


class ParameterError(ValueError):
    """A scalar parameter is outside its admissible range."""


def _is_real(value) -> bool:
    # Plain int and float first: the ABC check costs more than the rest of
    # a small config's validation.
    if type(value) in (int, float):
        return True
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def _is_integer(value) -> bool:
    if type(value) is int:
        return True
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def require_finite(owner: str, values: dict) -> None:
    """Raise :class:`ParameterError` for the first value that is not a
    finite real number.

    ``None`` marks an optional value left unset and passes.  Booleans and
    strings are not numbers here.  Comparisons with NaN are all false, so
    range checks alone would let it through.
    """
    for name, value in values.items():
        if value is None:
            continue
        if not _is_real(value):
            raise ParameterError(f"{owner} {name} must be a real number, got {value!r}")
        if not math.isfinite(value):
            raise ParameterError(f"{owner} {name} must be finite, got {value}")


def require_integer(owner: str, values: dict) -> None:
    """Raise :class:`ParameterError` for the first value that is not an
    integer (booleans included); ``None`` passes as unset."""
    for name, value in values.items():
        if value is not None and not _is_integer(value):
            raise ParameterError(f"{owner} {name} must be an integer, got {value!r}")


class CriterionUnsatisfiableWarning(UserWarning):
    """The fixed-confidence halting threshold is non-positive at this testing
    size, so the halting test can never fire no matter how small the residual
    gets.  Raise the testing budget or relax the confidence target."""
