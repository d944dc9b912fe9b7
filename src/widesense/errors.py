"""Error and warning types shared across the package."""

import math


class InvalidSpecError(ValueError):
    """A signal or configuration object violates its own consistency rules."""


class DimensionError(ValueError):
    """Array shapes do not line up for the requested operation."""


class ParameterError(ValueError):
    """A scalar parameter is outside its admissible range."""


def require_finite(owner: str, values: dict) -> None:
    """Raise :class:`ParameterError` for the first NaN or infinite value.

    ``None`` marks an optional value left unset and passes.  Comparisons
    with NaN are all false, so range checks alone would let it through.
    """
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ParameterError(f"{owner} {name} must be finite, got {value}")


class CriterionUnsatisfiableWarning(UserWarning):
    """The fixed-confidence halting threshold is non-positive at this testing
    size, so the halting test can never fire no matter how small the residual
    gets.  Raise the testing budget or relax the confidence target."""
