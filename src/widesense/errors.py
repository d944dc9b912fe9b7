"""Error and warning types shared across the package, and the config checks.

Every config section is a frozen dataclass.  :func:`check_fields` types its
int, float, str and dict fields by their annotations when it is built, and
:func:`from_fields` builds it from a JSON object with exactly its field names.
"""

import dataclasses
import functools
import math
import numbers
import types
import typing


class ParameterError(ValueError):
    """A scalar parameter is outside its admissible range."""


class InvalidSpecError(ParameterError):
    """A signal or configuration object violates its own consistency rules."""


class DimensionError(ValueError):
    """Array shapes do not line up for the requested operation."""


def check_value(owner: str, name: str, value, kind: type) -> None:
    """Raise :class:`InvalidSpecError` unless ``value`` is a ``kind``.

    An int or float kind takes a finite real number; booleans and strings
    are not numbers here, and comparisons with NaN are all false, so range
    checks alone would let it through.  An int kind takes integers only.
    Any other kind takes an instance.
    """
    if kind is not int and kind is not float:
        if not isinstance(value, kind):
            raise InvalidSpecError(f"{owner} {name} must be a {kind.__name__}, got {value!r}")
    elif type(value) is not int:
        # Plain int and float skip the ABC checks, which cost more than the
        # rest of a small config's validation.
        if type(value) is not float and (isinstance(value, bool)
                                         or not isinstance(value, numbers.Real)):
            also = f" ({name} must be an integer)" if kind is int else ""
            raise InvalidSpecError(f"{owner} {name} must be a real number, got {value!r}{also}")
        if not math.isfinite(value):
            raise InvalidSpecError(f"{owner} {name} must be finite, got {value}")
        if kind is int and not isinstance(value, numbers.Integral):
            raise InvalidSpecError(f"{owner} {name} must be an integer, got {value!r}")


@functools.cache
def _schema(cls) -> tuple:
    """The field names of the dataclass ``cls``, those without a default, and
    ``(name, kind, optional)`` for each int, float, str or dict field, where
    ``X | None`` marks an optional one."""
    fields = dataclasses.fields(cls)
    hints = typing.get_type_hints(cls)
    typed = []
    for f in fields:
        options = hints[f.name]
        options = typing.get_args(options) if isinstance(options, types.UnionType) else (options,)
        kinds = [option for option in options if option is not type(None)]
        if len(kinds) == 1 and kinds[0] in (int, float, str, dict):
            typed.append((f.name, kinds[0], len(kinds) < len(options)))
    required = {f.name for f in fields
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING}
    return {f.name for f in fields}, required, tuple(typed)


def check_fields(owner: str, obj) -> None:
    """Apply :func:`check_value` to every typed field of the dataclass
    ``obj``; ``None`` passes for an optional field."""
    for name, kind, optional in _schema(type(obj))[2]:
        value = getattr(obj, name)
        if value is not None or not optional:
            check_value(owner, name, value, kind)


def check_keys(owner: str, raw, known, required=()) -> None:
    """Raise :class:`InvalidSpecError` unless ``raw`` is a JSON object whose
    keys all lie in ``known`` and include every key in ``required``."""
    if not isinstance(raw, dict):
        raise InvalidSpecError(f"{owner} config must be a JSON object, got {raw!r}")
    extra = set(raw) - set(known)
    if extra:
        raise InvalidSpecError(f"unknown {owner} config keys: {sorted(extra)}")
    missing = set(required) - set(raw)
    if missing:
        raise InvalidSpecError(f"missing {owner} config keys: {sorted(missing)}")


def from_fields(cls, owner: str, raw):
    """``cls(**raw)`` once :func:`check_keys` has matched ``raw`` to the
    fields of the dataclass ``cls``."""
    known, required, _typed = _schema(cls)
    check_keys(owner, raw, known, required)
    return cls(**raw)


class CriterionUnsatisfiableWarning(UserWarning):
    """The fixed-confidence halting threshold is non-positive at this testing
    size, so the halting test can never fire no matter how small the residual
    gets.  Raise the testing budget or relax the confidence target."""
