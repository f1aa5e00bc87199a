"""Exception hierarchy of the lab, and the two checks of every number and count handed in."""

import cmath
import numbers


class LabError(Exception):
    """Base class for all errors raised by birlab."""


class AllZero(LabError):
    """Every homogeneous coordinate is numerically zero."""


class ChartSingular(LabError):
    """The requested affine chart is singular at this point."""


class IndeterminacyProximity(LabError):
    """A point is numerically on an indeterminacy set.

    ``step`` is the orbit index at which the failure occurred (0 for a
    single evaluation).
    """

    def __init__(self, message, step=0):
        super().__init__(message)
        self.step = step


class DimensionMismatch(LabError):
    """Operation only defined for the plane (k = 2)."""


class InvalidParam(LabError):
    """A constructor or operation received an out-of-range parameter."""


class NonConvergence(LabError):
    """An iterative computation resolved neither escape nor boundedness."""


class DegenerateCloud(LabError):
    """Importance weights collapsed; the cloud cannot support estimation."""


class InsufficientSignal(LabError):
    """Too few series entries above the noise floor to fit a rate."""


class ShiftCalibrationError(LabError):
    """A quasi-potential value violated the calibrated domain condition."""


class ConfigInvalid(LabError):
    """An experiment config failed schema validation."""


def number(value, name: str, kind):
    """``kind(value)`` (``float`` or ``complex``) for a finite number in the float range;
    a bool, a string, a list, NaN, inf or an integer past the float range raises
    ``InvalidParam`` naming ``name``."""
    accepts = numbers.Real if kind is float else numbers.Complex
    if isinstance(value, bool) or not isinstance(value, accepts):
        raise InvalidParam(f"{name} must be a {accepts.__name__.lower()} number, not {value!r}")
    try:
        value = kind(value)
    except OverflowError as exc:  # an integer past the float range
        raise InvalidParam(f"{name} must lie in the float range") from exc
    if not cmath.isfinite(value):
        raise InvalidParam(f"{name} must be finite, not {value!r}")
    return value


def count(value, name: str, least: int = 0) -> int:
    """``int(value)`` for an integral non-bool >= ``least``, else ``InvalidParam`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParam(f"{name} must be an integer, not {value!r}")
    if value < least:
        raise InvalidParam(f"{name} must be >= {least}, not {value}")
    return int(value)
