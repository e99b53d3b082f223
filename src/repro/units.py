"""Light-weight unit helpers.

The library works internally in SI units.  These helpers exist so that user
facing code (examples, package descriptions) can state dimensions in the
units the paper uses (millimetres, micrometres) without magic factors
scattered around, and so that physically impossible inputs fail early
with a clear message.
"""

from .constants import T_ABSOLUTE_ZERO
from .errors import ReproError

MM = 1.0e-3
UM = 1.0e-6


def mm(value):
    """Convert millimetres to metres."""
    return float(value) * MM


def um(value):
    """Convert micrometres to metres."""
    return float(value) * UM


def celsius_to_kelvin(value):
    """Convert a temperature in degrees Celsius to kelvin."""
    return float(value) + 273.15


def kelvin_to_celsius(value):
    """Convert a temperature in kelvin to degrees Celsius."""
    return float(value) - 273.15


def require_positive(name, value):
    """Return ``value`` as ``float``; raise :class:`ReproError` unless > 0."""
    value = float(value)
    if not value > 0.0:
        raise ReproError(f"{name} must be positive, got {value!r}")
    return value


def require_non_negative(name, value):
    """Return ``value`` as ``float``; raise :class:`ReproError` unless >= 0."""
    value = float(value)
    if value < 0.0:
        raise ReproError(f"{name} must be non-negative, got {value!r}")
    return value


def require_temperature(name, value):
    """Return ``value`` as ``float``; raise unless above absolute zero."""
    value = float(value)
    if not value > T_ABSOLUTE_ZERO:
        raise ReproError(
            f"{name} must be a physical temperature above {T_ABSOLUTE_ZERO} K, "
            f"got {value!r}"
        )
    return value
