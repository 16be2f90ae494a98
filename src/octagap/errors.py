"""Exceptions shared across the package, and the count check that raises one."""

from numbers import Integral


class OctagapError(Exception):
    """Base class for errors raised by this package."""


class DomainError(OctagapError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """Evaluation was requested at (or too close to) a pole."""


class InsufficientDataError(OctagapError, ValueError):
    """Not enough usable data points for a fit or estimate."""


class SetupError(OctagapError, RuntimeError):
    """A derived configuration (e.g. a covering family) could not be built."""


class MemoryGuardError(OctagapError, ValueError):
    """An enumeration was refused because it would exhaust memory."""


def check_count(name: str, value: int, minimum: int) -> int:
    """``value`` as an int, if it is an integer (not a bool) of at least ``minimum``.

    numpy integers pass: numpy registers them as ``numbers.Integral``.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be at least {minimum}, got {value}")
    return int(value)
