"""Exceptions shared across the package, and the count and size checks that
raise them."""

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


#: Largest allocation that a size given by the caller may ask for.
BYTE_LIMIT = 1 << 30


def check_bytes(what: str, nbytes: int) -> None:
    """Raise MemoryGuardError, naming ``what``, when ``nbytes`` exceeds BYTE_LIMIT.

    Guards call it with their estimate before they allocate anything.
    """
    if nbytes > BYTE_LIMIT:
        raise MemoryGuardError(
            f"{what} needs {nbytes / 2**30:.1f} GiB, over the {BYTE_LIMIT / 2**30:g} GiB limit"
        )
