"""Exception hierarchy shared across the package."""

from __future__ import annotations

__all__ = [
    "MeandricError",
    "InvalidMatchingError",
    "InvalidShapeError",
    "WeakShapeError",
    "CapExceededError",
    "FormulaMismatchError",
    "ShapeInvariantError",
    "OracleInvariantError",
]


class MeandricError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatchingError(MeandricError, ValueError):
    """Pairing is not a non-crossing perfect matching."""


class InvalidShapeError(MeandricError, ValueError):
    """Loop data violates a shape invariant.

    The message starts with the name of the violated invariant
    (``odd-gap``, ``crossing``, ``connectivity``, ``support``,
    ``matching``) so callers can surface a precise diagnostic.
    """


class WeakShapeError(MeandricError, ValueError):
    """A closed-form result that needs non-overlapping copies was
    requested of a weak shape at an order (r >= 2) where copies overlap."""


class CapExceededError(MeandricError, ValueError):
    """Requested problem size exceeds the configured safety cap.

    ``override`` names the keyword argument that raises the cap, or is
    None when the size is beyond what any setting allows; the message then
    ends with how to pass it."""

    def __init__(self, reason: str, override: str | None = None) -> None:
        super().__init__(reason if override is None else f"{reason}; pass {override} to override")
        self.reason = reason
        self.override = override


class FormulaMismatchError(MeandricError):
    """Enumeration and closed form disagree where they must agree exactly."""


class ShapeInvariantError(MeandricError):
    """The placement constants computed for a valid shape violate a bound
    they hold by construction."""


class OracleInvariantError(MeandricError):
    """The enumeration oracle's exact counts violate an invariant they
    hold by construction (nonnegative, summing to ``catalan(n)**2``)."""
