"""Exception hierarchy shared across the package."""


class MeandricError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDyckWordError(MeandricError, ValueError):
    """Step sequence is not a balanced nonnegative walk."""


class InvalidMatchingError(MeandricError, ValueError):
    """Pairing is not a non-crossing perfect matching."""


class InvalidShapeError(MeandricError, ValueError):
    """Loop data violates a shape invariant.

    The message starts with the name of the violated invariant
    (``odd-gap``, ``crossing``, ``connectivity``, ``support``,
    ``matching``) so callers can surface a precise diagnostic.
    """


class WeakShapeError(MeandricError, ValueError):
    """A closed-form result valid only for strong shapes was requested
    for a shape whose copies can overlap."""


class CapExceededError(MeandricError, ValueError):
    """Requested problem size exceeds the configured safety cap."""


class FormulaMismatchError(MeandricError):
    """Enumeration and closed form disagree where they must agree exactly."""


class OracleInvariantError(MeandricError):
    """The enumeration oracle's exact counts violate an invariant they
    hold by construction (nonnegative, summing to ``catalan(n)**2``)."""
