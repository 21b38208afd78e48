"""Exception types shared across the package.

Every exported error derives from :class:`Apery4Error` so callers can catch
the whole family at once, and from a fitting builtin (ValueError /
ArithmeticError) so untyped callers still get sensible behaviour.
"""

from __future__ import annotations

__all__ = [
    "Apery4Error",
    "RangeError",
    "DomainError",
    "DivergenceError",
    "PoleError",
    "PoleInRangeError",
    "ReconstructionError",
]


class Apery4Error(Exception):
    """Base class for all package-specific errors."""


class RangeError(Apery4Error, ValueError):
    """An integer argument lies outside the range a formula is valid on."""


class DomainError(Apery4Error, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DivergenceError(Apery4Error, ArithmeticError):
    """A requested infinite sum does not converge (e.g. power 1 tails)."""


class PoleError(Apery4Error, ZeroDivisionError):
    """A rational function was evaluated at one of its poles."""


class PoleInRangeError(Apery4Error, ArithmeticError):
    """A tail sum was requested over a range containing a pole."""


class ReconstructionError(Apery4Error, ArithmeticError):
    """A partial-fraction expansion failed to rebuild its input exactly."""
