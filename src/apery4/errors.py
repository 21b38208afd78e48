"""Exception types shared across the package, and its one argument checker.

Every exported error derives from :class:`Apery4Error` so callers can catch
the whole family at once, and from a fitting builtin (ValueError /
ArithmeticError) so untyped callers still get sensible behaviour.

The contract: every public function, method and value type refuses a bad
argument before any work with an :class:`Apery4Error`, never a bare builtin
error.  An argument of the wrong kind (a float or a string where an ``int``
is needed, a ``bool`` anywhere, a tuple where a ``FormParameters`` is
needed) is a :class:`DomainError`, an ``int`` outside the range a formula
holds on a :class:`RangeError`.  :func:`checked` makes every such check;
private helpers trust their callers.
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


def checked(value, name: str, low=None, high=None, kind: type = int):
    """``value`` itself, if it is a ``kind`` (a bool never is) and lies in
    [``low``, ``high``], an end left as None open; DomainError naming ``name``
    for any other kind, RangeError outside the range."""
    if type(value) is not kind and (isinstance(value, bool) or not isinstance(value, kind)):
        raise DomainError(f"need {name} of type {kind.__name__}, got {value!r}")
    if low is not None and value < low:
        raise RangeError(f"need {name} >= {low}, got {value}")
    if high is not None and value > high:
        raise RangeError(f"need {name} <= {high}, got {value}")
    return value
