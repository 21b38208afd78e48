"""Exact integer / rational building blocks.

Everything in this module is exact: values are Python ints or
:class:`fractions.Fraction`.  The invariants of ``Fraction`` (lowest terms,
positive denominator) and its ``str()`` form ("p/q", or "p" when the
denominator is 1) are exactly the serialization used throughout the
package, so no wrapper type is needed.

The helpers here are the arithmetic primitives the rest of the package leans
on in hot loops:

* ``factorial`` — memoized exact k!,
* ``pochhammer`` — rising factorial (x)_k = x(x+1)...(x+k-1) of an integer x,
  the product of its k factors,
* ``_power_sums`` — the one table of power sums S_r(i) = sum_{j<=i} j^(-r),
  kept in integers as L^r S_r(i) with L = lcm(1..top), for the life of the
  process, each row r built only once a caller reads it; the local
  expansions, the zeta tails, the head of zeta(s) and ``harmonic`` all
  read it,
* ``harmonic`` — generalized harmonic numbers S_a(n) = sum_{i=1..n} i^(-a),
  one table entry over L^a, memoized.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from functools import cache

from .errors import checked

__all__ = [
    "factorial",
    "pochhammer",
    "harmonic",
]

# ---------------------------------------------------------------------------
# factorial
# ---------------------------------------------------------------------------

_FACTORIALS: list[int] = [1]


def factorial(k: int) -> int:
    """Exact k!, memoized, for an int k >= 0."""
    return _factorials(checked(k, "k", 0))[k]


def _factorials(k: int) -> list[int]:
    """The memoized list [0!, 1!, ...], at least k+1 long; read-only."""
    cache = _FACTORIALS
    if k >= len(cache):
        value = cache[-1]
        for i in range(len(cache), k + 1):
            value *= i
            cache.append(value)
    return cache


# ---------------------------------------------------------------------------
# rising factorial
# ---------------------------------------------------------------------------


def pochhammer(x: int, k: int) -> int:
    """Rising factorial (x)_k = x (x+1) ... (x+k-1), with (x)_0 = 1, for an
    int ``x`` (every caller's base is an integer) and an int ``k`` >= 0: one
    product, 0 when the factors cross 0 (x <= 0 < x + k)."""
    checked(x, "x")
    return math.prod(range(x, x + checked(k, "k", 0)))


# ---------------------------------------------------------------------------
# generalized harmonic numbers
# ---------------------------------------------------------------------------


def harmonic(order: int, upper: int) -> Fraction:
    """Generalized harmonic number S_order(upper) = sum_{i=1}^{upper} i^(-order),
    for ints ``order >= 1`` and ``upper >= 0`` (S_a(0) = 0): the power-sum
    row entry L^order S_order(upper) of top ``upper`` over L^order, memoized."""
    return _harmonic(checked(order, "order", 1), checked(upper, "upper", 0))


@cache
def _harmonic(order: int, upper: int) -> Fraction:
    scale, rows = _power_sums(upper, (order,))
    return Fraction(rows[order][upper], scale ** order)


# ---------------------------------------------------------------------------
# integer power-sum rows
# ---------------------------------------------------------------------------

# {top: (L, rows)}, every top read; tops with one L share its rows
_POWER_SUMS: dict[int, tuple[int, dict[int, list[int]]]] = {}


def _power_sums(top: int, orders: Iterable[int]) -> tuple[int, dict[int, list[int]]]:
    """(L, rows): L = lcm(1..top) and rows[r][i] = L^r S_r(i), an integer
    (i^r divides L^r), for each r >= 1 of ``orders`` and 0 <= i <= top;
    read-only.

    L grows only at prime powers, so a new top takes the table of a kept top
    with the same L if there is one, and builds one otherwise.  A row is
    built when an order first asks for it and extended as tops grow, so a
    table holds only the rows its callers read.  Every table is kept.
    """
    entry = _POWER_SUMS.get(top)
    if entry is None:
        scale = math.lcm(*range(1, top + 1))
        entry = _POWER_SUMS[top] = next(
            (kept for kept in _POWER_SUMS.values() if kept[0] == scale), (scale, {}))
    scale, rows = entry
    for r in orders:
        row = rows.setdefault(r, [0])
        if len(row) <= top:
            unit, total = scale ** r, row[-1]
            for i in range(len(row), top + 1):
                total += unit // i ** r
                row.append(total)
    return entry
