"""Exact integer / rational building blocks.

Everything in this module is exact: values are Python ints or
:class:`fractions.Fraction`.  The invariants of ``Fraction`` (lowest terms,
positive denominator) and its ``str()`` form ("p/q", or "p" when the
denominator is 1) are exactly the serialization used throughout the
package, so no wrapper type is needed.

The helpers here are the arithmetic primitives the rest of the package leans
on in hot loops:

* ``factorial`` — memoized exact k!; ``binomial`` is ``math.comb`` itself,
* ``pochhammer`` — rising factorial (x)_k = x(x+1)...(x+k-1) of an integer x,
* ``harmonic`` — generalized harmonic numbers S_a(n) = sum_{i=1..n} i^(-a),
  cached per order so S_a(n) and S_a(n-1) share work,
* ``_power_sums`` — the same sums in integers, L^r S_r(i) with
  L = lcm(1..top), in tables kept for the life of the process that the
  local expansions and the zeta tails share.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError

__all__ = [
    "factorial",
    "binomial",
    "pochhammer",
    "harmonic",
]

# ---------------------------------------------------------------------------
# factorial / binomial
# ---------------------------------------------------------------------------

_FACTORIALS: list[int] = [1]


def factorial(k: int) -> int:
    """Exact k!, memoized.

    Raises ValueError for k < 0.
    """
    if k < 0:
        raise ValueError(f"factorial undefined for negative k = {k}")
    return _factorials(k)[k]


def _factorials(k: int) -> list[int]:
    """The memoized list [0!, 1!, ...], at least k+1 long; read-only."""
    cache = _FACTORIALS
    if k >= len(cache):
        value = cache[-1]
        for i in range(len(cache), k + 1):
            value *= i
            cache.append(value)
    return cache


# Exact C(n, k): ValueError for n < 0 or k < 0, 0 for k > n.
binomial = math.comb


# ---------------------------------------------------------------------------
# rising factorial
# ---------------------------------------------------------------------------


def pochhammer(x: int, k: int) -> int:
    """Rising factorial (x)_k = x (x+1) ... (x+k-1), with (x)_0 = 1, for an
    integer ``x`` (DomainError otherwise: every caller's base is an integer)
    and a nonnegative integer ``k`` (ValueError otherwise)."""
    if k < 0:
        raise ValueError(f"pochhammer requires k >= 0, got k = {k}")
    if not isinstance(x, int):
        raise DomainError(f"pochhammer requires an integer base, got x = {x!r}")
    if k == 0:
        return 1
    if x >= 1:
        # (x)_k = (x+k-1)! / (x-1)!
        return factorial(x + k - 1) // factorial(x - 1)
    if x + k <= 0:
        # the factor 0 appears iff x <= 0 < x + k
        value = 1
        for i in range(k):
            value *= x + i
        return value
    return 0


# ---------------------------------------------------------------------------
# generalized harmonic numbers
# ---------------------------------------------------------------------------


# per-order list of partial sums: _HARMONIC[a][n] == S_a(n), with S_a(0) = 0
_HARMONIC: dict[int, list[Fraction]] = {}


def harmonic(order: int, upper: int) -> Fraction:
    """Generalized harmonic number S_order(upper) = sum_{i=1}^{upper} i^(-order).

    ``order >= 1`` and ``upper >= 0`` (ValueError otherwise); S_a(0) = 0.
    Cached per order as a growing list of partial sums.
    """
    if order < 1:
        raise ValueError(f"harmonic requires order >= 1, got {order}")
    if upper < 0:
        raise ValueError(f"harmonic requires upper >= 0, got {upper}")
    sums = _HARMONIC.setdefault(order, [Fraction(0)])
    if upper >= len(sums):
        value = sums[-1]
        for i in range(len(sums), upper + 1):
            value += Fraction(1, i**order)
            sums.append(value)
    return sums[upper]


# ---------------------------------------------------------------------------
# integer power-sum rows
# ---------------------------------------------------------------------------

# {top: (L, rows)}, every top read; tops with one L share its rows
_POWER_SUMS: dict[int, tuple[int, list[list[int]]]] = {}


def _power_sums(top: int, count: int) -> tuple[int, list[list[int]]]:
    """(L, rows): L = lcm(1..top) and rows[r][i] = L^r S_r(i), an integer
    (i^r divides L^r), for 1 <= r <= count and 0 <= i <= top; read-only.

    L grows only at prime powers, so a new top takes the table of a kept top
    with the same L if there is one, and builds one otherwise.  Rows are
    built on first need and extended as tops grow.  Every table is kept.
    """
    entry = _POWER_SUMS.get(top)
    if entry is None:
        scale = math.lcm(*range(1, top + 1))
        entry = _POWER_SUMS[top] = next(
            (kept for kept in _POWER_SUMS.values() if kept[0] == scale), (scale, [[]]))
    scale, rows = entry
    for r in range(1, count + 1):
        if r == len(rows):
            rows.append([0])
        row = rows[r]
        if len(row) <= top:
            unit, total = scale ** r, row[-1]
            for i in range(len(row), top + 1):
                total += unit // i ** r
                row.append(total)
    return entry
