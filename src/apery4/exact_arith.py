"""Exact integer / rational building blocks.

Everything in this module is exact: values are Python ints or
:class:`fractions.Fraction`.  The invariants of ``Fraction`` (lowest terms,
positive denominator) and its ``str()`` form ("p/q", or "p" when the
denominator is 1) are exactly the serialization used throughout the
package, so no wrapper type is needed.

The helpers here are the arithmetic primitives the rest of the package leans
on in hot loops:

* ``factorial`` / ``binomial`` — memoized exact integers,
* ``pochhammer`` — rising factorial (x)_k = x(x+1)...(x+k-1),
* ``harmonic`` — generalized harmonic numbers S_a(n) = sum_{i=1..n} i^(-a),
  cached per order so S_a(n) and S_a(n-1) share work.
"""

from __future__ import annotations

import math
from fractions import Fraction

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
    cache = _FACTORIALS
    if k >= len(cache):
        value = cache[-1]
        for i in range(len(cache), k + 1):
            value *= i
            cache.append(value)
    return cache[k]


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k).

    Returns 0 when k < 0 or k > n; raises ValueError when n < 0 (the
    negative-upper-index extension is never needed here and silently
    extending it would mask call-site bugs).
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n = {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# rising factorial
# ---------------------------------------------------------------------------


def pochhammer(x: Fraction | int, k: int) -> Fraction | int:
    """Rising factorial (x)_k = x (x+1) ... (x+k-1), with (x)_0 = 1.

    ``k`` must be a nonnegative integer (ValueError otherwise).  Integer
    ``x`` takes an exact factorial-quotient fast path; rational ``x``
    falls back to the defining product.
    """
    if k < 0:
        raise ValueError(f"pochhammer requires k >= 0, got k = {k}")
    if k == 0:
        return 1
    if isinstance(x, Fraction):
        if x.denominator == 1:
            x = int(x)
        else:
            value = x
            for i in range(1, k):
                value *= x + i
            return value
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
