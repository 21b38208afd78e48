"""Recurrences, closed forms, and companion identities for the form family.

The exact grid values Z(n, m) (see :func:`apery4.apery_forms.left_form`)
satisfy a three-term recurrence *in m* at fixed n with explicit polynomial
coefficients, and the two boundary columns m = 0 and m = 1 admit closed
forms built from partial sums of a central binomial series.  This module
carries those coefficient polynomials and closed forms, the boundary
recurrences that pin the m = 0 column from both ends (a first-order
inhomogeneous combination for the left construction and a second-order
homogeneous one for the right), an alternating binomial-sum identity used
by the telescoping certificates, and a linear-time tabulation of the whole
grid driven by the recurrence alone.

Everything is exact; every check function returns a plain bool after
comparing values componentwise as linear forms in {1, zeta(4)}.  The series
values come in as a mapping {(n, m): value}; this module computes none, and
a mapping that lacks a cell a check reads is a RangeError naming the cell.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import comb

from .errors import RangeError, checked
from .exact_arith import factorial, harmonic, pochhammer
from .zeta_forms import ZetaLinearForm

__all__ = [
    "recurrence_coefficients",
    "recurrence_holds",
    "trailing_coefficient_nonzero",
    "central_sum",
    "closed_form_m0",
    "closed_form_m1",
    "left_boundary_value",
    "left_boundary_check",
    "right_column_coefficients",
    "right_column_check",
    "alternating_binomial_sum",
    "alternating_binomial_closed_form",
    "alternating_binomial_check",
    "recurrence_table",
]

_F = Fraction
_Values = Mapping[tuple[int, int], ZetaLinearForm]       # {(n, m): Z(n, m)}


def _cell(values: _Values, n: int, m: int) -> ZetaLinearForm:
    """Z(n, m) from ``values``, a Mapping; RangeError naming a missing cell."""
    if (n, m) not in checked(values, "values", kind=Mapping):
        raise RangeError(f"need the value of cell (n, m) = ({n}, {m})")
    return values[(n, m)]


# ---------------------------------------------------------------------------
# the three-term recurrence in m
# ---------------------------------------------------------------------------


def recurrence_coefficients(n: int, m: int) -> tuple[int, int, int]:
    """Integer coefficients (a0, a1, a2) of the recurrence in m at fixed n.

    The grid values satisfy a0*Z(n,m) + a1*Z(n,m+1) + a2*Z(n,m+2) = 0 for
    0 <= m <= n-2; the coefficients themselves are defined for all n, m >= 0.
    """
    checked(n, "n", 0)
    checked(m, "m", 0)
    a0 = (2 * n - m) ** 5
    a1 = -(4 * n - 2 * m - 1) * (
        6 * n ** 4 - 24 * n ** 3 * m + 22 * n ** 2 * m ** 2 - 8 * n * m ** 3
        + m ** 4 - 24 * n ** 3 + 30 * n ** 2 * m - 14 * n * m ** 2
        + 2 * m ** 3 + 8 * n ** 2 - 10 * n * m + 2 * m ** 2 - 4 * n + m)
    a2 = -(2 * n - m - 1) ** 3 * (4 * n - m) * (m + 2)
    return a0, a1, a2


def trailing_coefficient_nonzero(n: int, m: int) -> bool:
    """Whether a2 != 0, i.e. the recurrence can be solved for Z(n, m+2).

    In factored form a2 = -(2n-m-1)^3 (4n-m)(m+2), manifestly nonzero for
    0 <= m < n; this predicate lets tests scan that claim directly.
    """
    return recurrence_coefficients(n, m)[2] != 0


def recurrence_holds(values: _Values, n: int, m: int) -> bool:
    """Check the recurrence at one admissible (n, m) on precomputed values.

    Coordinate by coordinate, with Z(n, m+i) = p_i/q_i as the values carry
    them, a0 p0/q0 + a1 p1/q1 + a2 p2/q2 = 0 is decided in integers as
    a0 p0 q1 q2 + a1 p1 q0 q2 + a2 p2 q0 q1 == 0."""
    checked(m, "m", 0, checked(n, "n", 2) - 2)
    forms = [_cell(values, n, m + i) for i in range(3)]
    a0, a1, a2 = recurrence_coefficients(n, m)
    for c0, c1, c2 in zip(*((form.constant, *form.zeta_coefficients) for form in forms)):
        p0, q0 = c0.numerator, c0.denominator
        p1, q1 = c1.numerator, c1.denominator
        p2, q2 = c2.numerator, c2.denominator
        if a0 * p0 * q1 * q2 + a1 * p1 * q0 * q2 + a2 * p2 * q0 * q1:
            return False
    return True


# ---------------------------------------------------------------------------
# closed forms for the boundary columns m = 0 and m = 1
# ---------------------------------------------------------------------------

_central_sums: dict[int, list[Fraction]] = {}


def central_sum(order: int, upper: int) -> Fraction:
    """Partial sum of the central binomial series with odd-power weight.

    central_sum(k, n) = sum_{i=0}^{n} C(4i, 2i) / ((2i+1)^k * C(2i, i)^8).
    """
    partials = _central_sums.setdefault(checked(order, "order", 1), [_F(1)])
    while len(partials) <= checked(upper, "upper", 0):
        i = len(partials)
        term = _F(comb(4 * i, 2 * i), (2 * i + 1) ** order * comb(2 * i, i) ** 8)
        partials.append(partials[-1] + term)
    return partials[upper]


def _weighted_central_combination(n: int) -> Fraction:
    """105 U9 + 955 U8 + 3095 U7 + 2045 U6 - 12140 U5 - 27300 U4 at n."""
    return (105 * central_sum(9, n) + 955 * central_sum(8, n)
            + 3095 * central_sum(7, n) + 2045 * central_sum(6, n)
            - 12140 * central_sum(5, n) - 27300 * central_sum(4, n))


def _quartic_weight(n: int) -> int:
    return 5460 * n ** 4 + 13499 * n ** 3 + 12601 * n ** 2 + 5265 * n + 831


def closed_form_m0(n: int) -> ZetaLinearForm:
    """Closed form for the m = 0 column, exact for all n >= 0."""
    sign = (-1) ** checked(n, "n", 0)
    central = comb(2 * n, n)
    z4 = _F(sign * central ** 4)
    c0 = sign * (
        _weighted_central_combination(n) * central ** 4 / 30720
        + _F((4 * n + 1) * _quartic_weight(n) * comb(4 * n, 2 * n),
             768 * (2 * n + 1) ** 9 * central ** 4))
    return ZetaLinearForm.from_constant(c0) + ZetaLinearForm.zeta_term(4, z4)


def closed_form_m1(n: int) -> ZetaLinearForm:
    """Closed form for the m = 1 column, exact for all n >= 1.

    The printed source formula for this column overshoots the true value by
    a factor -3 (its zeta(4) coefficient contradicts both the pinned initial
    values and the m = 0 column); what is implemented here is the corrected
    form, i.e. the printed one times -1/3, which the test suite verifies
    against the series construction column-wide.
    """
    sign = (-1) ** (checked(n, "n", 1) + 1)
    central = comb(2 * n, n)
    z4 = sign * _F(3 * n, 4) * central ** 4
    p9 = (16 * n ** 9 + 116544 * n ** 8 + 398115 * n ** 7 + 587145 * n ** 6
          + 490329 * n ** 5 + 255555 * n ** 4 + 86016 * n ** 3
          + 18432 * n ** 2 + 2304 * n + 128)
    c0 = (sign * n * _weighted_central_combination(n) * central ** 4 / 40960
          - sign * _F(comb(4 * n, 2 * n) * p9,
                      3072 * n ** 3 * (2 * n + 1) ** 9 * central ** 4))
    return ZetaLinearForm.from_constant(c0) + ZetaLinearForm.zeta_term(4, z4)


# ---------------------------------------------------------------------------
# boundary recurrences for the m = 0 column
# ---------------------------------------------------------------------------


def left_boundary_value(n: int) -> Fraction:
    """The exact rational value of -16(2n+1)^4 Z(n,0) - (n+1)^4 Z(n+1,0).

    In this combination the zeta(4) parts cancel identically, leaving
    -(−1)^n n!^8 (1+2n)_{2n} (1+4n) q(n) / (48 ((2n+1)!)^5) with q the
    quartic weight of the closed forms.
    """
    return -_F((-1) ** checked(n, "n", 0) * factorial(n) ** 8 * pochhammer(1 + 2 * n, 2 * n)
               * (1 + 4 * n) * _quartic_weight(n),
               48 * factorial(2 * n + 1) ** 5)


def left_boundary_check(values: _Values, n: int) -> bool:
    """Check the left boundary combination at n on the values of (n, 0), (n+1, 0)."""
    expected = ZetaLinearForm.from_constant(left_boundary_value(n))
    return (-16 * (2 * n + 1) ** 4 * _cell(values, n, 0)
            - (n + 1) ** 4 * _cell(values, n + 1, 0)) == expected


def right_column_coefficients(n: int) -> tuple[int, int, int]:
    """Coefficients (L0, L1, L2) of the homogeneous recurrence in n at m = 0.

    The right-hand construction satisfies
    L0(n) Z(n,0) + L1(n) Z(n+1,0) + L2(n) Z(n+2,0) = 0 for all n >= 0, with
    L0 and L2 in factored form (both manifestly nonzero for n >= 0) and L1 a
    dense degree-13 polynomial.
    """
    l0 = (16 * (checked(n, "n", 0) + 1) ** 3 * (2 * n + 1) ** 4 * (4 * n + 3) * (4 * n + 5)
          * (5460 * n ** 4 + 35339 * n ** 3 + 85858 * n ** 2
             + 92804 * n + 37656))
    l1 = (357913920 * n ** 13 + 5716680688 * n ** 12 + 41762423804 * n ** 11
          + 184637211081 * n ** 10 + 550778114541 * n ** 9
          + 1169740743051 * n ** 8 + 1818232366245 * n ** 7
          + 2092705983417 * n ** 6 + 1782121652067 * n ** 5
          + 1108272850929 * n ** 4 + 488951050619 * n ** 3
          + 144869028586 * n ** 2 + 25833166356 * n + 2094206184)
    l2 = (8 * (n + 2) ** 4 * (2 * n + 3) ** 5 * _quartic_weight(n))
    return l0, l1, l2


def right_column_check(values: _Values, n: int) -> bool:
    """Check the right-column recurrence at n on the values of (n..n+2, 0)."""
    l0, l1, l2 = right_column_coefficients(n)
    combo = (l0 * _cell(values, n, 0) + l1 * _cell(values, n + 1, 0)
             + l2 * _cell(values, n + 2, 0))
    return combo.is_zero


# ---------------------------------------------------------------------------
# alternating binomial-sum identity
# ---------------------------------------------------------------------------


def alternating_binomial_sum(n: int, m: int) -> Fraction:
    """sum_{i=1}^{n-3} (-1)^i / i * C(n, i) * C(2n-m+i, n), directly, for
    n >= 3 and 0 <= m <= n-2."""
    checked(m, "m", 0, checked(n, "n", 3) - 2)
    total = _F(0)
    for i in range(1, n - 2):
        total += _F((-1) ** i * comb(n, i) * comb(2 * n - m + i, n), i)
    return total


def alternating_binomial_closed_form(n: int, m: int) -> Fraction:
    """Closed form of :func:`alternating_binomial_sum` on the same domain."""
    checked(m, "m", 0, checked(n, "n", 3) - 2)
    poly = (-4 * m - 4 * m ** 2 + 12 * n + 30 * m * n + 6 * m ** 2 * n
            - 54 * n ** 2 - 43 * m * n ** 2 - 7 * m ** 2 * n ** 2
            + 70 * n ** 3 + 40 * m * n ** 3 + 4 * m ** 2 * n ** 3
            - 54 * n ** 4 - 19 * m * n ** 4 - m ** 2 * n ** 4
            + 22 * n ** 5 + 4 * m * n ** 5 - 4 * n ** 6)
    return (_F((-1) ** n * comb(3 * n - m - 2, n - 2) * poly,
               2 * (n - 2) * (n - 1) ** 2 * n ** 2)
            - comb(2 * n - m, n) * (harmonic(1, 2 * n - m)
                                    + harmonic(1, n) - harmonic(1, n - m)))


def alternating_binomial_check(n: int, m: int) -> bool:
    """Direct sum versus closed form at one admissible (n, m)."""
    return alternating_binomial_sum(n, m) == alternating_binomial_closed_form(n, m)


# ---------------------------------------------------------------------------
# linear-time tabulation of the grid from the recurrence
# ---------------------------------------------------------------------------


def recurrence_table(n_max: int) -> dict[tuple[int, int], ZetaLinearForm]:
    """Tabulate Z(n, m) for 0 <= m <= n <= n_max without summing any series.

    Each row is seeded by the two boundary closed forms and extended by
    solving the recurrence for Z(n, m+2); the result is an independent route
    to the whole grid that tests compare against the series construction.
    """
    table: dict[tuple[int, int], ZetaLinearForm] = {}
    for n in range(checked(n_max, "n_max", 0) + 1):
        table[(n, 0)] = closed_form_m0(n)
        if n >= 1:
            table[(n, 1)] = closed_form_m1(n)
        for m in range(0, n - 1):
            a0, a1, a2 = recurrence_coefficients(n, m)
            table[(n, m + 2)] = _F(-1, a2) * (a0 * table[(n, m)]
                                              + a1 * table[(n, m + 1)])
    return table
