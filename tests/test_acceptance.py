"""Acceptance suite: the package's headline verification claims.

Every criterion below is exact unless it states a tolerance; each test
prints one [PASS]/[FAIL] line (shown in the run summary) and asserts it.
The shared grid of exact form values for 0 <= m <= n <= 20 is computed once
per session through both constructions independently (``grid`` in
``conftest.py``).
"""

from fractions import Fraction

from apery4 import (FormParameters, audit_summands, evaluate_decimal,
                    left_form_numeric, right_form_numeric)
from apery4.recurrence_lab import (alternating_binomial_check, closed_form_m0,
                                   closed_form_m1, left_boundary_check,
                                   recurrence_holds, right_column_check,
                                   right_column_coefficients,
                                   trailing_coefficient_nonzero)
from conftest import GRID_N_MAX

F = Fraction
NUMERIC_CELLS = ((0, 0), (1, 1), (2, 0), (3, 2), (4, 1))

PINNED_VALUES = {
    (0, 0): (F(0), F(1)),
    (1, 0): (F(277, 16), F(-16)),
    (1, 1): (F(-13), F(12)),
    (2, 1): (F(4090247, 1944), F(-1944)),
}


def _side(grid, side):
    """One construction's values {(n, m): form} on the session grid."""
    return {cell: pair[side] for cell, pair in grid.items()}


def _report(criterion: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


def test_criterion_1_identity_on_grid(grid):
    ok = all(lhs == rhs for lhs, rhs in grid.values())
    _report(f"criterion 1: left == right componentwise on all {len(grid)} "
            f"cells with 0 <= m <= n <= {GRID_N_MAX} (exact)", ok)


def test_criterion_2_pinned_initial_values(grid):
    ok = True
    for cell, (c0, z4) in PINNED_VALUES.items():
        lhs, rhs = grid[cell]
        for form in (lhs, rhs):
            ok = ok and (form.constant, form.coefficient(4)) == (c0, z4)
    _report("criterion 2: the four pinned initial values are reproduced "
            "exactly by both constructions", ok)


def test_criterion_3_weight4_purity(grid):
    ok = all(lhs.is_pure_weight4() and rhs.is_pure_weight4()
             for lhs, rhs in grid.values())
    _report("criterion 3: zeta(2), zeta(3), zeta(5) coefficients vanish on "
            "the whole grid (exact)", ok)


def test_criterion_4_recurrence_in_m(grid):
    ok = all(recurrence_holds(_side(grid, side), n, m) for side in (0, 1)
             for n in range(GRID_N_MAX + 1) for m in range(max(0, n - 1)))
    scan = all(trailing_coefficient_nonzero(n, m)
               for n in range(201) for m in range(n))
    _report(f"criterion 4: three-term recurrence in m holds exactly for both "
            f"families up to n = {GRID_N_MAX}, trailing coefficient nonzero "
            f"for all 0 <= m < n <= 200", ok and scan)


def test_criterion_5_boundary_closed_forms(grid):
    ok = all(closed_form_m0(n) == grid[(n, 0)][0] for n in range(16))
    ok = ok and all(closed_form_m1(n) == grid[(n, 1)][0] for n in range(1, 16))
    _report("criterion 5: closed forms reproduce the m = 0 and m = 1 columns "
            "exactly for n <= 15", ok)


def test_criterion_6_column_recurrences(grid):
    left, right = _side(grid, 0), _side(grid, 1)
    ok_left = all(left_boundary_check(left, n) for n in range(13))
    ok_right = (right_column_coefficients(0)[0] == 9037440
                and all(right_column_check(right, n) for n in range(11)))
    _report("criterion 6: m = 0 column recurrences hold exactly (left "
            "combination for n <= 12, right annihilator for n <= 10)",
            ok_left and ok_right)


def test_criterion_7_binomial_identity():
    ok = all(alternating_binomial_check(n, m)
             for n in range(3, 51) for m in range(n - 1))
    _report("criterion 7: alternating binomial-sum identity holds exactly "
            "for 3 <= n <= 50, 0 <= m <= n-2", ok)


def test_criterion_8_summand_audit():
    checks = audit_summands(n_max=10, samples=2, seed=0)
    ok = len(checks) >= 500 and all(c.agree for c in checks)
    _report(f"criterion 8: {len(checks)} summand route comparisons "
            f"(>= 500 required) across 5 families all agree exactly", ok)


def test_criterion_9_numeric_cross_check(grid):
    ok = True
    for n, m in NUMERIC_CELLS:
        p = FormParameters(n, m)
        exact = evaluate_decimal(grid[(n, m)][0], 30)
        ok = ok and exact.agrees_with(left_form_numeric(p, 30), 25)
        ok = ok and exact.agrees_with(right_form_numeric(p, 30), 25)
    _report("criterion 9: truncated series numerics match the exact values "
            "to 25 significant digits at 5 sample cells", ok)
