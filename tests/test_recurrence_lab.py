"""Unit tests for recurrences, closed forms, and companion identities."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import dense_reference
from apery4 import FormParameters, RangeError, ZetaLinearForm, left_form, right_form
from apery4.recurrence_lab import (alternating_binomial_check,
                                   alternating_binomial_closed_form,
                                   alternating_binomial_sum, central_sum,
                                   closed_form_m0, closed_form_m1,
                                   left_boundary_check, left_boundary_value,
                                   recurrence_coefficients, recurrence_holds,
                                   recurrence_table, right_column_check,
                                   right_column_coefficients,
                                   trailing_coefficient_nonzero)
from conftest import GRID_N_MAX

F = Fraction
COORDINATES = ("c0", "z2", "z3", "z4", "z5")


# ---------------------------------------------------------------------------
# the three-term recurrence in m
# ---------------------------------------------------------------------------


def test_recurrence_coefficients_spot_values():
    assert recurrence_coefficients(2, 0) == (1024, 504, -432)
    assert recurrence_coefficients(1, 0) == (32, -3 * (6 - 24 + 8 - 4), -8)
    with pytest.raises(RangeError):
        recurrence_coefficients(-1, 0)
    with pytest.raises(RangeError):
        recurrence_coefficients(2, -1)


def test_recurrence_checks_name_a_missing_cell():
    # a mapping without a cell that a check reads once raised a bare KeyError
    table = recurrence_table(3)
    for check, cell in ((lambda: recurrence_holds({}, 5, 1), (5, 1)),
                        (lambda: left_boundary_check({}, 2), (2, 0)),
                        (lambda: right_column_check({}, 2), (2, 0)),
                        (lambda: left_boundary_check(table, 3), (4, 0)),
                        (lambda: right_column_check(table, 2), (4, 0))):
        with pytest.raises(RangeError, match=rf"^need the value of cell \(n, m\) = \({cell[0]}, "
                                             rf"{cell[1]}\)$"):
            check()
    assert recurrence_holds(table, 3, 1) and left_boundary_check(table, 2)


def test_recurrence_holds_on_series_values():
    values = {(n, m): left_form(FormParameters(n, m))
              for n in range(5) for m in range(n + 1)}
    for n in range(5):
        for m in range(max(0, n - 1)):
            assert recurrence_holds(values, n, m)
    with pytest.raises(RangeError):
        recurrence_holds(values, 2, 1)


def test_integer_recurrence_matches_the_fraction_route_on_the_grid(grid):
    # both constructions, every admissible cell of the n <= 20 grid
    for side in (0, 1):
        values = {cell: pair[side] for cell, pair in grid.items()}
        for n in range(GRID_N_MAX + 1):
            for m in range(max(0, n - 1)):
                assert recurrence_holds(values, n, m), (side, n, m)
                assert dense_reference.recurrence_holds(values, n, m), (side, n, m)


@pytest.mark.parametrize("coordinate", COORDINATES)
def test_moving_one_coordinate_by_one_over_q_breaks_the_recurrence(grid, coordinate):
    # each of the three cells, on both sides: Z + 1/q in one coordinate, q
    # its denominator (1 for the zero coordinates) or that times 7^40
    index = COORDINATES.index(coordinate)
    unit = (ZetaLinearForm.from_constant(1) if index == 0
            else ZetaLinearForm.zeta_term(int(coordinate[1:])))
    for side in (0, 1):
        values = {cell: pair[side] for cell, pair in grid.items()}
        for n, m in ((2, 0), (9, 4), (GRID_N_MAX, GRID_N_MAX - 2)):
            for cell in ((n, m), (n, m + 1), (n, m + 2)):
                form = values[cell]
                q = (form.constant, *form.zeta_coefficients)[index].denominator
                for step in (F(1, q), F(1, q * 7 ** 40)):
                    changed = {**values, cell: form + unit * step}
                    assert not recurrence_holds(changed, n, m), (side, cell, step)
                    assert not dense_reference.recurrence_holds(changed, n, m)


# rationals whose denominators share the factors 2, 3 and 5, zero included
_SHARED = st.builds(lambda p, a, b, c: F(p, 2 ** a * 3 ** b * 5 ** c),
                    st.integers(-10 ** 30, 10 ** 30), st.integers(0, 40),
                    st.integers(0, 20), st.integers(0, 10))
_FORMS = st.builds(lambda c: ZetaLinearForm(c[0], tuple(c[1:])),
                   st.lists(st.one_of(st.just(F(0)), _SHARED), min_size=5, max_size=5))


@given(st.integers(2, 60), st.integers(0, 58), _FORMS, _FORMS, _FORMS)
@example(2, 0, ZetaLinearForm.from_constant(0), ZetaLinearForm.from_constant(0),
         ZetaLinearForm.from_constant(0))
def test_integer_recurrence_matches_the_fraction_route(n, m, z0, z1, offset):
    # Z(n, m+2) solved from the first two, so the recurrence holds, then
    # moved by a form that may be zero: both routes give one verdict
    m %= n - 1
    a0, a1, a2 = recurrence_coefficients(n, m)
    z2 = F(-1, a2) * (a0 * z0 + a1 * z1)
    values = {(n, m): z0, (n, m + 1): z1, (n, m + 2): z2}
    assert recurrence_holds(values, n, m)
    moved = {**values, (n, m + 2): z2 + offset}
    assert recurrence_holds(moved, n, m) == dense_reference.recurrence_holds(moved, n, m)
    assert recurrence_holds(moved, n, m) == offset.is_zero


def test_trailing_coefficient_never_vanishes_below_diagonal():
    assert all(trailing_coefficient_nonzero(n, m)
               for n in range(60) for m in range(n))


# ---------------------------------------------------------------------------
# central binomial partial sums and closed forms
# ---------------------------------------------------------------------------


def test_central_sum_spot_values():
    assert central_sum(4, 0) == 1
    assert central_sum(4, 1) == F(3457, 3456)
    assert central_sum(9, 1) == F(839809, 839808)
    with pytest.raises(RangeError):
        central_sum(0, 1)
    with pytest.raises(RangeError):
        central_sum(4, -1)


def test_closed_form_m0_base_case_is_pure_zeta4():
    assert closed_form_m0(0) == ZetaLinearForm.zeta_term(4, 1)


def test_closed_form_m0_matches_pinned_value():
    form = closed_form_m0(1)
    assert (form.constant, form.coefficient(4)) == (F(277, 16), F(-16))


def test_closed_form_m1_matches_pinned_value():
    form = closed_form_m1(1)
    assert (form.constant, form.coefficient(4)) == (F(-13), F(12))
    with pytest.raises(RangeError):
        closed_form_m1(0)


@pytest.mark.parametrize("n", range(0, 7))
def test_closed_forms_match_series_route(n):
    assert closed_form_m0(n) == left_form(FormParameters(n, 0))
    if n >= 1:
        assert closed_form_m1(n) == left_form(FormParameters(n, 1))


# ---------------------------------------------------------------------------
# boundary recurrences for the m = 0 column
# ---------------------------------------------------------------------------


def test_left_boundary_value_base_case():
    assert left_boundary_value(0) == F(-277, 16)
    with pytest.raises(RangeError):
        left_boundary_value(-1)


@pytest.mark.parametrize("n", range(0, 4))
def test_left_boundary_check(n):
    column = {(k, 0): left_form(FormParameters(k, 0)) for k in (n, n + 1)}
    assert left_boundary_check(column, n)


def test_right_column_coefficients_base_case():
    l0, l1, l2 = right_column_coefficients(0)
    assert l0 == 9037440
    assert l1 == 2094206184
    assert l2 == 8 * 16 * 243 * 831
    with pytest.raises(RangeError):
        right_column_coefficients(-1)


def test_right_column_coefficients_never_vanish():
    assert all(0 not in right_column_coefficients(n) for n in range(100))


@pytest.mark.parametrize("n", range(0, 3))
def test_right_column_check(n):
    column = {(k, 0): right_form(FormParameters(k, 0)) for k in (n, n + 1, n + 2)}
    assert right_column_check(column, n)


@pytest.mark.parametrize("check, form, arguments, cells", [
    (recurrence_holds, left_form, (4, 1), [(4, 1), (4, 2), (4, 3)]),
    (left_boundary_check, left_form, (2,), [(2, 0), (3, 0)]),
    (right_column_check, right_form, (1,), [(1, 0), (2, 0), (3, 0)]),
], ids=["recurrence", "left-boundary", "right-column"])
def test_checks_read_every_cell_they_are_given(check, form, arguments, cells):
    # each check passes on the series values and fails once any one of its
    # cells has 1 added to its constant
    values = {cell: form(FormParameters(*cell)) for cell in cells}
    assert check(values, *arguments)
    for cell in cells:
        changed = {**values, cell: values[cell] + ZetaLinearForm.from_constant(1)}
        assert not check(changed, *arguments), cell


# ---------------------------------------------------------------------------
# alternating binomial-sum identity
# ---------------------------------------------------------------------------


def test_alternating_binomial_empty_sum_case():
    # at n = 3 the direct sum is empty, so the closed form must vanish too
    assert alternating_binomial_sum(3, 0) == 0
    assert alternating_binomial_closed_form(3, 0) == 0


def test_alternating_binomial_domain():
    with pytest.raises(RangeError):
        alternating_binomial_sum(2, 0)
    with pytest.raises(RangeError):
        alternating_binomial_closed_form(4, 3)


def test_alternating_binomial_identity_sweep():
    assert all(alternating_binomial_check(n, m)
               for n in range(3, 13) for m in range(n - 1))


# ---------------------------------------------------------------------------
# recurrence-driven tabulation
# ---------------------------------------------------------------------------


def test_recurrence_table_matches_series_route():
    table = recurrence_table(6)
    assert len(table) == 7 * 8 // 2
    for (n, m), value in table.items():
        assert value == left_form(FormParameters(n, m))
    with pytest.raises(RangeError):
        recurrence_table(-1)
