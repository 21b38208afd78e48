"""Unit tests for the form constructions and summand evaluation routes.

Frozen rational literals in this module come from one of two sources: the
four pinned grid values are external reference data, and the summand spot
values were frozen from the structure-blind polynomial oracle (quotient
rule on the expanded kernels) before the printed formulas were trusted.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apery4 import (DomainError, FormParameters, LinearFactorProduct,
                    PartialFractions, PoleExpansion, RangeError,
                    ReconstructionError, ZetaLinearForm, apery_forms,
                    audit_summands, evaluate_decimal, left_form, left_form_numeric, left_kernel, left_mid_sum,
                    left_mid_summand, left_split_check, left_tail_summand,
                    partial_fractions, pochhammer_derivative,
                    right_finite_sum, right_form, right_form_numeric,
                    right_kernel_term, right_low_summand, right_mid_summand,
                    right_split_check, right_tail_component, verify_cell)
from apery4.apery_forms import (_certify, _left_blocks, _principal_parts,
                                _right_blocks)
from apery4.recurrence_lab import recurrence_table

F = Fraction

PINNED_VALUES = {
    (0, 0): (F(0), F(1)),
    (1, 0): (F(277, 16), F(-16)),
    (1, 1): (F(-13), F(12)),
    (2, 1): (F(4090247, 1944), F(-1944)),
}

# regression pins: cross-validated by three independent routes (both series
# constructions and the boundary closed forms / recurrence tabulation)
REGRESSION_VALUES = {
    (2, 0): (F(-9695399, 6912), F(1296)),
    (2, 2): (F(-13923, 16), F(804)),
    (3, 3): (F(-62195315, 648), F(88680)),
}


def test_parameters_domain():
    FormParameters(0, 0)
    FormParameters(5, 5)
    with pytest.raises(RangeError):
        FormParameters(2, 3)
    with pytest.raises(RangeError):
        FormParameters(1, -1)
    with pytest.raises(RangeError):
        FormParameters(-1, 0)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_left_kernel_degree_gap_is_3():
    for n, m in [(0, 0), (1, 0), (3, 2), (5, 5)]:
        assert left_kernel(FormParameters(n, m)).degree_gap == 3


def test_right_kernel_degree_gap_is_2():
    for n, m, j in [(0, 0, 0), (2, 1, 0), (3, 3, 3), (5, 2, 4)]:
        assert right_kernel_term(FormParameters(n, m), j).degree_gap == 2


def test_base_kernels_are_pure_powers():
    assert left_kernel(FormParameters(0, 0)).factors == ((F(0), -3),)
    assert right_kernel_term(FormParameters(0, 0), 0).factors == ((F(0), -2),)


def test_left_kernel_poles_cancel_to_low_range():
    # after merging, poles survive only at shifts 0..n (order <= 4)
    kernel = left_kernel(FormParameters(4, 1))
    shifts = kernel.denominator_shifts()
    assert min(shifts) == 0 and max(shifts) == 4
    assert all(e >= -4 for _, e in kernel.factors)


def test_right_kernel_term_domain():
    with pytest.raises(RangeError):
        right_kernel_term(FormParameters(2, 1), 3)
    with pytest.raises(RangeError):
        right_kernel_term(FormParameters(2, 1), -1)


@pytest.mark.parametrize("j", [3, -1])
def test_right_tail_component_domain(j):
    # outside 0..n the binomial weight is 0, so without the check a zero
    # kernel would pass as a valid tail
    with pytest.raises(RangeError):
        right_tail_component(FormParameters(2, 1), j)


# ---------------------------------------------------------------------------
# exact forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cell,expected", sorted(PINNED_VALUES.items()))
def test_pinned_initial_values(cell, expected):
    form = left_form(FormParameters(*cell))
    assert (form.constant, form.coefficient(4)) == expected
    assert form.is_pure_weight4()


@pytest.mark.parametrize("cell,expected", sorted(REGRESSION_VALUES.items()))
def test_regression_values(cell, expected):
    form = right_form(FormParameters(*cell))
    assert (form.constant, form.coefficient(4)) == expected
    assert form.is_pure_weight4()


def test_identity_holds_small_cells():
    assert all(left_form(FormParameters(n, m)) == right_form(FormParameters(n, m))
               for n in range(4) for m in range(n + 1))


def test_split_checks():
    for n, m in [(0, 0), (1, 0), (2, 1), (3, 3), (4, 2)]:
        p = FormParameters(n, m)
        assert left_split_check(p)
        assert right_split_check(p)


def test_verify_cell_record():
    record = verify_cell(1, 1)
    assert record["identityPass"] and record["pureWeight4"]
    assert record["left"] == {"c0": "-13", "z4": "12"}
    assert record["right"] == {"c0": "-13", "z4": "12"}
    assert record["elapsedMs"] >= 0


# ---------------------------------------------------------------------------
# principal parts from the block structure and their certificate
# ---------------------------------------------------------------------------


def _kernel_specs(p):
    """(label, block product, LinearFactorProduct) for every kernel of a cell."""
    yield "left", _left_blocks(p), left_kernel(p)
    for j in range(p.n + 1):
        yield f"right j = {j}", _right_blocks(p, j), right_kernel_term(p, j)


@pytest.mark.parametrize("n", range(9))
def test_block_principal_parts_match_dense_route(n):
    for m in range(n + 1):
        for label, blocks, kernel in _kernel_specs(FormParameters(n, m)):
            dense = partial_fractions(kernel.expand(), kernel.denominator_shifts())
            assert _principal_parts([blocks], label) == dense, (n, m, label)


def _certified_sides(p):
    """(where, kernels, expansion) for the left kernel and the summed right one."""
    left = [_left_blocks(p)]
    right = [_right_blocks(p, j) for j in range(p.n + 1)]
    for where, kernels in (("left side of cell (4, 1)", left),
                           ("right side of cell (4, 1)", right)):
        yield where, kernels, _principal_parts(kernels, where)


def _bump_second_term(terms):
    term = terms[1]
    bumped = PoleExpansion(term.shift, (term.coefficients[0] + F(1, 10**9),)
                           + term.coefficients[1:])
    return terms[:1] + (bumped,) + terms[2:]


@pytest.mark.parametrize("tamper", [_bump_second_term, lambda terms: terms[:-1]],
                         ids=["coefficient-off-by-1e-9", "pole-dropped"])
def test_certificate_rejects_tampered_parts(tamper):
    for where, kernels, expansion in _certified_sides(FormParameters(4, 1)):
        tampered = PartialFractions(expansion.polynomial_part, tamper(expansion.terms))
        with pytest.raises(ReconstructionError, match=rf"^{re.escape(where)}: .* at t = \d+$"):
            _certify(kernels, tampered, where)


def test_certificate_cross_checks_the_pole_orders(monkeypatch):
    # the block scan and the merged factors read the poles of one spec by two
    # algorithms; a scan that loses a pole must not go unnoticed
    p = FormParameters(4, 1)
    expansion = _principal_parts([_left_blocks(p)], "left")
    honest = apery_forms._pole_orders
    monkeypatch.setattr(apery_forms, "_pole_orders",
                        lambda bp: {s: e for s, e in honest(bp).items() if s != 4})
    with pytest.raises(ReconstructionError, match="block poles"):
        _certify([_left_blocks(p)], expansion, "left")


def test_forms_always_certify(monkeypatch):
    honest = apery_forms._LocalExpansion.part

    def off_by_one(self, bp, shift, order):
        numerators, den = honest(self, bp, shift, order)
        return [numerators[0] + 1] + numerators[1:], den

    monkeypatch.setattr(apery_forms._LocalExpansion, "part", off_by_one)
    p = FormParameters(3, 1)
    with pytest.raises(ReconstructionError, match=r"left side of cell \(n, m\) = \(3, 1\)"):
        left_form(p)
    with pytest.raises(ReconstructionError, match=r"right side of cell \(n, m\) = \(3, 1\)"):
        right_form(p)
    with pytest.raises(ReconstructionError, match=r"right tail j = 2 of cell"):
        right_tail_component(p, 2)


@pytest.mark.slow
def test_both_sides_match_recurrence_table_to_n_40():
    for (n, m), expected in recurrence_table(40).items():
        p = FormParameters(n, m)
        assert left_form(p) == expected, (n, m, "left")
        assert right_form(p) == expected, (n, m, "right")


# ---------------------------------------------------------------------------
# the rising-factorial derivative rule
# ---------------------------------------------------------------------------


def test_pochhammer_derivative_worked_example():
    assert pochhammer_derivative(1, 2, 1) == 5


def test_pochhammer_derivative_domain():
    with pytest.raises(DomainError):
        pochhammer_derivative(-3, 2, 1)
    with pytest.raises(ValueError):
        pochhammer_derivative(1, -1, 1)


@given(st.integers(-3, 6), st.integers(0, 6), st.integers(1, 8))
def test_pochhammer_derivative_matches_polynomial_route(x, k, nu):
    if nu + x < 1:
        with pytest.raises(DomainError):
            pochhammer_derivative(x, k, nu)
        return
    block = LinearFactorProduct.of(1, [(x + i, 1) for i in range(k)])
    assert pochhammer_derivative(x, k, nu) == block.derivative_values_at(nu, 1)[1]


# ---------------------------------------------------------------------------
# printed summand formulas (oracle-frozen spot values)
# ---------------------------------------------------------------------------


def test_left_tail_summand_spot_value():
    assert left_tail_summand(FormParameters(2, 1), 3) == F(6925, 49787136)


def test_left_tail_summand_base_cell():
    # at n = m = 0 the whole series is -3/v^4 in closed form
    p = FormParameters(0, 0)
    assert [left_tail_summand(p, v) for v in (1, 2, 3)] == \
        [F(-3), F(-3, 16), F(-3, 81)]


def test_left_mid_summand_spot_value_and_vanishing():
    assert left_mid_summand(FormParameters(3, 1), 2) == F(363, 19208000)
    p = FormParameters(3, 2)
    assert left_mid_summand(p, 1) == 0
    assert left_mid_summand(p, 2) == 0
    assert left_mid_summand(p, 3) != 0


def test_right_mid_summand_spot_value():
    assert right_mid_summand(FormParameters(3, 1), 1, 2) == F(11, 2450)


def test_right_low_summand_spot_value():
    assert right_low_summand(FormParameters(3, 2), 2, 1) == F(-1, 4)


def test_summand_domain_errors():
    p = FormParameters(3, 1)
    with pytest.raises(RangeError):
        left_tail_summand(p, 0)
    with pytest.raises(RangeError):
        left_mid_summand(p, 4)
    with pytest.raises(RangeError):
        right_mid_summand(p, 3, 3)  # needs j <= n-1
    with pytest.raises(RangeError):
        right_mid_summand(p, 1, 1)  # needs nu > j
    with pytest.raises(RangeError):
        right_low_summand(p, 0, 1)  # needs j >= 1
    with pytest.raises(RangeError):
        right_low_summand(p, 2, 3)  # needs nu <= j


def test_finite_sums_match_termwise_accumulation():
    p = FormParameters(4, 2)
    assert left_mid_sum(p) == sum(left_mid_summand(p, v) for v in range(1, 5))
    total = F(0)
    for j in range(0, 4):
        for nu in range(j + 1, 5):
            total += right_mid_summand(p, j, nu)
    for j in range(1, 5):
        for nu in range(1, j + 1):
            total += right_low_summand(p, j, nu)
    assert right_finite_sum(p) == total


def test_right_tail_component_accumulates_to_form():
    p = FormParameters(2, 2)
    total = ZetaLinearForm.from_constant(right_finite_sum(p))
    for j in range(3):
        total = total + right_tail_component(p, j)
    assert F(1, 6) * total == right_form(p)


# ---------------------------------------------------------------------------
# route audit
# ---------------------------------------------------------------------------


def test_audit_is_deterministic_and_green():
    a = audit_summands(n_max=3, samples=2, seed=11)
    b = audit_summands(n_max=3, samples=2, seed=11)
    assert a == b
    assert all(check.agree for check in a)
    families = {check.family for check in a}
    assert families == {"left-tail", "left-mid", "right-tail",
                        "right-mid", "right-low"}


def test_audit_seed_changes_sampling():
    a = audit_summands(n_max=4, samples=1, seed=0)
    b = audit_summands(n_max=4, samples=1, seed=1)
    assert a != b


# ---------------------------------------------------------------------------
# numeric route
# ---------------------------------------------------------------------------


def test_numeric_routes_match_exact_decimal():
    p = FormParameters(1, 0)
    exact = evaluate_decimal(left_form(p), 25)
    assert exact.agrees_with(left_form_numeric(p, 25), 20)
    assert exact.agrees_with(right_form_numeric(p, 25), 20)
