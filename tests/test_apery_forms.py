"""Unit tests for the form constructions and summand evaluation routes.

Frozen rational literals in this module come from one of two sources: the
four pinned grid values are external reference data, and the summand spot
values were frozen from the structure-blind polynomial oracle (quotient
rule on the expanded kernels) before the printed formulas were trusted.
"""

import hashlib
import json
import re
from dataclasses import replace
from fractions import Fraction
from itertools import zip_longest
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apery4 import (DivergenceError, DomainError, FormParameters,
                    LinearFactorProduct, PartialFractions, PoleExpansion,
                    RangeError, RationalFunction, ReconstructionError,
                    ZetaLinearForm, apery_forms, audit_summands,
                    derivative_tail_sum, evaluate_decimal, left_form,
                    left_form_numeric, left_kernel, left_mid_sum,
                    left_mid_summand, left_split_check, left_tail_summand,
                    pochhammer_derivative, polyrat, right_finite_sum,
                    right_form, right_form_numeric, right_kernel_term,
                    right_low_summand, right_mid_summand, right_split_check,
                    right_tail_component, verify_cell)
from apery4.apery_forms import (_BlockProduct, _certify, _derivatives_at,
                                _left_blocks, _left_expansion, _principal_parts,
                                _right_blocks, _right_kernel, _series_numeric)
from apery4.polyrat import DerivativeChain
from apery4.recurrence_lab import recurrence_table
from dense_reference import Polynomial, partial_fractions

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
            assert _principal_parts(blocks, label) == dense, (n, m, label)


def _summed_parts(*expansions):
    """The termwise sum of proper principal parts, over their common denominator."""
    common = lcm(*(expansion.denominator for expansion in expansions))
    total = {}
    for expansion in expansions:
        unit = common // expansion.denominator
        for term in expansion.terms:
            total[term.shift] = tuple(
                a + unit * c for a, c in zip_longest(total.get(term.shift, ()),
                                                     term.numerators, fillvalue=0))
    return PartialFractions(Polynomial(), tuple(
        PoleExpansion(shift, numerators) for shift, numerators in sorted(total.items())), common)


@pytest.mark.parametrize("n", range(9))
def test_summed_right_kernel_matches_its_terms(n):
    # P B against the n+1 per-j kernels: the certified parts pole by pole and
    # coefficient by coefficient, and the values at non-pole rational points
    for m in range(n + 1):
        p = FormParameters(n, m)
        kernel = _right_kernel(p)
        terms = [_principal_parts(_right_blocks(p, j), f"right j = {j}")
                 for j in range(n + 1)]
        assert _principal_parts(kernel, "right") == _summed_parts(*terms), (n, m)
        blocks = replace(kernel, cofactor=(1,)).factored()
        for x in (F(1, 3), F(-7, 2), F(5, 7)):
            assert (Polynomial(kernel.cofactor)(x) * blocks.value_at(x)
                    == sum(right_kernel_term(p, j).value_at(x) for j in range(n + 1))), (n, m, x)


@pytest.mark.parametrize("n", range(9))
def test_integer_kernel_values_match_the_dense_oracle(n):
    # every kernel's stepped integer pairs at every certificate point: the
    # left kernel, each right j-kernel and the summed right kernel P B
    for m in range(n + 1):
        p = FormParameters(n, m)
        kernels = [(label, blocks, blocks.factored().value_at)
                   for label, blocks, _ in _kernel_specs(p)]
        summed = _right_kernel(p)
        shared = replace(summed, cofactor=(1,)).factored()
        kernels.append(("right P B", summed,
                        lambda x: shared.value_at(x) * Polynomial(summed.cofactor)(x)))
        for label, blocks, value_at in kernels:
            start = blocks.first_positive_point()
            count = sum(apery_forms._pole_orders(blocks).values())
            pairs = blocks.values(start, count)
            assert len(pairs) == count, (n, m, label)
            for x, (num, den) in zip(range(start, start + count), pairs):
                assert F(num, den) == value_at(x), (n, m, label, x)


@pytest.mark.parametrize("n", range(7))
def test_summed_right_chain_matches_its_terms(n):
    # the chain of P B, built through the cofactor product, against the sum of
    # the n+1 per-j chains: values beyond the poles and sums over two ranges
    for m in range(n + 1):
        p = FormParameters(n, m)
        summed = _right_kernel(p).chain(2)
        terms = [_right_blocks(p, j).chain(2) for j in range(n + 1)]
        for x in (F(1, 3), F(7, 2), F(40, 7)):
            assert summed.values(x) == [sum(values) for values in
                                        zip(*(chain.values(x) for chain in terms))], (n, m, x)
        for order in (0, 1, 2):
            for start, stop in ((1, 4), (3, 30)):
                assert summed.sum(order, start, stop) == sum(
                    chain.sum(order, start, stop) for chain in terms), (n, m, order, start)


def test_cofactor_is_never_dropped():
    # the merged view refuses the cofactor; the generated route carries it,
    # so P B's derivatives are the sums of its j-kernels' derivatives
    p = FormParameters(3, 1)
    kernel = _right_kernel(p)
    with pytest.raises(ValueError, match="cofactor"):
        kernel.factored()
    for point in (4, 10):
        assert _derivatives_at(kernel, point, 2) == [sum(values) for values in zip(
            *(_derivatives_at(_right_blocks(p, j), point, 2) for j in range(p.n + 1)))]


def _certified_sides(p):
    """(where, kernel, expansion) for the left kernel and the summed right one."""
    for where, kernel in (("left side of cell (4, 1)", _left_blocks(p)),
                          ("right side of cell (4, 1)", _right_kernel(p))):
        yield where, kernel, _principal_parts(kernel, where)


def _bump_second_term(terms):
    # one unit of the common denominator: the smallest change the parts allow
    term = terms[1]
    bumped = PoleExpansion(term.shift, (term.numerators[0] + 1,) + term.numerators[1:])
    return terms[:1] + (bumped,) + terms[2:]


@pytest.mark.parametrize("tamper", [_bump_second_term, lambda terms: terms[:-1]],
                         ids=["numerator-off-by-one", "pole-dropped"])
def test_certificate_rejects_tampered_parts(tamper):
    for where, kernel, expansion in _certified_sides(FormParameters(4, 1)):
        tampered = PartialFractions(expansion.polynomial_part, tamper(expansion.terms),
                                    expansion.denominator)
        with pytest.raises(ReconstructionError, match=rf"^{re.escape(where)}: .* at t = \d+$"):
            _certify(kernel, tampered, apery_forms._pole_orders(kernel), where)


@pytest.mark.parametrize("tamper", [
    lambda kernel: replace(kernel, scalar=kernel.scalar + 1),
    lambda kernel: replace(kernel, cofactor=(kernel.cofactor[0] + 1,) + kernel.cofactor[1:]),
], ids=["scalar-off-by-one", "cofactor-off-by-one"])
def test_certificate_rejects_tampered_kernels(tamper):
    # the honest parts against a kernel with the same poles but other values
    for where, kernel, expansion in _certified_sides(FormParameters(4, 1)):
        tampered = tamper(kernel)
        assert apery_forms._pole_orders(tampered) == apery_forms._pole_orders(kernel)
        with pytest.raises(ReconstructionError, match=rf"^{re.escape(where)}: .* at t = \d+$"):
            _certify(tampered, expansion, apery_forms._pole_orders(tampered), where)


def test_certificate_counts_every_term_at_a_shift():
    # a second term at an existing shift, placed first: a map keyed by shift
    # keeps only the last term there and would drop this one
    for where, kernel, expansion in _certified_sides(FormParameters(4, 1)):
        extra = PoleExpansion(expansion.terms[0].shift, (1,))
        tampered = PartialFractions(expansion.polynomial_part, (extra,) + expansion.terms,
                                    expansion.denominator)
        with pytest.raises(ReconstructionError, match=rf"^{re.escape(where)}: .* at t = \d+$"):
            _certify(kernel, tampered, apery_forms._pole_orders(kernel), where)


def test_certificate_uses_every_point():
    # add R/D with R vanishing at the first deg D - 1 certificate points: only
    # the last point tells the tampered parts from the honest ones
    for where, kernel, expansion in _certified_sides(FormParameters(4, 1)):
        orders = apery_forms._pole_orders(kernel)
        den = Polynomial.one()
        for shift, order in orders.items():
            den = den * Polynomial((shift, 1)) ** order
        start = kernel.first_positive_point()
        last = start + den.degree - 1
        remainder = Polynomial.constant(7)
        for x in range(start, last):
            remainder = remainder * Polynomial((-x, 1))
        extra = partial_fractions(RationalFunction(remainder, den), orders)
        tampered = _summed_parts(expansion, extra)
        with pytest.raises(ReconstructionError, match=rf"^{re.escape(where)}: .* at t = {last}$"):
            _certify(kernel, tampered, orders, where)


def test_certificate_cross_checks_the_pole_orders(monkeypatch):
    # the block scan and the merged factors read the poles of one spec by two
    # algorithms; a scan that loses a pole must not go unnoticed
    p = FormParameters(4, 1)
    expansion = _principal_parts(_left_blocks(p), "left")
    honest = apery_forms._pole_orders
    monkeypatch.setattr(apery_forms, "_pole_orders",
                        lambda bp: {s: e for s, e in honest(bp).items() if s != 4})
    with pytest.raises(ReconstructionError, match="block poles"):
        _certify(_left_blocks(p), expansion, apery_forms._pole_orders(_left_blocks(p)),
                 "left")


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


@pytest.mark.parametrize("n", range(16))
def test_left_parts_mirror_about_minus_n_over_2(n):
    # the left kernel is odd about t = -n/2, f(-n-t) = -f(t), so its parts
    # mirror: A_{n-p,j} = (-1)^(j+1) A_{p,j}.  The zeta(3) and zeta(5)
    # coordinates of the left form are sums over the poles of A_{p,2} and
    # A_{p,4}, odd under the mirror, so they cancel in pairs: this is why
    # they vanish on the left.  Criterion 3 is still checked exactly.
    for m in range(n + 1):
        terms = {int(term.shift): term.numerators
                 for term in _left_expansion(FormParameters(n, m)).terms}
        assert sorted(terms) == list(range(n + 1)), (n, m)
        for shift, numerators in terms.items():
            mirrored = tuple((-1) ** j * a for j, a in enumerate(terms[n - shift]))
            assert numerators == mirrored, (n, m, shift)


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
    chain = DerivativeChain(*block._integer_parts(), 1)
    assert pochhammer_derivative(x, k, nu) == chain.values(nu)[1]


@pytest.mark.parametrize("n", range(7))
def test_derivatives_at_match_the_chain(n):
    # the generated route against the oracle's chain at orders 0..4, on every
    # left kernel, right j-kernel and summed right kernel P B, from the first
    # point where every factor is positive on
    for m in range(n + 1):
        p = FormParameters(n, m)
        kernels = [(label, blocks) for label, blocks, _ in _kernel_specs(p)]
        kernels.append(("right P B", _right_kernel(p)))
        for label, blocks in kernels:
            chain = blocks.chain(4)
            first = blocks.first_positive_point()
            for x in (first, first + 1, first + 5, first + 40):
                values = chain.values(x)
                for order in range(5):
                    assert _derivatives_at(blocks, x, order) == values[:order + 1], (
                        n, m, label, x, order)


def test_derivatives_at_needs_every_factor_positive():
    p = FormParameters(3, 1)
    for blocks in (_left_blocks(p), _right_blocks(p, 2), _right_kernel(p)):
        first = blocks.first_positive_point()
        assert _derivatives_at(blocks, first, 1)
        with pytest.raises(DomainError):
            _derivatives_at(blocks, first - 1, 1)


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


def test_audit_builds_one_chain_per_kernel(monkeypatch):
    orders = _count_chains(monkeypatch)
    products = []
    chain = _BlockProduct.chain

    def spy(bp, order):
        products.append(bp)
        return chain(bp, order)

    monkeypatch.setattr(_BlockProduct, "chain", spy)
    audit_summands(n_max=3, samples=2, seed=11)
    assert len(orders) == len(products) == 36
    assert set(orders) == {1, 2}


def test_audit_values_are_pinned():
    # digest of every exact summand the audit compares, as first recorded;
    # an oracle or formula change that moves any value changes it
    checks = audit_summands(n_max=10, samples=2, seed=0)
    blob = json.dumps([[c.family, c.n, c.m, c.j, c.nu, list(c.routes), list(c.values)]
                       for c in checks], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "3fdeb010915e1ef9082bd18b3d16de57efecaaedd03ed78c10ce48a62827f942")


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


# what *_form_numeric(p, 30) asks of each tail
TAIL_TARGET = F(1, 10 ** 45)

TAIL_CASES = ([("left", n, m, None) for n in range(3) for m in range(n + 1)]
              + [("right", n, m, j) for n in range(3) for m in range(n + 1)
                 for j in range(n + 1)]
              + [("summed", n, m, None) for n in range(3) for m in range(n + 1)])


@pytest.mark.parametrize("side, n, m, j", TAIL_CASES)
def test_numeric_tail_lies_within_its_bound(side, n, m, j):
    p = FormParameters(n, m)
    if side == "left":
        bp, order, start = _left_blocks(p), 1, 2 * n - m + 1
        exact = derivative_tail_sum(_left_expansion(p), 1, start)
    elif side == "right":
        bp, order, start = _right_blocks(p, j), 2, n + 1
        exact = right_tail_component(p, j)
    else:
        # the whole right series of the summed kernel P B, from v = 1
        bp, order, start = _right_kernel(p), 2, 1
        exact = 6 * right_form(p)
    value, bound = _series_numeric(bp, order, start, TAIL_TARGET)
    reference = evaluate_decimal(exact, 70)
    assert bound < TAIL_TARGET
    assert abs(value - reference.value()) + reference.error_bound <= bound


def _high_order_cutoffs(monkeypatch) -> list:
    """Record the cutoff of every closure-order chain evaluation."""
    cutoffs = []
    values = polyrat.DerivativeChain.values

    def spy(chain, x):
        if chain.order >= 8:
            cutoffs.append(x)
        return values(chain, x)

    monkeypatch.setattr(polyrat.DerivativeChain, "values", spy)
    return cutoffs


def _count_chains(monkeypatch) -> list:
    """Record the order of every quotient chain built."""
    orders = []
    build = polyrat._quotient_chain

    def spy(coeffs, scale, den_factors, order):
        orders.append(order)
        return build(coeffs, scale, den_factors, order)

    monkeypatch.setattr(polyrat, "_quotient_chain", spy)
    return orders


@pytest.mark.parametrize("numerator, degree", [((0, 1), 0), ((0, 0, 1), 1)],
                         ids=["t-over-t-plus-1", "t-squared-over-t-plus-1"])
def test_series_without_a_closure_raises(numerator, degree, monkeypatch):
    # sum of g' from 1 for g = numerator/(t+1): g does not vanish at infinity,
    # so the closure -g(A) + ... would return a wrong value with a tiny bound
    cutoffs = _high_order_cutoffs(monkeypatch)
    with pytest.raises(DivergenceError, match=f"degree {degree} "):
        _series_numeric(_BlockProduct(F(1), (), ((F(1), -1),), numerator), 1, 1,
                        TAIL_TARGET)
    assert cutoffs == []


def test_right_side_closes_once(monkeypatch):
    cutoffs = _high_order_cutoffs(monkeypatch)
    right_form_numeric(FormParameters(4, 1), 30)
    assert 1 <= len(cutoffs) <= 2


def test_mixed_sign_shift_doubles_the_cutoff(monkeypatch):
    # at (12, 5) the left series meets its target at A = 256, but there the
    # Taylor shift of h^(2M+2) has mixed signs, so the bound is unproved
    cutoffs = _high_order_cutoffs(monkeypatch)
    proofs = []
    keeps_sign = polyrat.DerivativeChain.keeps_sign

    def spy(chain, order, start):
        proofs.append((start, keeps_sign(chain, order, start)))
        return proofs[-1][1]

    monkeypatch.setattr(polyrat.DerivativeChain, "keeps_sign", spy)
    left_form_numeric(FormParameters(12, 5), 30)
    assert proofs == [(256, False), (512, True)]
    assert cutoffs == [256, 512]


@pytest.mark.parametrize("numeric, n, m", [(left_form_numeric, 12, 5),
                                            (right_form_numeric, 4, 1)],
                         ids=["left-12-5", "right-4-1"])
def test_numeric_side_builds_one_chain(numeric, n, m, monkeypatch):
    # every tried cutoff, the sign proofs and the exact sum share one chain
    orders = _count_chains(monkeypatch)
    numeric(FormParameters(n, m), 30)
    assert len(orders) == 1


@pytest.mark.parametrize("n, m", [(8, 3), (12, 5), (16, 7), (20, 9)])
def test_numeric_routes_bracket_the_exact_value(n, m):
    p = FormParameters(n, m)
    reference = evaluate_decimal(recurrence_table(n)[(n, m)], 70)
    for numeric in (left_form_numeric(p, 30), right_form_numeric(p, 30)):
        assert (abs(numeric.value() - reference.value()) + reference.error_bound
                <= numeric.error_bound)


def test_numeric_values_are_pinned():
    # digest of (mantissa, scale, error bound) of both numeric sides at 30
    # digits, as first recorded; a sum that drops, repeats or mis-scales a
    # term, or a changed cutoff or closure, changes it
    rows = []
    for n, m in ((0, 0), (1, 1), (2, 0), (3, 2), (4, 1), (8, 3), (12, 5)):
        for side in (left_form_numeric, right_form_numeric):
            x = side(FormParameters(n, m), 30)
            rows.append([side.__name__, n, m, x.mantissa, x.scale, str(x.error_bound)])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "012a4d940e3c003526167e2d719f188f955d498831bf2bf283d3a14bc8aed408")
