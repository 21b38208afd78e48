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
from math import lcm, prod

import pytest

from apery4 import (DivergenceError, DomainError, FormParameters, Kernel,
                    PartialFractions, PoleExpansion, RangeError,
                    ReconstructionError, ZetaLinearForm, apery_forms,
                    audit_summands, derivative_tail_sum, evaluate_decimal,
                    exact_arith, left_form, left_form_numeric, left_kernel,
                    left_mid_sum, left_mid_summand, left_split_check,
                    left_tail_summand, polyrat, right_finite_sum, right_form,
                    right_form_numeric, right_kernel, right_low_summand,
                    right_mid_summand, right_split_check, verify_cell)
from apery4.apery_forms import (_certify, _derivatives_at, _left_expansion,
                                _principal_parts, _right_blocks, _series_numeric)
from apery4.polyrat import DerivativeChain
from apery4.recurrence_lab import recurrence_table
from dense_reference import (Polynomial, chain_values, flattened, fraction_expansion,
                             kernel_values, partial_fractions, poles)

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
        assert left_kernel(FormParameters(n, m)).degree == -3


def test_right_kernel_degree_gap_is_2():
    for n, m, j in [(0, 0, 0), (2, 1, 0), (3, 3, 3), (5, 2, 4)]:
        assert _right_blocks(FormParameters(n, m), j).degree == -2
        assert right_kernel(FormParameters(n, m)).degree == -2


def test_base_kernels_are_pure_powers():
    assert flattened(left_kernel(FormParameters(0, 0))) == [(0, -3)]
    assert flattened(_right_blocks(FormParameters(0, 0), 0)) == [(0, -2)]


def test_left_kernel_poles_cancel_to_low_range():
    # left_kernel's claim: after merging, the poles sit at t = -n..0 with
    # order 4, order 3 at t = -n/2 for even n
    for n in range(16):
        expected = {q: 3 if 2 * q == n else 4 for q in range(n + 1)}
        for m in range(n + 1):
            assert left_kernel(FormParameters(n, m)).pole_orders() == expected, (n, m)


@pytest.mark.parametrize("n", range(16))
def test_right_kernel_keeps_the_pole_orders_of_its_blocks(n):
    # right_kernel's claim: P vanishes at no pole of the shared blocks B, so
    # P B has B's pole orders: (t)_{n+1} (t)_{2n-m+1} over (t-n)_{2n-m} leaves
    # order 2 at t = -n..-(n-m) and order 1 at the other t = -(2n-m)..0
    for m in range(n + 1):
        kernel = right_kernel(FormParameters(n, m))
        orders = kernel.pole_orders()
        assert orders == replace(kernel, cofactor=(1,)).pole_orders(), m
        assert orders == {q: 1 + (n - m <= q <= n) for q in range(2 * n - m + 1)}, m
        assert all(Polynomial(kernel.cofactor)(-q) for q in orders), m


def test_right_kernel_term_domain():
    # outside 0..n the binomial weight is 0, so without the check a zero
    # kernel would pass as a valid term
    with pytest.raises(RangeError):
        _right_blocks(FormParameters(2, 1), 3)
    with pytest.raises(RangeError):
        _right_blocks(FormParameters(2, 1), -1)


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


def test_split_checks_certify_one_expansion_each(monkeypatch):
    wheres = []
    principal_parts = apery_forms._principal_parts

    def counted(bp, where):
        wheres.append(where)
        return principal_parts(bp, where)

    monkeypatch.setattr(apery_forms, "_principal_parts", counted)
    p = FormParameters(12, 5)
    assert left_split_check(p)
    assert right_split_check(p)
    assert wheres == ["left side of cell (n, m) = (12, 5)",
                      "right side of cell (n, m) = (12, 5)"]


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
    """(label, kernel) for the left kernel and every right j-kernel of a cell."""
    yield "left", left_kernel(p)
    for j in range(p.n + 1):
        yield f"right j = {j}", _right_blocks(p, j)


@pytest.mark.parametrize("n", range(9))
def test_block_principal_parts_match_dense_route(n):
    for m in range(n + 1):
        for label, kernel in _kernel_specs(FormParameters(n, m)):
            # the dense route's polynomial part is the independent witness
            # that every kernel is proper
            polynomial, dense = partial_fractions(*fraction_expansion(kernel), poles(kernel))
            assert polynomial.is_zero, (n, m, label)
            assert _principal_parts(kernel, label) == dense, (n, m, label)


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
    return PartialFractions(tuple(
        PoleExpansion(shift, numerators) for shift, numerators in sorted(total.items())), common)


@pytest.mark.parametrize("n", range(9))
def test_summed_right_kernel_matches_its_terms(n):
    # P B against the n+1 per-j kernels: the certified parts pole by pole and
    # coefficient by coefficient, and the values at non-pole rational points
    for m in range(n + 1):
        p = FormParameters(n, m)
        kernel = right_kernel(p)
        terms = [_principal_parts(_right_blocks(p, j), f"right j = {j}")
                 for j in range(n + 1)]
        assert _principal_parts(kernel, "right") == _summed_parts(*terms), (n, m)
        points = (F(1, 3), F(-7, 2), F(5, 7))
        assert kernel_values(kernel, points) == [sum(values) for values in zip(
            *(kernel_values(_right_blocks(p, j), points) for j in range(n + 1)))], (n, m)


@pytest.mark.parametrize("n", range(9))
def test_integer_kernel_values_match_the_dense_oracle(n):
    # every kernel's stepped integer pairs at every certificate point: the
    # left kernel, each right j-kernel and the summed right kernel P B
    for m in range(n + 1):
        p = FormParameters(n, m)
        for label, kernel in [*_kernel_specs(p), ("right P B", right_kernel(p))]:
            start = kernel.first_positive_point()
            count = sum(kernel.pole_orders().values())
            pairs = kernel.values(start, count)
            assert len(pairs) == count, (n, m, label)
            assert [F(num, den) for num, den in pairs] == kernel_values(
                kernel, range(start, start + count)), (n, m, label)


@pytest.mark.parametrize("n", range(7))
def test_summed_right_chain_matches_its_terms(n):
    # the chain of P B, built through the cofactor product, against the sum of
    # the n+1 per-j chains: values beyond the poles and sums over two ranges
    for m in range(n + 1):
        p = FormParameters(n, m)
        summed = DerivativeChain(*right_kernel(p).expansion())
        terms = [DerivativeChain(*_right_blocks(p, j).expansion()) for j in range(n + 1)]
        for x in (F(1, 3), F(7, 2), F(40, 7)):
            assert summed.values(x, 2) == [sum(values) for values in zip(
                *(chain.values(x, 2) for chain in terms))], (n, m, x)
        for order in (0, 1, 2):
            for start, stop in ((1, 4), (3, 30)):
                assert summed.sum(order, start, stop) == sum(
                    chain.sum(order, start, stop) for chain in terms), (n, m, order, start)


def test_cofactor_is_never_dropped():
    # the generated route carries the cofactor, so P B's derivatives are the
    # sums of its j-kernels' derivatives
    p = FormParameters(3, 1)
    kernel = right_kernel(p)
    for point in (4, 10):
        assert _derivatives_at(kernel, point, 2) == [sum(values) for values in zip(
            *(_derivatives_at(_right_blocks(p, j), point, 2) for j in range(p.n + 1)))]


def _certified_sides(p):
    """(where, kernel, expansion) for the left kernel and the summed right one."""
    for where, kernel in (("left side of cell (4, 1)", left_kernel(p)),
                          ("right side of cell (4, 1)", right_kernel(p))):
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
        tampered = PartialFractions(tamper(expansion.terms), expansion.denominator)
        with pytest.raises(ReconstructionError, match=rf"^{re.escape(where)}: .* at t = \d+$"):
            _certify(kernel, tampered, kernel.pole_orders(), where)


@pytest.mark.parametrize("tamper", [
    lambda kernel: replace(kernel, scalar=kernel.scalar + 1),
    lambda kernel: replace(kernel, cofactor=(kernel.cofactor[0] + 1,) + kernel.cofactor[1:]),
], ids=["scalar-off-by-one", "cofactor-off-by-one"])
def test_certificate_rejects_tampered_kernels(tamper):
    # the honest parts against a kernel with the same poles but other values
    for where, kernel, expansion in _certified_sides(FormParameters(4, 1)):
        tampered = tamper(kernel)
        assert tampered.pole_orders() == kernel.pole_orders()
        with pytest.raises(ReconstructionError, match=rf"^{re.escape(where)}: .* at t = \d+$"):
            _certify(tampered, expansion, tampered.pole_orders(), where)


def test_certificate_counts_every_term_at_a_shift():
    # a second term at an existing shift, placed first: a map keyed by shift
    # keeps only the last term there and would drop this one
    for where, kernel, expansion in _certified_sides(FormParameters(4, 1)):
        extra = PoleExpansion(expansion.terms[0].shift, (1,))
        tampered = PartialFractions((extra,) + expansion.terms, expansion.denominator)
        with pytest.raises(ReconstructionError, match=rf"^{re.escape(where)}: .* at t = \d+$"):
            _certify(kernel, tampered, kernel.pole_orders(), where)


def test_certificate_uses_every_point():
    # add R/D with R vanishing at the first deg D - 1 certificate points: only
    # the last point tells the tampered parts from the honest ones
    for where, kernel, expansion in _certified_sides(FormParameters(4, 1)):
        orders = kernel.pole_orders()
        den = Polynomial.one()
        for shift, order in orders.items():
            den = den * Polynomial((shift, 1)) ** order
        start = kernel.first_positive_point()
        last = start + den.degree - 1
        remainder = Polynomial.constant(7)
        for x in range(start, last):
            remainder = remainder * Polynomial((-x, 1))
        polynomial, extra = partial_fractions(remainder, den, orders)
        assert polynomial.is_zero
        tampered = _summed_parts(expansion, extra)
        with pytest.raises(ReconstructionError, match=rf"^{re.escape(where)}: .* at t = {last}$"):
            _certify(kernel, tampered, orders, where)


def test_certificate_cross_checks_the_pole_orders(monkeypatch):
    # the block scan and the merged factors read the poles of one spec by two
    # algorithms; a scan that loses a pole must not go unnoticed
    p = FormParameters(4, 1)
    expansion = _principal_parts(left_kernel(p), "left")
    honest = Kernel.pole_orders
    monkeypatch.setattr(Kernel, "pole_orders",
                        lambda kernel: {s: e for s, e in honest(kernel).items() if s != 4})
    with pytest.raises(ReconstructionError, match="block poles"):
        _certify(left_kernel(p), expansion, left_kernel(p).pole_orders(), "left")


def test_local_parts_come_only_from_the_tabled_shifts():
    # L = lcm(1..top) covers the shifts the tables were built for; at another
    # shift the loose factor's b need not divide it.  At t = -2 the kernel
    # (t + 1/2) / (t (t+1) (t+2))^2 has A_2 = -3/8 and A_1 = -3/8 * 7/3 = -7/8.
    kernel = Kernel(F(1), ((0, 3, -2),), ((F(1, 2), 1),))
    assert apery_forms._LocalExpansion(kernel, [2], 2).part(2, 2) == ([-42, -18], 48)
    with pytest.raises(ValueError, match="no tables for shift 2"):
        apery_forms._LocalExpansion(kernel, [0], 2).part(2, 2)


def test_forms_always_certify(monkeypatch):
    honest = apery_forms._LocalExpansion.part

    def off_by_one(self, shift, order):
        numerators, den = honest(self, shift, order)
        return [numerators[0] + 1] + numerators[1:], den

    monkeypatch.setattr(apery_forms._LocalExpansion, "part", off_by_one)
    p = FormParameters(3, 1)
    with pytest.raises(ReconstructionError, match=r"left side of cell \(n, m\) = \(3, 1\)"):
        left_form(p)
    with pytest.raises(ReconstructionError, match=r"right side of cell \(n, m\) = \(3, 1\)"):
        right_form(p)
    with pytest.raises(ReconstructionError, match=r"right j = 2 of cell"):
        _principal_parts(_right_blocks(p, 2), "right j = 2 of cell (n, m) = (3, 1)")


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
# the rising-factorial derivative rule: the generated route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(7))
def test_derivatives_at_match_the_chain(n):
    # the rule on one block (t + x)_n: d/dt (1 + t)_2 at t = 1 is 5, and at
    # order 1 it matches the chain wherever every factor is positive
    assert _derivatives_at(Kernel(F(1), ((1, 2, 1),), ()), 1, 1) == [6, 5]
    for x in range(-3, 7):
        block = Kernel(F(1), ((x, n, 1),), ())
        chain = DerivativeChain(*block.expansion())
        for nu in range(block.first_positive_point(), 9):
            assert _derivatives_at(block, nu, 1) == chain.values(nu, 1), (x, n, nu)
    # the generated route against the oracle's chain at orders 0..4, on every
    # left kernel, right j-kernel and summed right kernel P B, from the first
    # point where every factor is positive on
    for m in range(n + 1):
        p = FormParameters(n, m)
        for label, kernel in [*_kernel_specs(p), ("right P B", right_kernel(p))]:
            chain = DerivativeChain(*kernel.expansion())
            first = kernel.first_positive_point()
            for x in (first, first + 1, first + 5, first + 40):
                values = chain.values(x, 4)
                for order in range(5):
                    assert _derivatives_at(kernel, x, order) == values[:order + 1], (
                        n, m, label, x, order)


@pytest.mark.parametrize("n", range(7))
def test_chain_values_match_the_dense_chain_on_kernels(n):
    # values at the point against N_d of the dense chain, orders 0..4, on
    # every left kernel, right j-kernel and summed right kernel P B, beyond
    # the poles and between them
    for m in range(n + 1):
        p = FormParameters(n, m)
        for label, kernel in [*_kernel_specs(p), ("right P B", right_kernel(p))]:
            first = kernel.first_positive_point()
            chain = DerivativeChain(*kernel.expansion())
            for order in range(5):
                for x in (first, first + 7, first + F(1, 3), F(-1, 3), F(-5, 4)):
                    assert chain.values(x, order) == chain_values(chain, x, order), (
                        n, m, label, x)


@pytest.mark.parametrize("n, m", [(0, 0), (1, 1), (2, 0), (3, 2), (4, 1)])
def test_closure_values_match_the_dense_chain(n, m, monkeypatch):
    # criterion 9's cells, both sides, at 30 decimals: the closure's values at
    # the order order + 2M - 1 and the cutoff A that the route chooses
    closures = []
    values = polyrat.DerivativeChain.values

    def spy(chain, x, order):
        closures.append((chain, x, order, values(chain, x, order)))
        return closures[-1][3]

    monkeypatch.setattr(polyrat.DerivativeChain, "values", spy)
    p = FormParameters(n, m)
    left_form_numeric(p, 30)
    right_form_numeric(p, 30)
    assert len(closures) == 2
    for chain, cutoff, order, closure in closures:
        assert closure == chain_values(chain, cutoff, order), (n, m, order, cutoff)


def test_derivatives_at_needs_every_factor_positive():
    p = FormParameters(3, 1)
    for kernel in (left_kernel(p), _right_blocks(p, 2), right_kernel(p),
                   Kernel(F(1), ((-3, 2, 1),), ())):
        first = kernel.first_positive_point()
        assert _derivatives_at(kernel, first, 1)
        with pytest.raises(DomainError):
            _derivatives_at(kernel, first - 1, 1)


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


def _right_tail_term(p, j):
    """The exact tail of the j-th right series from v = n+1 on."""
    return derivative_tail_sum(_principal_parts(_right_blocks(p, j), f"right j = {j}"),
                               2, p.n + 1)


def test_right_tail_terms_accumulate_to_form():
    p = FormParameters(2, 2)
    total = ZetaLinearForm.from_constant(right_finite_sum(p))
    for j in range(3):
        total = total + _right_tail_term(p, j)
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
    # one chain per kernel, read only through values at the point: the
    # dense quotient chain is never built
    built = _count_chains(monkeypatch)
    chains, orders = [], set()
    init, values = DerivativeChain.__init__, DerivativeChain.values

    def spy_init(chain, *expansion):
        chains.append(chain)
        init(chain, *expansion)

    def spy_values(chain, x, order):
        orders.add(order)
        return values(chain, x, order)

    monkeypatch.setattr(DerivativeChain, "__init__", spy_init)
    monkeypatch.setattr(DerivativeChain, "values", spy_values)
    audit_summands(n_max=3, samples=2, seed=11)
    assert len(chains) == 36
    assert orders == {1, 2}
    assert built == []


def test_oracle_reads_no_table_of_the_other_routes(monkeypatch):
    # the oracle is independent of the generated route's local expansions
    # and of the printed formulas' harmonic numbers: with both refused it
    # still gives every oracle value of the audit
    checks = audit_summands(n_max=4, samples=2, seed=0)

    def refuse(*args):
        raise AssertionError("the oracle read another route's tables")

    monkeypatch.setattr(apery_forms._LocalExpansion, "part", refuse)
    for module in (exact_arith, apery_forms, polyrat):     # and every binding of it
        monkeypatch.setattr(module, "harmonic", refuse, raising=False)
    with pytest.raises(AssertionError):
        audit_summands(n_max=1, samples=1, seed=0)
    for c in checks:
        p = FormParameters(c.n, c.m)
        x = c.nu + {"left-tail": 2 * c.n - c.m, "left-mid": c.n - c.m}.get(c.family, 0)
        kernel, order = (left_kernel(p), 1) if c.j is None else (_right_blocks(p, c.j), 2)
        oracle = DerivativeChain(*kernel.expansion()).values(x, order)[-1]
        assert str(oracle) == c.values[c.routes.index("oracle")], c


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
        kernel, order, start = left_kernel(p), 1, 2 * n - m + 1
        exact = derivative_tail_sum(_left_expansion(p), 1, start)
    elif side == "right":
        kernel, order, start = _right_blocks(p, j), 2, n + 1
        exact = _right_tail_term(p, j)
    else:
        # the whole right series of the summed kernel P B, from v = 1
        kernel, order, start = right_kernel(p), 2, 1
        exact = 6 * right_form(p)
    value, bound = _series_numeric(kernel, order, start, TAIL_TARGET)
    reference = evaluate_decimal(exact, 70)
    assert bound < TAIL_TARGET
    assert abs(value - reference.value()) + reference.error_bound <= bound


def _closure_cutoffs(monkeypatch) -> list:
    """Record the point of every chain evaluation: in the numeric route, the
    closure's one ``values`` call at the cutoff A."""
    cutoffs = []
    values = polyrat.DerivativeChain.values

    def spy(chain, x, order):
        cutoffs.append(x)
        return values(chain, x, order)

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
    cutoffs = _closure_cutoffs(monkeypatch)
    with pytest.raises(DivergenceError, match=f"degree {degree} "):
        _series_numeric(Kernel(F(1), (), ((F(1), -1),), numerator), 1, 1, TAIL_TARGET)
    assert cutoffs == []


def test_series_refuses_a_pole_right_of_zero():
    # g = 1/(t-1)^3 from v = 2 has no pole on the ray, but the remainder
    # bound's |z + s| >= (1 - alpha) x needs every shift s >= 0
    with pytest.raises(DomainError):
        _series_numeric(Kernel(F(1), (), ((F(-1), -3),)), 1, 2, TAIL_TARGET)


def _remainder_bound(kernel, order, depth, cutoff):
    return prod(F(base) ** e for base, e in
                apery_forms._remainder_factors(kernel.expansion(), order, depth, cutoff))


def test_remainder_bound_is_pinned_on_small_kernels():
    # order 1, M = 1, A = 2, so k = 5 and the Bernoulli weight is
    # 2 |B_4| / 4! = 1/360.
    # g = 1/t^2: D = 0, E = 2, d + k = 7, 7 alpha^2 + 2 alpha - 5 = 0 gives
    # alpha = 5/7, S = 1, and the bound is
    # 1/360 * 5! * 1 * 1 / ((2/7)^2 (5/7)^5) * 2^-6 / 6 = 823543/14400000.
    assert _remainder_bound(Kernel(F(1), (), ((F(0), -2),)), 1, 1, 2) == F(
        823543, 14400000)
    # g = -3/5 (t^3 - 2t + 3) / ((t + 1)^2 (t + 3/2)^2): D = 3, E = 4, d + k = 6,
    # 6 alpha^2 + 7 alpha - 5 = 0 gives alpha = 1/2,
    # S = 3/2^3 + 2/2^2 + 0/2 + 1 = 15/8, and the bound is
    # 1/360 * 5! * (3/5 * 15/8) * (3/2)^3 / ((1/2)^4 (1/2)^5) * 2^-5 / 5 = 81/20.
    kernel = Kernel(F(-3, 5), (), ((F(1), -2), (F(3, 2), -2)), (3, -2, 0, 1))
    assert _remainder_bound(kernel, 1, 1, 2) == F(81, 20)


def test_right_side_closes_once(monkeypatch):
    cutoffs = _closure_cutoffs(monkeypatch)
    right_form_numeric(FormParameters(4, 1), 30)
    assert cutoffs == [apery_forms._FIRST_CUTOFF]


def test_cutoff_doubles_until_a_depth_meets_the_target(monkeypatch):
    # at (8, 3) and 80 decimals no closure depth up to _MAX_DEPTH meets the
    # target at A = 128 or 256, so both sides close at A = 512
    cutoffs = _closure_cutoffs(monkeypatch)
    tried = []
    factors = apery_forms._remainder_factors

    def spy(expansion, order, depth, cutoff):
        tried.append(cutoff)
        return factors(expansion, order, depth, cutoff)

    monkeypatch.setattr(apery_forms, "_remainder_factors", spy)
    for side in (left_form_numeric, right_form_numeric):
        tried.clear()
        side(FormParameters(8, 3), 80)
        assert sorted(set(tried)) == [128, 256, 512]
        assert tried.count(128) == tried.count(256) == apery_forms._MAX_DEPTH
    assert cutoffs == [512, 512]


@pytest.mark.parametrize("numeric, n, m, order", [(left_form_numeric, 12, 5, 1),
                                                   (right_form_numeric, 4, 1, 2)],
                         ids=["left-12-5", "right-4-1"])
def test_numeric_side_builds_one_chain(numeric, n, m, order, monkeypatch):
    # the exact sum builds the one dense chain of the side, and only up to
    # the order it sums; the closure's derivatives come from the point
    orders = _count_chains(monkeypatch)
    numeric(FormParameters(n, m), 30)
    assert orders == [order]


@pytest.mark.parametrize("n, m", [(8, 3), (12, 5), (16, 7), (20, 9), (30, 14)])
def test_numeric_routes_bracket_the_exact_value(n, m):
    p = FormParameters(n, m)
    reference = evaluate_decimal(recurrence_table(n)[(n, m)], 70)
    for numeric in (left_form_numeric(p, 30), right_form_numeric(p, 30)):
        assert (abs(numeric.value() - reference.value()) + reference.error_bound
                <= numeric.error_bound)


@pytest.mark.slow
def test_numeric_routes_bracket_the_exact_value_to_n_20():
    for (n, m), exact in recurrence_table(20).items():
        p = FormParameters(n, m)
        reference = evaluate_decimal(exact, 70)
        for numeric in (left_form_numeric(p, 30), right_form_numeric(p, 30)):
            assert (abs(numeric.value() - reference.value()) + reference.error_bound
                    <= numeric.error_bound), (n, m)


def test_numeric_values_are_pinned():
    # digest of (mantissa, scale, error bound) of both numeric sides at 30
    # digits, recorded once both sides bracketed the 70-digit reference on
    # every cell here; a sum that drops, repeats or mis-scales a term, or a
    # changed cutoff, closure or remainder bound, changes it
    rows = []
    for n, m in ((0, 0), (1, 1), (2, 0), (3, 2), (4, 1), (8, 3), (12, 5)):
        for side in (left_form_numeric, right_form_numeric):
            x = side(FormParameters(n, m), 30)
            rows.append([side.__name__, n, m, x.mantissa, x.scale, str(x.error_bound)])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "68bcf0d330871b766bd90ed96d880535d3bb5534d028372ddc6018749022f48f")
