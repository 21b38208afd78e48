"""Unit tests for the form constructions and summand evaluation routes.

Frozen rational literals in this module come from one of two sources: the
four pinned grid values are external reference data, and the summand spot
values were frozen from the structure-blind polynomial oracle (quotient
rule on the expanded kernels) before the printed formulas were trusted.
"""

import hashlib
import json
import random
import re
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from apery4 import (DivergenceError, DomainError, FormParameters, Kernel,
                    PartialFractions, RangeError, ReconstructionError,
                    ZetaLinearForm, apery_forms,
                    audit_summands, derivative_tail_sum, evaluate_decimal,
                    exact_arith, left_form, left_form_numeric, left_kernel,
                    left_mid_summand, left_tail_summand, polyrat, right_form,
                    right_form_numeric, right_kernel, right_low_summand,
                    right_mid_summand, verify_cell, zeta_forms)
from apery4.apery_forms import (_certificate_points, _certify, _derivative_numerators,
                                _left_expansion, _principal_parts, _right_blocks,
                                _right_expansion, _series_numeric)
from apery4.polyrat import DerivativeChain
from apery4.recurrence_lab import recurrence_table
import dense_reference
from dense_reference import (Polynomial, chain_values, flattened, fraction_expansion,
                             fraction_values, kernel_values, partial_fractions, poles)

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


def test_parameters_must_be_integers():
    # a float cell once passed, and left_form then failed inside factorial
    # with a TypeError; any non-int n or m is refused up front
    for n, m, name, value in ((3.5, 1, "n", "3.5"), (4, 1.0, "m", "1.0"),
                              (F(4), 1, "n", r"Fraction\(4, 1\)"), ("4", 1, "n", "'4'")):
        with pytest.raises(DomainError, match=rf"^need {name} of type int, got {value}$"):
            FormParameters(n, m)


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
        assert orders == kernel.replace(cofactor=(1,)).pole_orders(), m
        assert orders == {q: 1 + (n - m <= q <= n) for q in range(2 * n - m + 1)}, m
        assert all(Polynomial(kernel.cofactor)(-q) for q in orders), m


def _merged_poles(kernel):
    return {s: -e for s, e in kernel.factors.items() if e < 0}


@pytest.mark.parametrize("n", range(21))
def test_pole_sweep_matches_the_candidate_scan_on_the_grid(n):
    # every left kernel, summed right kernel and right j-kernel with n <= 20:
    # the poles of the merged factors and the reference scan agree
    for m in range(n + 1):
        p = FormParameters(n, m)
        for label, kernel in [*_kernel_specs(p), ("right P B", right_kernel(p))]:
            orders = kernel.pole_orders()
            assert orders == dense_reference.pole_orders(kernel), (n, m, label)
            assert orders == _merged_poles(kernel), (n, m, label)


_BLOCK = st.tuples(st.integers(-6, 6), st.integers(0, 5), st.integers(-3, 3))
_BLOCKS = st.lists(_BLOCK, max_size=6)


@given(_BLOCKS)
@example([(0, 3, -1), (0, 3, 1)])                        # exponents that cancel
@example([(0, 0, -2), (2, 3, -1), (3, 4, -2)])           # an empty block, overlaps
@example([(0, 2, 1), (1, 1, -1)])                        # a one-factor pole inside a block
@example([(-2, 4, -1), (1, 1, 1)])
@example([(2, 1, -2)])                                   # a one-factor block alone
def test_pole_sweep_matches_the_candidate_scan(blocks):
    # empty blocks, overlapping ranges, cancelling exponents, one-factor
    # blocks; every shift is an int, which the local expansions need
    kernel = Kernel(F(1), tuple(blocks))
    orders = kernel.pole_orders()
    assert orders == dense_reference.pole_orders(kernel)
    assert orders == _merged_poles(kernel)
    assert all(type(s) is int for s in [*orders, *kernel.factors])


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


def test_verify_cell_record():
    record = verify_cell(1, 1)
    assert record["identityPass"] and record["pureWeight4"]
    form = ZetaLinearForm.from_constant(-13) + ZetaLinearForm.zeta_term(4, 12)
    assert record["left"] == record["right"] == form
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
    # the left kernel, every right j-kernel and the summed right kernel P B,
    # whose parts go through the cofactor's Taylor coefficients
    for m in range(n + 1):
        p = FormParameters(n, m)
        for label, kernel in [*_kernel_specs(p), ("right P B", right_kernel(p))]:
            # the dense route's polynomial part is the independent witness
            # that every kernel is proper
            polynomial, dense = partial_fractions(*fraction_expansion(kernel), poles(kernel))
            assert polynomial.is_zero, (n, m, label)
            assert _principal_parts(kernel, label) == dense, (n, m, label)


def _summed_parts(*expansions):
    """The termwise sum of proper principal parts, over their common
    denominator, reduced as the block route leaves its parts."""
    common = lcm(*(expansion.denominator for expansion in expansions))
    total = {}
    for expansion in expansions:
        unit = common // expansion.denominator
        for shift, numerators in expansion.terms:
            total[shift] = tuple(
                a + unit * c for a, c in zip_longest(total.get(shift, ()),
                                                     numerators, fillvalue=0))
    g = gcd(common, *(c for numerators in total.values() for c in numerators))
    return PartialFractions(tuple(
        (shift, tuple(c // g for c in numerators))
        for shift, numerators in sorted(total.items())), common // g)


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
    # the n+1 per-j chains: values on both sides of the poles and sums over
    # two ranges
    for m in range(n + 1):
        p = FormParameters(n, m)
        summed = DerivativeChain(*right_kernel(p).expansion())
        terms = [DerivativeChain(*_right_blocks(p, j).expansion()) for j in range(n + 1)]
        for x in (1, 4, 6, -3 * n - 4):
            assert fraction_values(summed.numerators(x, 2)) == [sum(values) for values in zip(
                *(fraction_values(chain.numerators(x, 2)) for chain in terms))], (n, m, x)
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
        assert fraction_values(_derivative_numerators(kernel, point, 2)) == [
            sum(values) for values in zip(*(
                fraction_values(_derivative_numerators(_right_blocks(p, j), point, 2))
                for j in range(p.n + 1)))]


def _certified_sides(p):
    """(where, kernel, expansion) for the left kernel and the summed right one."""
    for where, kernel in (("left side of cell (4, 1)", left_kernel(p)),
                          ("right side of cell (4, 1)", right_kernel(p))):
        yield where, kernel, _principal_parts(kernel, where)


def _bump_second_term(terms):
    # one unit of the common denominator: the smallest change the parts allow
    shift, numerators = terms[1]
    bumped = shift, (numerators[0] + 1,) + numerators[1:]
    return terms[:1] + (bumped,) + terms[2:]


@pytest.mark.parametrize("tamper", [_bump_second_term, lambda terms: terms[:-1]],
                         ids=["numerator-off-by-one", "pole-dropped"])
def test_certificate_rejects_tampered_parts(tamper):
    for where, kernel, expansion in _certified_sides(FormParameters(4, 1)):
        tampered = PartialFractions(tamper(expansion.terms), expansion.denominator)
        with pytest.raises(ReconstructionError, match=rf"^{re.escape(where)}: .* at t = \d+$"):
            _certify(kernel, tampered, where)


@pytest.mark.parametrize("tamper", [
    lambda kernel: kernel.replace(scalar=kernel.scalar + 1),
    lambda kernel: kernel.replace(cofactor=(kernel.cofactor[0] + 1,) + kernel.cofactor[1:]),
], ids=["scalar-off-by-one", "cofactor-off-by-one"])
def test_certificate_rejects_tampered_kernels(tamper):
    # the honest parts against a kernel with the same poles but other values
    for where, kernel, expansion in _certified_sides(FormParameters(4, 1)):
        tampered = tamper(kernel)
        assert tampered.pole_orders() == kernel.pole_orders()
        with pytest.raises(ReconstructionError, match=rf"^{re.escape(where)}: .* at t = \d+$"):
            _certify(tampered, expansion, where)


def test_certificate_counts_every_term_at_a_shift():
    # a second term at an existing shift, placed first: a map keyed by shift
    # keeps only the last term there and would drop this one
    for where, kernel, expansion in _certified_sides(FormParameters(4, 1)):
        extra = expansion.terms[0][0], (1,)
        tampered = PartialFractions((extra,) + expansion.terms, expansion.denominator)
        with pytest.raises(ReconstructionError, match=rf"^{re.escape(where)}: .* at t = \d+$"):
            _certify(kernel, tampered, where)


def _pole_denominator(orders):
    """D = prod (t + p)^E over the pole orders, as a dense polynomial."""
    den = Polynomial.one()
    for shift, order in orders.items():
        den = den * Polynomial((shift, 1)) ** order
    return den


def _tampered_by(kernel, expansion, zeros):
    """The parts plus R/D, R = 7 prod (t - x) over ``zeros``, deg R < deg D."""
    orders = kernel.pole_orders()
    remainder = Polynomial.constant(7)
    for x in zeros:
        remainder = remainder * Polynomial((-x, 1))
    polynomial, extra = partial_fractions(remainder, _pole_denominator(orders), orders)
    assert polynomial.is_zero
    return _summed_parts(expansion, extra)


def _vanishes_below_the_first_positive_point(kernel):
    start = kernel.first_positive_point()
    return kernel_values(kernel, range(1, start)) == [0] * (start - 1)


def test_certificate_uses_every_point():
    # both kernels vanish at 1..first positive point - 1, so the points are
    # 1..deg D; add R/D with R vanishing at the first deg D - 1 of them: only
    # the last point tells the tampered parts from the honest ones
    for where, kernel, expansion in _certified_sides(FormParameters(4, 1)):
        assert _vanishes_below_the_first_positive_point(kernel)
        last = _degree(kernel)
        tampered = _tampered_by(kernel, expansion, range(1, last))
        with pytest.raises(ReconstructionError, match=rf"^{re.escape(where)}: .* at t = {last}$"):
            _certify(kernel, tampered, where)


def test_certificate_checks_the_zeros_below_the_first_positive_point():
    # R vanishing at every point 2..deg D but t = 1, a zero of the kernel:
    # the parts must vanish there too
    for where, kernel, expansion in _certified_sides(FormParameters(4, 1)):
        assert _vanishes_below_the_first_positive_point(kernel)
        last = _degree(kernel)
        tampered = _tampered_by(kernel, expansion, range(2, last + 1))
        with pytest.raises(ReconstructionError, match=rf"^{re.escape(where)}: .* at t = 1$"):
            _certify(kernel, tampered, where)


# (t-3)(t-2) / (t (t+1) (t+2))^2: first positive point 4, zeros at 2 and 3,
# and 2/36 at t = 1, which is no zero and must be skipped
SKIPPING = Kernel(F(1), ((-3, 2, 1), (0, 3, -2)))


def test_certificate_skips_a_point_where_the_kernel_does_not_vanish(monkeypatch):
    assert SKIPPING.first_positive_point() == 4
    assert kernel_values(SKIPPING, range(1, 4)) == [F(1, 18), 0, 0]
    values = _spy_values(monkeypatch)
    expansion = _principal_parts(SKIPPING, "skipping")
    polynomial, dense = partial_fractions(*fraction_expansion(SKIPPING), poles(SKIPPING))
    assert polynomial.is_zero and expansion == dense
    assert [(start, count) for _, start, count in values] == [(4, 4)]
    # deg D = 6 points, 2..7: R vanishing at all but one is caught at that one
    for point in range(2, 8):
        tampered = _tampered_by(SKIPPING, expansion, [x for x in range(2, 8) if x != point])
        with pytest.raises(ReconstructionError, match=rf"^skipping: .* at t = {point}$"):
            _certify(SKIPPING, tampered, "skipping")


def test_certificate_refuses_a_zero_top_numerator():
    # times t + 1, the pole at t = -1 drops to order 3, but the merged factors
    # ignore the cofactor and say 4: the order-4 term there has a zero top
    # numerator, which the values alone would accept
    kernel = left_kernel(FormParameters(4, 1)).replace(cofactor=(1, 1))
    with pytest.raises(ReconstructionError,
                       match=r"^left: term of order 4 at shift 1 .* zero top numerator$"):
        _principal_parts(kernel, "left")


def _tampered_terms(terms):
    """The honest terms with one term dropped, with one term's top numerator
    dropped (zeroed when it is the term's only one), or with a term added at
    a shift that is no pole."""
    for i, (shift, numerators) in enumerate(terms):
        yield terms[:i] + terms[i + 1:]
        yield terms[:i] + ((shift, numerators[:-1] or (0,)),) + terms[i + 1:]
    shifts = [shift for shift, _ in terms]
    for shift in (min(shifts) - 1, max(shifts) + 1):
        yield terms + ((shift, (1,)),)


@pytest.mark.parametrize("n", range(7))
def test_certificate_reads_the_poles_from_the_kernel(n):
    # the certificate takes the poles and their orders from the kernel alone,
    # so parts that miss a pole, cut one short or add one the kernel lacks
    # are refused on both sides of every cell, (0, 0) and its one pole too
    for m in range(n + 1):
        p = FormParameters(n, m)
        for where, kernel in (("left", left_kernel(p)), ("right", right_kernel(p))):
            expansion = _principal_parts(kernel, where)
            variants = list(_tampered_terms(expansion.terms))
            assert len(set(variants)) == 2 * len(expansion.terms) + 2
            for terms in variants:
                with pytest.raises(ReconstructionError, match=rf"^{where}: "):
                    _certify(kernel, PartialFractions(terms, expansion.denominator), where)


def test_local_expansions_share_one_table_build_per_cell_at_most(monkeypatch):
    # both sides of every cell of the n <= 12 grid, from a cold table cache:
    # every local expansion and zeta tail reads shared power-sum rows
    monkeypatch.setattr(exact_arith, "_POWER_SUMS", {})
    tables, honest = [], exact_arith._power_sums

    def spy(top, count):
        entry = honest(top, count)
        if not any(entry[1] is rows for _, rows in tables):
            tables.append(entry)
        return entry

    monkeypatch.setattr(apery_forms, "_power_sums", spy)
    monkeypatch.setattr(zeta_forms, "_power_sums", spy)
    cells = [(n, m) for n in range(13) for m in range(n + 1)]
    for n, m in cells:
        assert verify_cell(n, m)["identityPass"], (n, m)
    assert 0 < len(tables) <= len(cells)
    assert len({scale for scale, _ in tables}) == len(tables)    # no L built twice


def test_local_parts_come_only_from_the_tabled_shifts():
    # L = lcm(1..top) covers the shifts the tables were built for; at another
    # shift a block's |a| may pass top.  At t = -2 the kernel
    # (t + 1/2) / (t (t+1) (t+2))^2, written (2t + 1) / 2 over the block, has
    # A_2 = -3/8 and A_1 = -3/8 * 7/3 = -7/8.
    kernel = Kernel(F(1, 2), ((0, 3, -2),), (1, 2))
    assert apery_forms._LocalExpansion(kernel, [2], 2).part(2, 2) == ([-14, -6], 16)
    with pytest.raises(ValueError, match="no tables for shift 2"):
        apery_forms._LocalExpansion(kernel, [0], 2).part(2, 2)


def test_local_expansions_with_one_L_and_depth_share_one_multipliers_table():
    # (order-1)!/(order-j)! L^(j-1) depends on L = lcm(1..top) and the depth
    # alone, so the left and right kernels of (4, 1) at their poles, both
    # with L = lcm(1..11), read one table; another depth reads another
    p = FormParameters(4, 1)
    left, right, deeper = (
        apery_forms._LocalExpansion(kernel, list(kernel.pole_orders()), depth)
        for kernel, depth in ((left_kernel(p), 4), (right_kernel(p), 4), (left_kernel(p), 5)))
    assert left.scale == right.scale == deeper.scale == lcm(*range(1, 12))
    assert left.multipliers is right.multipliers
    assert deeper.multipliers is not left.multipliers
    assert deeper.multipliers[:5] == left.multipliers == tuple(
        tuple(exact_arith.factorial(order - 1) // exact_arith.factorial(order - j)
              * left.scale ** (j - 1) for j in range(1, order + 1)) for order in range(5))


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
    # they vanish on the left.  Criterion 3 is still checked exactly.  The
    # form mirrors the parts right of -n/2 instead of expanding them, so
    # every part is compared with the local expansion at its own shift.
    for m in range(n + 1):
        p = FormParameters(n, m)
        kernel, expansion = left_kernel(p), _left_expansion(p)
        orders = kernel.pole_orders()
        local = apery_forms._LocalExpansion(kernel, list(orders), max(orders.values()))
        terms = dict(expansion.terms)
        assert sorted(terms) == list(range(n + 1)), (n, m)
        for shift, numerators in terms.items():
            expanded, den = local.part(shift, orders[shift])
            assert [F(c, expansion.denominator) for c in numerators] == [
                F(c, den) for c in expanded], (n, m, shift)
            mirrored = tuple((-1) ** j * a for j, a in enumerate(terms[n - shift]))
            assert numerators == mirrored, (n, m, shift)


def _spy_points(monkeypatch) -> list:
    """The (kernel, count) of every certificate: the points it checks, the
    kernel's zeros below its first positive point included."""
    calls, honest = [], apery_forms._certificate_points

    def spy(kernel, least, count):
        points = honest(kernel, least, count)
        calls.append((kernel, len(points)))
        return points

    monkeypatch.setattr(apery_forms, "_certificate_points", spy)
    return calls


def _spy_values(monkeypatch) -> list:
    """The (kernel, start, count) of every Kernel.values call: the points
    where a value is computed."""
    calls, honest = [], Kernel.values

    def spy(kernel, start, count):
        calls.append((kernel, start, count))
        return honest(kernel, start, count)

    monkeypatch.setattr(Kernel, "values", spy)
    return calls


def _degree(kernel):
    """deg D, the sum of the kernel's pole orders: the full route's point count."""
    return sum(kernel.pole_orders().values())


def test_left_cells_certify_at_half_the_points(monkeypatch):
    # the left kernel is proved odd and its parts mirror, so ceil(deg D / 2)
    # points; the right kernel has an even exponent sum, so every point
    calls = _spy_points(monkeypatch)
    for n in range(13):
        for m in range(n + 1):
            p = FormParameters(n, m)
            calls.clear()
            left_form(p)
            right_form(p)
            (left, halved), (right, full) = calls
            assert (left.centre, right.centre) == (n, None), (n, m)
            assert halved == (_degree(left) + 1) // 2, (n, m)
            assert full == _degree(right), (n, m)


def test_halved_certificate_takes_no_point_left_of_the_centre(monkeypatch):
    # (t-2) / ((t-1) (t-3))^2 is odd about t = 2 (c = -4), deg D = 4, so
    # R = u S(u^2) in u = t - 2 with deg S < 2: two points with distinct
    # u^2 > 0.  Its zero t = 2 is u = 0, where R vanishes anyway, so the
    # points are 4 and 5, and R = 7 u (u^2 - 4), odd and zero at t = 4,
    # is caught at t = 5
    kernel = Kernel(F(1), ((-3, 1, -2), (-2, 1, 1), (-1, 1, -2)))
    assert (kernel.centre, kernel.first_positive_point()) == (-4, 4)
    calls = _spy_points(monkeypatch)
    expansion = _principal_parts(kernel, "centred")
    polynomial, dense = partial_fractions(*fraction_expansion(kernel), poles(kernel))
    assert polynomial.is_zero and expansion == dense
    assert [count for _, count in calls] == [2]
    orders = kernel.pole_orders()
    u = Polynomial((-2, 1))
    remainder = Polynomial.constant(7) * u * (u * u - Polynomial.constant(4))
    polynomial, extra = partial_fractions(remainder, _pole_denominator(orders), orders)
    assert polynomial.is_zero
    calls.clear()
    with pytest.raises(ReconstructionError, match=r"^centred: .* at t = 5$"):
        _certify(kernel, _summed_parts(expansion, extra), "centred")
    assert [count for _, count in calls] == [2]             # the tamper still mirrors


def test_values_are_computed_only_from_the_first_positive_point(monkeypatch):
    # the left kernel vanishes at 1..2n-m and P B at 1..n, so of the
    # ceil(deg D / 2) = 2n+2 and deg D = 2n+2 points, m+2 and n+2 need values
    calls = _spy_values(monkeypatch)
    for n in range(13):
        for m in range(n + 1):
            p = FormParameters(n, m)
            calls.clear()
            left_form(p)
            right_form(p)
            (_, left_start, left), (_, right_start, right) = calls
            assert (left_start, left) == (2 * n - m + 1, m + 2), (n, m)
            assert (right_start, right) == (n + 1, n + 2), (n, m)


@pytest.mark.parametrize("n, m", [(4, 1), (3, 1)], ids=["deg-D-odd", "deg-D-even"])
def test_halved_certificate_uses_every_halved_point(n, m, monkeypatch):
    # add R/D of the right parity, R = u^eps S(u^2) in u = t + n/2, whose S
    # vanishes at the first h - 1 halved points, h = ceil(deg D / 2): the
    # tampered parts still mirror, so only the last halved point tells them
    # from the honest ones
    p = FormParameters(n, m)
    kernel, expansion = left_kernel(p), _left_expansion(p)
    assert _vanishes_below_the_first_positive_point(kernel)
    orders = kernel.pole_orders()
    den = _pole_denominator(orders)
    half = (den.degree + 1) // 2
    last = half                                 # the halved points are 1..half
    u = Polynomial((F(n, 2), 1))
    remainder = Polynomial.constant(7) * (u if den.degree % 2 == 0 else Polynomial.one())
    for x in range(1, last):
        remainder = remainder * (u * u - Polynomial.constant((x + F(n, 2)) ** 2))
    assert remainder.degree < den.degree
    polynomial, extra = partial_fractions(remainder, den, orders)
    assert polynomial.is_zero
    tampered = _summed_parts(expansion, extra)
    calls = _spy_points(monkeypatch)
    with pytest.raises(ReconstructionError, match=rf"at t = {last}$"):
        _certify(kernel, tampered, "left")
    assert [count for _, count in calls] == [half]


def _centre_factor_moved(kernel, n):
    """(t + n/2) moved to (t + n/2 + 1): the block (n/2 + 1)_1 at even n, the
    cofactor 2t + n + 2 at odd n, where the factors still mirror."""
    if n % 2:
        return kernel.replace(cofactor=(n + 2, 2))
    return kernel.replace(blocks=kernel.blocks[:-1] + ((n // 2 + 1, 1, 1),))


@pytest.mark.parametrize("tamper", [
    _centre_factor_moved,
    lambda kernel, n: kernel.replace(cofactor=(1, 0, 1)),
], ids=["centre-factor-moved", "cofactor-t-squared-plus-1"])
@pytest.mark.parametrize("n, m", [(4, 1), (3, 1)])
def test_kernels_that_are_not_odd_take_the_full_route(tamper, n, m, monkeypatch):
    # (t + n/2) moved to (t + n/2 + 1), or the kernel times t^2 + 1 in place
    # of its cofactor, which keeps the factors' mirror, so only the cofactor
    # check sees it: no longer odd, so the symmetry proof fails, every pole
    # is expanded and every point runs, and the parts certify
    kernel = left_kernel(FormParameters(n, m))
    tampered = tamper(kernel, n)
    assert (kernel.centre, tampered.centre) == (n, None)
    calls = _spy_points(monkeypatch)
    expansion = _principal_parts(tampered, "tampered")
    assert [count for _, count in calls] == [_degree(tampered)]
    polynomial, dense = partial_fractions(*fraction_expansion(tampered), poles(tampered))
    assert polynomial.is_zero and expansion == dense


# (t+1) / (t^2 (t+2)^2) times a cofactor Q: factors that mirror about t = -1
# (c = 2) with sum e = -3, so the kernel is odd when Q(-2-t) = +Q(t)
_MIRRORED = ((0, 1, -2), (1, 1, 1), (2, 1, -2))


@pytest.mark.parametrize("kernel, centre", [
    (Kernel(F(1), _MIRRORED, (1, 1)), None),
    (Kernel(F(1), _MIRRORED, (1, 0, 1)), None),
    (Kernel(F(1), _MIRRORED, (2, 2, 1)), 2),
    (Kernel(F(1), ((0, 2, -2),), (1, 2)), 1),
], ids=["reflects-to-minus-Q-odd-sum", "does-not-reflect", "reflects-to-Q-odd-sum",
        "reflects-to-minus-Q-even-sum"])
def test_centre_reads_the_cofactor(kernel, centre, monkeypatch):
    # f(-c-t) = -(-1)^(sum e) Q(-c-t) / Q(t) f(t) for factors that mirror,
    # so only Q(-c-t) = -(-1)^(sum e) Q(t) proves f odd: t + 1 makes the
    # first kernel even, t^2 + 1 neither, t^2 + 2t + 2 = (t+1)^2 + 1 odd, and
    # (2t + 1) / (t (t+1))^2 odd about t = -1/2.  The parts certify on the
    # halved route or at every point
    assert kernel.centre == centre
    calls = _spy_points(monkeypatch)
    expansion = _principal_parts(kernel, "cofactor")
    count = _degree(kernel)
    assert [points for _, points in calls] == [count if centre is None else (count + 1) // 2]
    polynomial, dense = partial_fractions(*fraction_expansion(kernel), poles(kernel))
    assert polynomial.is_zero and expansion == dense


def test_left_kernels_are_proved_odd_on_both_parities_to_n_20(monkeypatch):
    # (t + n/2) as the one-factor block (n/2)_1 at even n and as the cofactor
    # 2t + n at odd n: both are proved odd about t = -n/2, and every left
    # certificate takes ceil(deg D / 2) points
    calls = _spy_points(monkeypatch)
    for n in range(21):
        for m in range(n + 1):
            calls.clear()
            _left_expansion(FormParameters(n, m))
            (kernel, points), = calls
            assert kernel.cofactor == ((n, 2) if n % 2 else (1,)), (n, m)
            assert (kernel.centre, points) == (n, (_degree(kernel) + 1) // 2), (n, m)


def _bump(index, j):
    """Tamper: numerator j of term ``index`` off by one."""
    def tamper(terms):
        shift, numerators = terms[index]
        numerators = list(numerators)
        numerators[j] += 1
        bumped = shift, tuple(numerators)
        return terms[:index] + (bumped,) + terms[index + 1:]
    return tamper


@pytest.mark.parametrize("tamper", [_bump(0, 0), _bump(2, 1), lambda terms: terms[:1] + terms],
                         ids=["end-pole", "centre-pole", "term-repeated"])
def test_a_broken_mirror_takes_the_full_route(tamper, monkeypatch):
    # one numerator off by one breaks the mirror (at the centre t = -2, A_2
    # must vanish), and a term repeated at its shift leaves the sum not odd
    # though every term has its mirror: the certificate runs every point
    p = FormParameters(4, 1)
    kernel, expansion = left_kernel(p), _left_expansion(p)
    tampered = PartialFractions(tamper(expansion.terms), expansion.denominator)
    calls = _spy_points(monkeypatch)
    with pytest.raises(ReconstructionError, match=r"at t = \d+$"):
        _certify(kernel, tampered, "left")
    assert [count for _, count in calls] == [_degree(kernel)]


@pytest.mark.slow
def test_both_sides_match_recurrence_table_to_n_60():
    for (n, m), expected in recurrence_table(60).items():
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
    assert fraction_values(_derivative_numerators(Kernel(F(1), ((1, 2, 1),)), 1, 1)) == [6, 5]
    for x in range(-3, 7):
        block = Kernel(F(1), ((x, n, 1),))
        chain = DerivativeChain(*block.expansion())
        for nu in range(block.first_positive_point(), 9):
            assert (fraction_values(_derivative_numerators(block, nu, 1))
                    == fraction_values(chain.numerators(nu, 1))), (x, n, nu)
    # the generated route against the oracle's chain at orders 0..4, on every
    # left kernel, right j-kernel and summed right kernel P B, from the first
    # point where every factor is positive on
    for m in range(n + 1):
        p = FormParameters(n, m)
        for label, kernel in [*_kernel_specs(p), ("right P B", right_kernel(p))]:
            chain = DerivativeChain(*kernel.expansion())
            first = kernel.first_positive_point()
            for x in (first, first + 1, first + 5, first + 40):
                values = fraction_values(chain.numerators(x, 4))
                for order in range(5):
                    assert (fraction_values(_derivative_numerators(kernel, x, order))
                            == values[:order + 1]), (
                        n, m, label, x, order)


@pytest.mark.parametrize("n", range(7))
def test_chain_values_match_the_dense_chain_on_kernels(n):
    # values at the point against N_d of the dense chain, orders 0..4, on
    # every left kernel, right j-kernel and summed right kernel P B, on both
    # sides of the poles
    for m in range(n + 1):
        p = FormParameters(n, m)
        for label, kernel in [*_kernel_specs(p), ("right P B", right_kernel(p))]:
            first = kernel.first_positive_point()
            chain = DerivativeChain(*kernel.expansion())
            for order in range(5):
                for x in (first, first + 2, first + 7, -4 * n - 5):
                    assert (fraction_values(chain.numerators(x, order))
                            == chain_values(chain, x, order)), (
                        n, m, label, x)


_COFACTORS = st.lists(st.integers(-4, 4), min_size=1, max_size=3)


@given(_BLOCKS, _COFACTORS)
@example([(-6, 5, 1), (0, 3, -2)], [5, 2])                 # zeros at t = 2..6, 2t + 5
@example(left_kernel(FormParameters(3, 1)).blocks,          # zeros at t = 1..5, 2t + 3
         list(left_kernel(FormParameters(3, 1)).cofactor))
@example([(0, 3, -1), (-9, 1, 1)], [-98, 56, 41, -28, 4])  # (2t - 7)^2 (t^2 - 2)
@example([(0, 4, -1)], [-10, -11, 6])                     # the cofactor vanishes at t = -2/3
@example([(0, 4, -1)], [-2, 1])                           # the cofactor vanishes at t = 2
@example([(0, 4, -1)], [1, 1])                            # the cofactor vanishes at pole t = -1
def test_factored_chain_matches_the_dense_chain_on_random_kernels(blocks, cofactor):
    # the summand oracle's chain on a kernel's cofactor and linear factors,
    # against the chain on its integer expansion and the dense Fraction chain,
    # at the regular points 1..12 (numerator zeros among them) and orders
    # 0..4; the cofactor's roots need not be integers
    kernel = Kernel(F(-5, 3), tuple(blocks), tuple(cofactor))
    orders = kernel.pole_orders()
    chain = DerivativeChain(kernel.cofactor, kernel.scalar, kernel.factors.items())
    dense = DerivativeChain(*kernel.expansion())
    for x in (x for x in range(1, 13) if -x not in orders):
        reference = chain_values(chain, x, 4)
        for order in range(5):
            values = fraction_values(chain.numerators(x, order))
            assert values == fraction_values(dense.numerators(x, order)), (x, order)
            assert values == reference[:order + 1], (x, order)
    # a proper kernel: its certified parts are the dense route's, or a
    # ReconstructionError where the cofactor vanishes at a pole (the factors
    # overstate that pole's order)
    if kernel.degree < 0:
        if any(Polynomial(cofactor)(-s) == 0 for s in orders):
            with pytest.raises(ReconstructionError):
                _principal_parts(kernel, "random kernel")
        else:
            honest = _principal_parts(kernel, "random kernel")
            _, expected = partial_fractions(*fraction_expansion(kernel), poles(kernel))
            assert honest == expected
            _assert_moved_numerators_are_refused(kernel, honest)


def _assert_moved_numerators_are_refused(kernel, honest):
    # each term of the honest expansion in turn, one of its numerators moved by +-1
    for i, (shift, numerators) in enumerate(honest.terms):
        numerators = list(numerators)
        numerators[i % len(numerators)] += (-1) ** i
        moved = shift, tuple(numerators)
        with pytest.raises(ReconstructionError):
            _certify(kernel, PartialFractions(
                honest.terms[:i] + (moved,) + honest.terms[i + 1:], honest.denominator),
                "moved numerator")


def _centred(blocks, centre, exponent):
    """The blocks and their mirrors under s -> c - s, times (t + c/2)^k,
    k = ``exponent``: the one-factor block (c/2)_1^k at an even c, the
    cofactor (2t + c)^k over 2^k at an odd c, where k must be positive."""
    blocks = tuple(blocks) + tuple((centre - x - k + 1, k, e) for x, k, e in blocks)
    if centre % 2 == 0:
        return Kernel(F(-5, 3), blocks + ((centre // 2, 1, exponent),))
    cofactor = [1]
    for _ in range(exponent):
        cofactor = polyrat._times_linear(cofactor, centre, 2)
    return Kernel(F(-5, 3 * 2 ** exponent), blocks, tuple(cofactor))


@given(st.lists(_BLOCK, max_size=4), st.integers(-6, 6), st.sampled_from([-3, -1, 1, 3]))
@example([(0, 3, -2)], 2, 1)                        # poles at 0, -1, -2, one at the centre
@example([(-1, 2, -1)], 1, 1)                       # four simple poles, 2t + 1 at the centre
@example([(0, 4, -2), (2, 2, 1), (-1, 1, 1)], 3, 1)         # poles partly cancelled
@example([(0, 3, -2)], 3, 3)                        # (2t + 3)^3
def test_reflected_random_kernels_take_the_halved_route(blocks, centre, exponent):
    # blocks with their mirrors under s -> c - s, times an odd power of
    # (t + c/2): a kernel odd about t = -c/2 (Kernel.centre), whose parts,
    # read at the poles with 2p <= c and mirrored, are the dense route's;
    # an expansion that does not mirror gets every point, so one that is
    # wrong only off the halved route's points is refused
    if centre % 2:
        exponent = abs(exponent)                    # a cofactor has no pole
    kernel = _centred(blocks, centre, exponent)
    assert kernel.centre == centre or not kernel.factors    # no factor: no c to read
    if kernel.degree >= 0:
        return
    orders = kernel.pole_orders()
    honest = _principal_parts(kernel, "reflected kernel")
    _, expected = partial_fractions(*fraction_expansion(kernel), poles(kernel))
    assert honest == expected
    _assert_moved_numerators_are_refused(kernel, honest)
    # honest + R/D, R the monic polynomial that vanishes at the halved points
    count = sum(orders.values())
    halved = _certificate_points(kernel, max(1, -centre // 2 + 1), (count + 1) // 2)
    if len(halved) == count:                        # a simple pole: nothing is halved
        return
    zeros, den = Polynomial.one(), Polynomial.one()
    for x, _, _ in halved:
        zeros = zeros * Polynomial((-x, 1))
    for shift, order in orders.items():
        den = den * Polynomial((shift, 1)) ** order
    numerators = {shift: list(row) for shift, row in honest.terms}
    for shift, row in partial_fractions(zeros, den, orders)[1].terms:
        for j, c in enumerate(row):
            numerators[shift][j] += c
    wrong = PartialFractions(tuple((shift, tuple(row))
                                   for shift, row in sorted(numerators.items())),
                             honest.denominator)
    with pytest.raises(ReconstructionError):
        _certify(kernel, wrong, "reflected kernel")


@pytest.mark.parametrize("n, m", [(0, 0), (1, 1), (2, 0), (3, 2), (4, 1)])
def test_closure_values_match_the_dense_chain(n, m, monkeypatch):
    # criterion 9's cells, both sides, at 30 decimals: the closure's values at
    # the order order + 2M - 1 and the cutoff A that the route chooses
    closures = []
    numerators = polyrat.DerivativeChain.numerators

    def spy(chain, x, order):
        tops, bottom = numerators(chain, x, order)
        closures.append((chain, x, order, [F(top, bottom) for top in tops]))
        return tops, bottom

    monkeypatch.setattr(polyrat.DerivativeChain, "numerators", spy)
    p = FormParameters(n, m)
    left_form_numeric(p, 30)
    right_form_numeric(p, 30)
    assert len(closures) == 2
    for chain, cutoff, order, closure in closures:
        assert closure == chain_values(chain, cutoff, order), (n, m, order, cutoff)


def test_derivatives_at_needs_every_factor_positive():
    p = FormParameters(3, 1)
    for kernel in (left_kernel(p), _right_blocks(p, 2), right_kernel(p),
                   Kernel(F(1), ((-3, 2, 1),))):
        first = kernel.first_positive_point()
        assert _derivative_numerators(kernel, first, 1)
        with pytest.raises(DomainError):
            _derivative_numerators(kernel, first - 1, 1)


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


def _printed_finite_summand(p, j, nu):
    """The printed value of the j-th right summand at 1 <= nu <= n."""
    return right_mid_summand(p, j, nu) if j < nu else right_low_summand(p, j, nu)


def test_printed_finite_summands_equal_the_oracle_at_every_point():
    # every printed left mid and right mid and low summand of every cell with
    # n <= 8 equals the oracle's derivative at its point; on each side's
    # certified expansion the tail plus the oracle's finite sum is the whole
    # series, the split of the series that the forms sum in one piece
    def oracle(kernel, order):
        chain = DerivativeChain(kernel.cofactor, kernel.scalar, kernel.factors.items())
        return lambda x: fraction_values(chain.numerators(x, order))[-1]

    for n in range(9):
        for m in range(n + 1):
            p = FormParameters(n, m)
            left, left_finite = oracle(left_kernel(p), 1), F(0)
            for nu in range(1, n + 1):
                value = left(nu + n - m)
                assert left_mid_summand(p, nu) == value, (n, m, nu)
                left_finite += value
            right_finite = F(0)
            for j in range(n + 1):
                right = oracle(_right_blocks(p, j), 2)
                for nu in range(1, n + 1):
                    value = right(nu)
                    assert _printed_finite_summand(p, j, nu) == value, (n, m, j, nu)
                    right_finite += value
            for expansion, order, whole, tail, finite in [
                    (_left_expansion(p), 1, n - m + 1, 2 * n - m + 1, left_finite),
                    (_right_expansion(p), 2, 1, n + 1, right_finite)]:
                assert (derivative_tail_sum(expansion, order, tail)
                        + ZetaLinearForm.from_constant(finite)
                        == derivative_tail_sum(expansion, order, whole)), (n, m, order)


def _right_tail_term(p, j):
    """The exact tail of the j-th right series from v = n+1 on."""
    return derivative_tail_sum(_principal_parts(_right_blocks(p, j), f"right j = {j}"),
                               2, p.n + 1)


def test_right_tail_terms_accumulate_to_form():
    p = FormParameters(2, 2)
    total = ZetaLinearForm.from_constant(
        sum(_printed_finite_summand(p, j, nu) for j in range(3) for nu in range(1, 3)))
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
    # one kernel and one chain per kernel, read only through its numerators
    # at the point: the dense quotient chain is never built, nor any kernel
    # multiplied out, and each right j-kernel is built once per cell
    built = _count_chains(monkeypatch)
    chains, orders, blocks = [], set(), []
    build, numerators = DerivativeChain._build, DerivativeChain.numerators
    right_blocks = apery_forms._right_blocks

    def spy_build(chain, *expansion):
        chains.append(chain)
        build(chain, *expansion)

    def spy_numerators(chain, x, order):
        orders.add(order)
        return numerators(chain, x, order)

    def spy_right_blocks(p, j):
        blocks.append((p.n, p.m, j))
        return right_blocks(p, j)

    def refuse(*args):
        raise AssertionError("the audit multiplied a kernel out")

    monkeypatch.setattr(DerivativeChain, "_build", spy_build)
    monkeypatch.setattr(DerivativeChain, "numerators", spy_numerators)
    monkeypatch.setattr(apery_forms, "_right_blocks", spy_right_blocks)
    monkeypatch.setattr(Kernel, "expansion", refuse)
    for module in (polyrat, apery_forms):       # and every binding of it
        monkeypatch.setattr(module, "_linear_product", refuse)
    checks = audit_summands(n_max=3, samples=2, seed=11)
    assert len(chains) == 36
    assert orders == {1, 2}
    assert built == []
    assert sorted(blocks) == sorted({(c.n, c.m, c.j) for c in checks if c.j is not None})


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
        oracle = fraction_values(DerivativeChain(*kernel.expansion()).numerators(x, order))[-1]
        assert str(oracle) == c.values[c.routes.index("oracle")], c


def test_tails_match_the_harmonic_route_on_the_grid():
    # every tail the forms sum on the n <= 12 grid, and the tail past the
    # printed finite summands, equals the route that reads cached harmonic
    # Fractions
    for n in range(13):
        for m in range(n + 1):
            p = FormParameters(n, m)
            for expansion, order, starts in [
                    (_left_expansion(p), 1, (n - m + 1, 2 * n - m + 1)),
                    (_right_expansion(p), 2, (1, n + 1))]:
                for start in starts:
                    assert (derivative_tail_sum(expansion, order, start)
                            == dense_reference.derivative_tail_sum(expansion, order, start)), (
                        n, m, order, start)


def test_weighted_tails_equal_the_scaled_tails_on_the_grid():
    # the weight folded into the integer sums gives the form that scaling
    # the unweighted tail gives, on every tail the forms sum on the n <= 12
    # grid and on the tail past the printed finite summands; a zero
    # coordinate is the exact zero
    for n in range(13):
        for m in range(n + 1):
            p = FormParameters(n, m)
            for expansion, order, starts in [
                    (_left_expansion(p), 1, (n - m + 1, 2 * n - m + 1)),
                    (_right_expansion(p), 2, (1, n + 1))]:
                for start in starts:
                    plain = derivative_tail_sum(expansion, order, start)
                    for weight in (F(-1, 3), F(1, 6)):
                        weighted = derivative_tail_sum(expansion, order, start, weight)
                        assert weighted == weight * plain, (n, m, order, start, weight)
                        coordinates = (weighted.constant,) + weighted.zeta_coefficients
                        assert all(type(c) is F for c in coordinates)
                        if start == starts[0]:      # the form's own tail: z2, z3, z5 vanish
                            assert [weighted.coefficient(s) for s in (2, 3, 5)] == [F(0)] * 3


def test_exact_sides_read_no_harmonic_number(monkeypatch):
    # the exact forms sum their tails from integer rows: with harmonic
    # numbers and rising factorials refused where the tail sums and zeta
    # values live, both sides still equal the recurrence table
    table = recurrence_table(6)

    def refuse(*args):
        raise AssertionError("an exact side read a harmonic number or a rising factorial")

    for module in (exact_arith, zeta_forms):
        monkeypatch.setattr(module, "harmonic", refuse, raising=False)
        monkeypatch.setattr(module, "pochhammer", refuse, raising=False)
    for (n, m), expected in table.items():
        p = FormParameters(n, m)
        assert left_form(p) == expected, (n, m)
        assert right_form(p) == expected, (n, m)
    assert len(table) == 28


def test_audit_values_are_pinned():
    # digest of every exact summand the audit compares, as first recorded;
    # an oracle or formula change that moves any value changes it
    checks = audit_summands(n_max=10, samples=2, seed=0)
    blob = json.dumps([[c.family, c.n, c.m, c.j, c.nu, list(c.routes), list(c.values)]
                       for c in checks], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "3fdeb010915e1ef9082bd18b3d16de57efecaaedd03ed78c10ce48a62827f942")


@pytest.mark.slow
def test_audit_agrees_to_n_30():
    # the audit at scale: every route agrees on every sampled point
    checks = audit_summands(n_max=30, samples=2, seed=0)
    assert len(checks) == 4948
    assert all(check.agree for check in checks)


def test_audit_refuses_a_vacuous_or_invalid_sample():
    # n_max < 0 and samples = 0 once returned [], an audit with no checks,
    # and samples < 0 failed inside random.sample
    for kwargs, name in (({"n_max": -1}, "n_max >= 0, got -1"),
                         ({"n_max": 1, "samples": 0}, "samples >= 1, got 0"),
                         ({"n_max": 1, "samples": -2}, "samples >= 1, got -2")):
        with pytest.raises(RangeError, match=f"need {name}$"):
            audit_summands(**kwargs)


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
    closure's one ``numerators`` call at the cutoff A."""
    cutoffs = []
    numerators = polyrat.DerivativeChain.numerators

    def spy(chain, x, order):
        cutoffs.append(x)
        return numerators(chain, x, order)

    monkeypatch.setattr(polyrat.DerivativeChain, "numerators", spy)
    return cutoffs


def _count_chains(monkeypatch) -> list:
    """Record the order of every quotient chain built."""
    orders = []
    build = polyrat._quotient_chain

    def spy(coeffs, shifts, order):
        orders.append(order)
        return build(coeffs, shifts, order)

    monkeypatch.setattr(polyrat, "_quotient_chain", spy)
    return orders


@pytest.mark.parametrize("numerator, degree", [((0, 1), 0), ((0, 0, 1), 1)],
                         ids=["t-over-t-plus-1", "t-squared-over-t-plus-1"])
def test_series_without_a_closure_raises(numerator, degree, monkeypatch):
    # sum of g' from 1 for g = numerator/(t+1): g does not vanish at infinity,
    # so the closure -g(A) + ... would return a wrong value with a tiny bound
    cutoffs = _closure_cutoffs(monkeypatch)
    with pytest.raises(DivergenceError, match=f"degree {degree} "):
        _series_numeric(Kernel(F(1), ((1, 1, -1),), numerator), 1, 1, TAIL_TARGET)
    assert cutoffs == []


def test_series_refuses_a_pole_right_of_zero():
    # g = 1/(t-1)^3 from v = 2 has no pole on the ray, but the remainder
    # bound's |z + s| >= (1 - alpha) x needs every shift s >= 0
    with pytest.raises(DomainError):
        _series_numeric(Kernel(F(1), ((-1, 1, -3),)), 1, 2, TAIL_TARGET)


def test_remainder_bound_is_pinned_on_small_kernels():
    # C(M) / |K| at order 1 and M = 1, so k = 5 and the Bernoulli weight is
    # 2 |B_4| / 4! = 1/360.
    # g = 1/t^2: D = 0, E = 2, d + k = 7, 7 alpha^2 + 2 alpha - 5 = 0 gives
    # alpha = 5/7, and C(1) / |K| = 1/360 * 5! / ((2/7)^2 (5/7)^5) / 6 =
    # 823543/225000 (the bound at A = 2, S = 1, is that times 2^-6).
    assert F(*apery_forms._depth_factor(0, 2, 1, 1)) == F(823543, 225000)
    # g = -3/5 (t^3 - 2t + 3) / ((t + 1)^2 (t + 3/2)^2): D = 3, E = 4, d + k = 6,
    # 6 alpha^2 + 7 alpha - 5 = 0 gives alpha = 1/2, and C(1) / |K| =
    # 1/360 * 5! * (3/2)^3 / ((1/2)^4 (1/2)^5) / 5 = 576/5 (the bound at
    # A = 2, T(2) = 15, is 3/5 * 576/5 * 15 * 2^-8 = 81/20).
    assert F(*apery_forms._depth_factor(3, 4, 1, 1)) == F(576, 5)


def test_right_side_closes_once(monkeypatch):
    # one closure, at the cutoff the search chooses
    cutoffs = _closure_cutoffs(monkeypatch)
    right_form_numeric(FormParameters(4, 1), 30)
    chosen = apery_forms._cheapest_closure(right_kernel(FormParameters(4, 1)).expansion(),
                                           2, 1, TAIL_TARGET)
    assert cutoffs == [chosen[0]]


def test_cutoff_is_limited(monkeypatch):
    # at (8, 3) and 80 decimals both sides need A = 128 (no depth up to
    # _MAX_DEPTH meets the target at A = 64): below that limit no closure is
    # built and the error names the limit and the target
    cutoffs = _closure_cutoffs(monkeypatch)
    monkeypatch.setattr(apery_forms, "_MAX_CUTOFF", 64)
    for side in (left_form_numeric, right_form_numeric):
        with pytest.raises(DivergenceError,
                           match=f"target 1/1{'0' * 95} at a cutoff up to A = 64$"):
            side(FormParameters(8, 3), 80)
    assert cutoffs == []
    monkeypatch.setattr(apery_forms, "_MAX_CUTOFF", 128)
    for side in (left_form_numeric, right_form_numeric):
        side(FormParameters(8, 3), 80)
    assert cutoffs == [128, 128]


def _chosen_closure(numeric, p, order, monkeypatch, digits=30) -> tuple[int, int]:
    """(A, M) of the one closure of ``numeric(p, digits)``: its ``numerators``
    call at the cutoff A reads the derivatives up to order + 2M - 1."""
    calls = []
    numerators = polyrat.DerivativeChain.numerators

    def spy(chain, x, top):
        calls.append((x, top))
        return numerators(chain, x, top)

    with monkeypatch.context() as patch:
        patch.setattr(polyrat.DerivativeChain, "numerators", spy)
        numeric(p, digits)
    (cutoff, top), = calls
    return cutoff, (top - order + 1) // 2


NUMERIC_SIDES = [(left_form_numeric, left_kernel, 1), (right_form_numeric, right_kernel, 2)]


@pytest.mark.parametrize("n, m", [(0, 0), (1, 1), (2, 0), (3, 2), (4, 1), (8, 3), (12, 5)])
def test_closure_matches_the_fraction_closure(n, m, monkeypatch):
    # the integer closure against the Fraction closure, both sides, at the
    # (A, M) each side chooses at 30 decimals
    p = FormParameters(n, m)
    for numeric, kernel, order in NUMERIC_SIDES:
        cutoff, depth = _chosen_closure(numeric, p, order, monkeypatch)
        chain = DerivativeChain(*kernel(p).expansion())
        assert (zeta_forms._closure(chain, cutoff, order, depth)
                == dense_reference.closure(chain, cutoff, order, depth)), (numeric, cutoff)


def test_zeta_value_and_each_numeric_side_close_once(monkeypatch):
    # one Euler–Maclaurin closure serves zeta(s) and both numeric sides
    assert apery_forms._closure is zeta_forms._closure
    orders, shared = [], zeta_forms._closure

    def spy(chain, cutoff, order, depth):
        orders.append(order)
        return shared(chain, cutoff, order, depth)

    monkeypatch.setattr(zeta_forms, "_closure", spy)
    monkeypatch.setattr(apery_forms, "_closure", spy)
    zeta_forms.zeta_value(4, 30)
    assert orders == [1]
    left_form_numeric(FormParameters(4, 1), 30)
    assert orders == [1, 1]
    right_form_numeric(FormParameters(4, 1), 30)
    assert orders == [1, 1, 2]


def _estimate(expansion, order, start, cutoff, depth):
    """The search's cost estimate (A - start) (D + 1 + F) w + (order + 2M)^2 (D + 1 + E)."""
    coeffs, _, pole_factors = expansion
    size, big_e = len(coeffs), -sum(e for _, e in pole_factors)
    return ((cutoff - start) * (size + len(pole_factors)) * apery_forms._TERM_WEIGHT
            + (order + 2 * depth) ** 2 * (size + big_e))


@pytest.mark.parametrize("n, m", [(0, 0), (1, 1), (2, 0), (3, 2), (4, 1), (8, 3), (12, 5)])
def test_closure_depth_is_the_least_that_meets_the_target(n, m, monkeypatch):
    # each side closes once, at a pair (A, M) that meets the target by the
    # unfactored bound; no smaller M meets it at A, and no pair with A =
    # max(16, start) 2^i up to 4 A and M <= _MAX_DEPTH that meets it has a
    # lower estimate ((8, 3) at 80 decimals, where A is not the least)
    p, digits = FormParameters(n, m), 80 if (n, m) == (8, 3) else 30
    target = F(1, 10 ** (digits + 15))
    for numeric, kernel, order in NUMERIC_SIDES:
        cutoff, depth = _chosen_closure(numeric, p, order, monkeypatch, digits)
        start = n - m + 1 if order == 1 else 1
        expansion = kernel(p).expansion()

        def meets(d, a):
            return dense_reference.remainder_bound(expansion, order, d, a) < target

        assert depth >= 1 and meets(depth, cutoff)
        assert not any(meets(d, cutoff) for d in range(1, depth))
        least = _estimate(expansion, order, start, cutoff, depth)
        a = max(apery_forms._FIRST_CUTOFF, start)
        while a <= 4 * cutoff:
            # the least M that meets the target at a is the cheapest there
            d = next((d for d in range(1, apery_forms._MAX_DEPTH + 1) if meets(d, a)), None)
            assert d is None or _estimate(expansion, order, start, a, d) >= least, (a, d)
            a *= 2


def _factor_expansion(scalar, factors, cofactor):
    """(N, K, [(s, e < 0)]) of scalar * cofactor * prod (t + s)^e, the
    factors merged, as :meth:`Kernel.expansion` returns it, at any rational
    shifts, with its degree."""
    merged = polyrat._merged_shifts(factors)
    coeffs, lead = polyrat._linear_product((s, e) for s, e in merged.items() if e > 0)
    expansion = (polyrat._mul_coeffs(coeffs, cofactor), scalar / lead,
                 [(s, e) for s, e in merged.items() if e < 0])
    return expansion, sum(merged.values()) + len(cofactor) - 1


def test_remainder_bound_matches_the_unfactored_bound():
    # the bound the search returns, C(M) T(A) / A^(E+k-1) with C(M) / |K|
    # memoized per (D, E, order, M), is the bound computed whole at the
    # chosen (A, M); it meets the target there and M - 1 does not, on random
    # expansions with every pole at t <= 0 (the bound reads no shift, so
    # half-integer ones serve as well)
    rng = random.Random(5)
    for _ in range(40):
        poles = [(F(rng.randint(0, 12), 2), -rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
        zeros = [(F(rng.randint(-8, 8), 2), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
        expansion, degree = _factor_expansion(
            F(rng.randint(-9, 9) or 1, rng.randint(1, 9)), poles + zeros,
            tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 3))) + (1,))
        order = max(1, degree + 2) + rng.randint(0, 2)
        for target in (F(1, 10 ** 5), F(1, 10 ** 20), F(1, 10 ** 45)):
            cutoff, depth, num, den = apery_forms._cheapest_closure(expansion, order, 1, target)
            bound = dense_reference.remainder_bound(expansion, order, depth, cutoff)
            assert F(num, den) == bound < target, (expansion, order, target)
            assert depth == 1 or dense_reference.remainder_bound(
                expansion, order, depth - 1, cutoff) >= target, (expansion, order, target)


@pytest.mark.slow
def test_closures_are_pinned_to_n_20(monkeypatch):
    # digest of the (A, M) chosen on both sides of every cell with n <= 20 at
    # 30 decimals, recorded for the least-cost search once both sides of
    # every such cell bracketed the 70-digit reference
    rows = []
    for n in range(21):
        for m in range(n + 1):
            for numeric, _, order in NUMERIC_SIDES:
                closure = _chosen_closure(numeric, FormParameters(n, m), order, monkeypatch)
                rows.append([numeric.__name__, n, m, *closure])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "8f73c6ba23b605615cd265f1f22ce24fc66620df315fcee05dfbf43ed48437ea")


@pytest.mark.parametrize("digits", [0, -3, -20])
@pytest.mark.parametrize("numeric", [left_form_numeric, right_form_numeric])
def test_numeric_sides_refuse_non_positive_digits(numeric, digits, monkeypatch):
    # refused before any work: no kernel is built
    for name in ("left_kernel", "right_kernel"):
        monkeypatch.setattr(apery_forms, name, None)
    with pytest.raises(RangeError, match=f"digits >= 1, got {digits}$"):
        numeric(FormParameters(1, 0), digits)


@pytest.mark.parametrize("numeric, n, m, order", [(left_form_numeric, 12, 5, 1),
                                                   (right_form_numeric, 4, 1, 2)],
                         ids=["left-12-5", "right-4-1"])
def test_numeric_side_builds_one_chain(numeric, n, m, order, monkeypatch):
    # the exact sum builds the one dense chain of the side, and only up to
    # the order it sums; the closure's derivatives come from the point
    orders = _count_chains(monkeypatch)
    numeric(FormParameters(n, m), 30)
    assert orders == [order]


@pytest.mark.parametrize("n, m", [(0, 0), (1, 1), (2, 0), (3, 2), (4, 1), (8, 3), (12, 5),
                                  (16, 7), (20, 9), (30, 14)])
def test_numeric_routes_bracket_the_exact_value(n, m):
    p = FormParameters(n, m)
    reference = evaluate_decimal(recurrence_table(n)[(n, m)], 70)
    for numeric in (left_form_numeric(p, 30), right_form_numeric(p, 30)):
        assert (abs(numeric.value() - reference.value()) + reference.error_bound
                <= numeric.error_bound)
        # the bound is in tenths of the last digit, so it prints at any size
        assert str(numeric) == numeric.decimal() and repr(numeric).startswith(
            f"FixedPointNumber(mantissa={numeric.mantissa}, scale=30, ")


@pytest.mark.slow
def test_numeric_routes_bracket_the_exact_value_to_n_20():
    for (n, m), exact in recurrence_table(20).items():
        p = FormParameters(n, m)
        reference = evaluate_decimal(exact, 70)
        for numeric in (left_form_numeric(p, 30), right_form_numeric(p, 30)):
            assert (abs(numeric.value() - reference.value()) + reference.error_bound
                    <= numeric.error_bound), (n, m)


@pytest.mark.slow
@pytest.mark.parametrize("n, m, digits", [(60, 0, 104), (60, 60, 91)])
def test_numeric_routes_bracket_the_exact_value_at_scale(n, m, digits, monkeypatch):
    # both sides bracket the exact value at n = 60, one closure each, and
    # the right side's cutoff stays at 4,096 or below
    p = FormParameters(n, m)
    reference = evaluate_decimal(recurrence_table(n)[(n, m)], digits + 10)
    cutoffs = _closure_cutoffs(monkeypatch)
    for numeric in (left_form_numeric(p, digits), right_form_numeric(p, digits)):
        assert (abs(numeric.value() - reference.value()) + reference.error_bound
                <= numeric.error_bound), numeric
    assert len(cutoffs) == 2 and cutoffs[1] <= 4096


def test_numeric_values_are_pinned():
    # digest of (mantissa, scale, error bound) of both numeric sides at 30
    # digits, recorded once both sides bracketed the 70-digit reference on
    # every cell here, bounds in tenths of the last digit; a sum that drops,
    # repeats or mis-scales a term, or a changed cutoff, closure or remainder
    # bound past a tenth, changes it
    rows = []
    for n, m in ((0, 0), (1, 1), (2, 0), (3, 2), (4, 1), (8, 3), (12, 5)):
        for side in (left_form_numeric, right_form_numeric):
            x = side(FormParameters(n, m), 30)
            rows.append([side.__name__, n, m, x.mantissa, x.scale, str(x.error_bound)])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "c8e107f69666f3ea1ecdd464ef2d47231d3de847aa9573eb79c5ef1ee5721c4c")
