"""Unit tests for polynomials, factored products, and partial fractions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apery4 import (FactorizationError, LinearFactorProduct, PartialFractions,
                    PoleError, PoleExpansion, Polynomial, RationalFunction,
                    factored_derivative_values, partial_fractions, pochhammer)
from apery4.polyrat import derivative_keeps_sign, factored_derivative_sum

F = Fraction

# (2t + 1) / (t^2 (t + 1)) = 1/t + 1/t^2 - 1/(t+1), as (coefficient, shift, power)
WORKED_PARTS = ((F(1), F(0), 1), (F(1), F(0), 2), (F(-1), F(1), 1))


def _parts_derivative(parts, x, order):
    """d^order/dt^order of sum c / (t + s)^j at x, termwise."""
    return sum((c * (-1) ** order * pochhammer(j, order) / (x + s) ** (j + order)
                for c, s, j in parts), start=F(0))


# ---------------------------------------------------------------------------
# Polynomial
# ---------------------------------------------------------------------------


def test_polynomial_trims_trailing_zeros():
    assert Polynomial([1, 2, 0, 0]) == Polynomial([1, 2])
    assert Polynomial([0]).is_zero
    assert Polynomial().degree == -1
    assert Polynomial([5]).degree == 0


def test_polynomial_arithmetic_and_evaluation():
    t = Polynomial.variable()
    p = (t + Polynomial.one()) * (t - Polynomial.constant(2))
    assert p == Polynomial([-2, -1, 1])
    assert p(3) == 4
    assert p(F(1, 2)) == F(-9, 4)
    assert p.derivative() == Polynomial([-1, 2])
    assert (p * 3).leading_coefficient == 3


def test_polynomial_divmod():
    p = Polynomial([-2, -1, 1])  # (t + 1)(t - 2)
    quotient, remainder = p.divmod(Polynomial([1, 1]))
    assert quotient == Polynomial([-2, 1]) and remainder.is_zero
    quotient, remainder = p.divmod(Polynomial([0, 0, 0, 1]))
    assert quotient.is_zero and remainder == p
    with pytest.raises(ZeroDivisionError):
        p.divmod(Polynomial.zero())


def test_div_linear_is_division_by_t_minus_root():
    p = Polynomial([3, 0, 2, 1])
    quotient, remainder = p.div_linear(2)
    assert remainder == p(2)
    t = Polynomial.variable()
    assert quotient * (t - Polynomial.constant(2)) + Polynomial.constant(remainder) == p


def test_taylor_prefix_recovers_shift():
    p = Polynomial([1, -3, 0, 2])
    c = F(1, 2)
    prefix = p.taylor_prefix(c, 4)
    # both sides have degree 3, so agreement at 4 points is identity
    for x in (F(7, 3), 0, 1, -2):
        assert sum(a * (x - c) ** i for i, a in enumerate(prefix)) == p(x)


# ---------------------------------------------------------------------------
# LinearFactorProduct
# ---------------------------------------------------------------------------


def test_factor_product_merges_shifts():
    prod = LinearFactorProduct.of(2, [(F(1), 1), (F(1), 2), (F(0), -1)])
    assert prod.factors == ((F(0), -1), (F(1), 3))
    assert prod.numerator_degree == 3
    assert prod.denominator_degree == 1
    assert prod.degree_gap == -2


def test_factor_product_block_and_value():
    prod = LinearFactorProduct.of(1, [(0, 1), (1, 1), (2, 1)])  # t (t+1) (t+2)
    assert prod.value_at(1) == 6
    assert prod.value_at(F(1, 2)) == F(15, 8)
    inverse = LinearFactorProduct.of(1, [(0, -1), (1, -1), (2, -1)])
    with pytest.raises(PoleError):
        inverse.value_at(-2)


def test_factor_product_zero_exponents_drop():
    prod = LinearFactorProduct.of(1, [(F(3), 1), (F(3), -1)])
    assert prod.factors == ()
    assert prod.value_at(0) == 1


def test_expand_matches_pointwise_values():
    prod = LinearFactorProduct.of(F(3, 2), [(F(0), -1), (F(1, 2), 2), (F(-2), -1)])
    f = prod.expand()
    for x in (1, 3, F(7, 2)):
        assert f.evaluate(x) == prod.value_at(x)
    with pytest.raises(PoleError):
        f.evaluate(0)


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)),
                min_size=1, max_size=5))
def test_expand_is_order_independent(pairs):
    a = LinearFactorProduct.of(1, [(F(s), e) for s, e in pairs])
    b = LinearFactorProduct.of(1, [(F(s), e) for s, e in reversed(pairs)])
    assert a.factors == b.factors
    assert a.expand() == b.expand()


def test_derivative_values_match_symbolic_derivative():
    # 2 (t + 1/2) / (t^2 (t + 1)) is the worked example
    prod = LinearFactorProduct.of(2, [(F(0), -2), (F(1, 2), 1), (F(1), -1)])
    for x in (F(1, 2), 3):
        values = prod.derivative_values_at(x, 3)
        assert values == [_parts_derivative(WORKED_PARTS, x, k) for k in range(4)]


def test_factored_derivative_values_against_quotient_rule():
    num = Polynomial([1, 2])
    den_factors = ((F(0), 2), (F(1), 1))
    values = factored_derivative_values(num, den_factors, F(1, 2), 4)
    assert values == [_parts_derivative(WORKED_PARTS, F(1, 2), k) for k in range(5)]
    with pytest.raises(PoleError):
        factored_derivative_values(num, den_factors, -1, 1)


def _random_product(rng: random.Random) -> LinearFactorProduct:
    """A product with half-integer shifts, poles up to order 3, a Fraction scalar."""
    factors = [(F(rng.randint(-6, 6), 2), rng.choice((-3, -2, -1, 1, 2)))
               for _ in range(rng.randint(1, 6))]
    return LinearFactorProduct.of(F(rng.randint(-9, 9) or 1, rng.randint(1, 9)), factors)


@pytest.mark.parametrize("seed", range(12))
def test_factored_derivative_values_match_partial_fraction_reference(seed):
    rng = random.Random(seed)
    prod = _random_product(rng)
    expansion = partial_fractions(prod.expand(), prod.denominator_shifts())
    parts = [(F(c, expansion.denominator), term.shift, j) for term in expansion.terms
             for j, c in enumerate(term.numerators, start=1)]
    poles = set(prod.denominator_shifts())
    points = [F(rng.randint(-20, 20), rng.choice((3, 4, 7))) for _ in range(3)]
    for x in [x for x in points if -x not in poles]:
        values = factored_derivative_values(*prod.expand_parts(), x, 6)
        polynomial = expansion.polynomial_part
        for d in range(7):
            # sum A_j (-1)^d (j)_d / (x + p)^(j + d), plus the polynomial part
            assert values[d] == polynomial(x) + _parts_derivative(parts, x, d)
            polynomial = polynomial.derivative()


@pytest.mark.parametrize("seed", range(6))
def test_factored_derivative_sum_matches_termwise_sum(seed):
    rng = random.Random(seed)
    prod = _random_product(rng)
    parts = prod.expand_parts()
    start = 4                               # beyond every shift -3..3
    for order in (0, 1, 2):
        for stop in (start - 2, start, start + 1, start + rng.randint(2, 40)):
            termwise = sum((factored_derivative_values(*parts, v, order)[order]
                            for v in range(start, stop)), start=F(0))
            assert factored_derivative_sum(*parts, order, start, stop) == termwise
    with pytest.raises(PoleError):
        factored_derivative_sum(Polynomial.one(), ((F(-5), 1),), 1, 4, 8)


def test_derivative_keeps_sign_sees_a_sign_change():
    # (t - 300) / t^3 changes sign at t = 300 and nowhere beyond it
    num, den_factors = Polynomial([-300, 1]), ((F(0), 3),)
    assert not derivative_keeps_sign(num, den_factors, 0, 256)
    assert derivative_keeps_sign(num, den_factors, 0, 300)
    # f' = (900 - 2t) / t^4 changes sign at t = 450
    assert not derivative_keeps_sign(num, den_factors, 1, 300)
    assert derivative_keeps_sign(num, den_factors, 1, 450)
    with pytest.raises(ValueError):
        derivative_keeps_sign(num, ((F(-500), 1),), 0, 256)


# ---------------------------------------------------------------------------
# partial fractions
# ---------------------------------------------------------------------------


def test_partial_fractions_worked_example():
    # (2t + 1) / (t^2 (t + 1)) = 1/t + 1/t^2 - 1/(t+1)
    f = RationalFunction(Polynomial([1, 2]),
                         Polynomial.variable() ** 2 * Polynomial([1, 1]))
    expansion = partial_fractions(f, [F(0), F(1), F(5)])
    assert expansion.polynomial_part.is_zero
    by_shift = {term.shift: term.numerators for term in expansion.terms}
    assert by_shift == {F(0): (1, 1), F(1): (-1,)}
    assert expansion.denominator == 1


def test_partial_fractions_with_polynomial_part():
    # (t^3 + 1) / (t + 1) in lowest terms is t^2 - t + 1: no pole left
    f = RationalFunction(Polynomial([1, -1, 1]), Polynomial.one())
    expansion = partial_fractions(f, [F(1)])
    assert expansion.polynomial_part == Polynomial([1, -1, 1])
    assert expansion.terms == ()


def test_partial_fractions_drops_a_cancelled_pole():
    # (t^3 + 1) / (t + 1) unreduced: the factor cancels, leaving no term
    f = RationalFunction(Polynomial([1, 0, 0, 1]), Polynomial([1, 1]))
    expansion = partial_fractions(f, [1])
    assert expansion.terms == ()
    assert expansion.polynomial_part == Polynomial([1, -1, 1])


def test_partial_fractions_trims_cancelled_orders():
    # (t+1)(t+2) / ((t+1)^2 (t+2)) = 1/(t+1): order 1 at -1, no pole at -2
    f = RationalFunction(Polynomial([2, 3, 1]), Polynomial([1, 1]) ** 2 * Polynomial([2, 1]))
    expansion = partial_fractions(f, [1, 2])
    assert {term.shift: term.numerators for term in expansion.terms} == {F(1): (1,)}
    assert expansion.denominator == 1


def test_partial_fractions_are_reduced_to_one_least_denominator():
    # 1 / (t (t + 2)) = (1/2) / t - (1/2) / (t + 2)
    f = RationalFunction(Polynomial.one(), Polynomial([0, 2, 1]))
    expansion = partial_fractions(f, [0, 2])
    assert expansion.denominator == 2
    assert [term.numerators for term in expansion.terms] == [(1,), (-1,)]
    # every construction reduces, so equal values compare equal
    same = PartialFractions(Polynomial(), (PoleExpansion(F(0), (-3,)),
                                           PoleExpansion(F(2), (3,))), -6)
    assert same == expansion
    with pytest.raises(ZeroDivisionError):
        PartialFractions(Polynomial(), (), 0)


def test_partial_fractions_needs_all_poles_offered():
    f = RationalFunction(Polynomial.one(), Polynomial.variable() * Polynomial([1, 1]))
    with pytest.raises(FactorizationError):
        partial_fractions(f, [F(0)])  # the pole at -1 is not covered


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, -1)),
                min_size=1, max_size=4),
       st.lists(st.integers(-2, 2), min_size=0, max_size=2))
def test_partial_fractions_round_trip(den_pairs, num_roots):
    factors = [(F(s), e) for s, e in den_pairs]
    factors += [(F(r), 1) for r in num_roots]
    prod = LinearFactorProduct.of(1, factors)
    f = prod.expand()
    expansion = partial_fractions(f, prod.denominator_shifts())
    parts = [(F(c, expansion.denominator), term.shift, j) for term in expansion.terms
             for j, c in enumerate(term.numerators, start=1)]
    # f - (polynomial part + parts) = R / D with deg R <= deg f.num + deg D,
    # so agreement at that many + 1 points off the poles proves R = 0
    for x in range(4, 5 + f.numerator.degree + f.denominator.degree):
        assert (expansion.polynomial_part(x) + _parts_derivative(parts, x, 0)
                == prod.value_at(x))
