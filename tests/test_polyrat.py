"""Unit tests for polynomials, factored products, derivative chains, and
the dense partial-fraction reference."""

import random
from fractions import Fraction
from math import floor, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apery4 import (FormParameters, LinearFactorProduct, PartialFractions,
                    PoleError, PoleExpansion, RationalFunction, left_kernel,
                    pochhammer, right_kernel_term)
from apery4.polyrat import DerivativeChain
from dense_reference import (FactorizationError, Polynomial, chain_values,
                             fraction_expansion, partial_fractions)

F = Fraction

# (2t + 1) / (t^2 (t + 1)) = 1/t + 1/t^2 - 1/(t+1), as (coefficient, shift, power)
WORKED_PARTS = ((F(1), F(0), 1), (F(1), F(0), 2), (F(-1), F(1), 1))


def _chain(prod: LinearFactorProduct, order: int) -> DerivativeChain:
    """The chain of ``prod`` from its integer expansion."""
    return DerivativeChain(*prod._integer_parts(), order)


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
        values = _chain(prod, 3).values(x)
        assert values == [_parts_derivative(WORKED_PARTS, x, k) for k in range(4)]


def test_factored_derivative_values_against_quotient_rule():
    chain = DerivativeChain([1, 2], F(1), ((F(0), 2), (F(1), 1)), 4)
    values = chain.values(F(1, 2))
    assert values == [_parts_derivative(WORKED_PARTS, F(1, 2), k) for k in range(5)]
    with pytest.raises(PoleError):
        chain.values(-1)


def _random_product(rng: random.Random) -> LinearFactorProduct:
    """A product with half-integer shifts, poles up to order 3, a Fraction scalar."""
    factors = [(F(rng.randint(-6, 6), 2), rng.choice((-3, -2, -1, 1, 2)))
               for _ in range(rng.randint(1, 6))]
    return LinearFactorProduct.of(F(rng.randint(-9, 9) or 1, rng.randint(1, 9)), factors)


@pytest.mark.parametrize("seed", range(12))
def test_factored_derivative_values_match_partial_fraction_reference(seed):
    rng = random.Random(seed)
    prod = _random_product(rng)
    polynomial_part, expansion = partial_fractions(prod.expand(), prod.denominator_shifts())
    parts = [(F(c, expansion.denominator), term.shift, j) for term in expansion.terms
             for j, c in enumerate(term.numerators, start=1)]
    poles = set(prod.denominator_shifts())
    points = [F(rng.randint(-20, 20), rng.choice((3, 4, 7))) for _ in range(3)]
    chain = _chain(prod, 6)
    for x in [x for x in points if -x not in poles]:
        values = chain.values(x)
        polynomial = polynomial_part
        for d in range(7):
            # sum A_j (-1)^d (j)_d / (x + p)^(j + d), plus the polynomial part
            assert values[d] == polynomial(x) + _parts_derivative(parts, x, d)
            polynomial = polynomial.derivative()


@pytest.mark.parametrize("seed", range(12))
def test_values_at_the_point_match_the_dense_chain(seed):
    # the Taylor route of values against N_d of the dense chain at the point
    rng = random.Random(seed)
    prod = _random_product(rng)
    poles = set(prod.denominator_shifts())
    points = [F(rng.randint(-20, 20), rng.choice((1, 2, 3, 4, 7))) for _ in range(6)]
    for order in range(7):
        chain = _chain(prod, order)
        for x in [x for x in points if -x not in poles]:
            assert chain.values(x) == chain_values(chain, x), (order, x)
        for shift in poles:
            for route in (chain.values, lambda x: chain_values(chain, x)):
                with pytest.raises(PoleError):
                    route(-shift)


@pytest.mark.parametrize("seed", range(6))
def test_factored_derivative_sum_matches_termwise_sum(seed):
    rng = random.Random(seed)
    prod = _random_product(rng)
    chain = _chain(prod, 2)
    start = 4                               # beyond every shift -3..3
    for order in (0, 1, 2):
        for stop in (start - 2, start, start + 1, start + rng.randint(2, 40)):
            termwise = sum((chain.values(v)[order] for v in range(start, stop)), start=F(0))
            assert chain.sum(order, start, stop) == termwise
    with pytest.raises(PoleError):
        DerivativeChain([1], F(1), ((F(-5), 1),), 1).sum(1, 4, 8)


def _chain_routes_agree(prod: LinearFactorProduct) -> None:
    """The chain of prod's integer expansion against the chain of its Fraction
    expansion (denominators cleared here): values at orders 0..2 and sums
    over several ranges."""
    num, _ = fraction_expansion(prod)
    clear = lcm(*(c.denominator for c in num.coefficients))
    old = DerivativeChain([c.numerator * (clear // c.denominator) for c in num.coefficients],
                          F(1, clear), tuple((s, -e) for s, e in prod.factors if e < 0), 2)
    new = _chain(prod, 2)
    assert new.order == old.order == 2
    start = max((floor(-s) + 1 for s in prod.denominator_shifts()), default=0)
    for x in (start, start + 3, start + F(1, 2), start + F(5, 3)):
        assert new.values(x) == old.values(x)
    for order in (0, 1, 2):
        for stop in (start, start + 1, start + 2, start + 13, start + 64):
            assert new.sum(order, start, stop) == old.sum(order, start, stop)


@pytest.mark.parametrize("seed", range(12))
def test_chain_from_product_matches_dense_route_on_random_products(seed):
    _chain_routes_agree(_random_product(random.Random(seed)))


@pytest.mark.parametrize("n", range(7))
def test_chain_from_product_matches_dense_route_on_kernels(n):
    for m in range(n + 1):
        p = FormParameters(n, m)
        _chain_routes_agree(left_kernel(p))
        for j in range(n + 1):
            _chain_routes_agree(right_kernel_term(p, j))


@pytest.mark.parametrize("prod", [LinearFactorProduct.of(F(-3, 2)),
                                  LinearFactorProduct.of(0, [(F(1, 2), -2), (F(-40), 1)])],
                         ids=["empty-product", "zero-scalar"])
def test_chain_from_product_matches_dense_route_on_degenerate_products(prod):
    _chain_routes_agree(prod)


def test_chain_sums_every_order_it_carries():
    # the dense chain is built up to the first order summed and rebuilt for a
    # higher one: sums taken in any order of orders match the termwise sums
    chain = DerivativeChain([-300, 1], F(1), ((F(0), 3), (F(1, 2), 1)), 2)
    termwise = [sum((chain.values(v)[order] for v in range(1, 40)), start=F(0))
                for order in range(3)]
    orders = (1, 2, 0, 1)
    assert [chain.sum(order, 1, 40) for order in orders] == [termwise[o] for o in orders]


def test_chain_rejects_orders_it_does_not_carry():
    chain = DerivativeChain([1], F(1), ((F(1), 2),), 2)
    assert chain.order == 2
    for order in (-1, 3):
        with pytest.raises(ValueError):
            chain.sum(order, 0, 4)
    with pytest.raises(ValueError):
        DerivativeChain([1], F(1), ((F(1), 2),), -1)


@pytest.mark.parametrize("seed", range(40))
def test_integer_expansion_matches_fraction_powers(seed):
    rng = random.Random(seed)
    scalar = rng.choice((0, -1, 7, F(-5, 6), F(9, 4)))
    factors = [(F(rng.randint(-9, 9), rng.choice((1, 2, 3))), rng.choice((-2, -1, 1, 2, 3)))
               for _ in range(rng.randint(0, 6))]
    prod = LinearFactorProduct.of(scalar, factors)
    num, den = fraction_expansion(prod)
    assert prod.expand_parts() == (num, tuple((s, -e) for s, e in prod.factors if e < 0))
    expected = (RationalFunction(num, den) if not num.is_zero
                else RationalFunction(Polynomial(), Polynomial.one()))
    assert prod.expand() == expected


@pytest.mark.parametrize("scalar", [0, -3, F(2, 7)])
def test_integer_expansion_of_the_empty_product(scalar):
    prod = LinearFactorProduct.of(scalar)
    assert prod.expand_parts() == (Polynomial.constant(scalar), ())
    assert prod.expand() == RationalFunction(Polynomial.constant(scalar), Polynomial.one())


# ---------------------------------------------------------------------------
# partial fractions
# ---------------------------------------------------------------------------


def test_partial_fractions_worked_example():
    # (2t + 1) / (t^2 (t + 1)) = 1/t + 1/t^2 - 1/(t+1)
    f = RationalFunction(Polynomial([1, 2]),
                         Polynomial.variable() ** 2 * Polynomial([1, 1]))
    polynomial, expansion = partial_fractions(f, [F(0), F(1), F(5)])
    assert polynomial.is_zero
    by_shift = {term.shift: term.numerators for term in expansion.terms}
    assert by_shift == {F(0): (1, 1), F(1): (-1,)}
    assert expansion.denominator == 1


def test_partial_fractions_with_polynomial_part():
    # (t^3 + 1) / (t + 1) in lowest terms is t^2 - t + 1: no pole left
    f = RationalFunction(Polynomial([1, -1, 1]), Polynomial.one())
    polynomial, expansion = partial_fractions(f, [F(1)])
    assert polynomial == Polynomial([1, -1, 1])
    assert expansion.terms == ()


def test_partial_fractions_drops_a_cancelled_pole():
    # (t^3 + 1) / (t + 1) unreduced: the factor cancels, leaving no term
    f = RationalFunction(Polynomial([1, 0, 0, 1]), Polynomial([1, 1]))
    polynomial, expansion = partial_fractions(f, [1])
    assert expansion.terms == ()
    assert polynomial == Polynomial([1, -1, 1])


def test_partial_fractions_trims_cancelled_orders():
    # (t+1)(t+2) / ((t+1)^2 (t+2)) = 1/(t+1): order 1 at -1, no pole at -2
    f = RationalFunction(Polynomial([2, 3, 1]), Polynomial([1, 1]) ** 2 * Polynomial([2, 1]))
    polynomial, expansion = partial_fractions(f, [1, 2])
    assert polynomial.is_zero
    assert {term.shift: term.numerators for term in expansion.terms} == {F(1): (1,)}
    assert expansion.denominator == 1


def test_partial_fractions_are_reduced_to_one_least_denominator():
    # 1 / (t (t + 2)) = (1/2) / t - (1/2) / (t + 2)
    f = RationalFunction(Polynomial.one(), Polynomial([0, 2, 1]))
    polynomial, expansion = partial_fractions(f, [0, 2])
    assert polynomial.is_zero and expansion.denominator == 2
    assert [term.numerators for term in expansion.terms] == [(1,), (-1,)]
    # every construction reduces, so equal values compare equal
    same = PartialFractions((PoleExpansion(F(0), (-3,)), PoleExpansion(F(2), (3,))), -6)
    assert same == expansion
    with pytest.raises(ZeroDivisionError):
        PartialFractions((), 0)


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
    polynomial, expansion = partial_fractions(f, prod.denominator_shifts())
    parts = [(F(c, expansion.denominator), term.shift, j) for term in expansion.terms
             for j, c in enumerate(term.numerators, start=1)]
    # f - (polynomial part + parts) = R / D with deg R <= deg f.num + deg D,
    # so agreement at that many + 1 points off the poles proves R = 0
    for x in range(4, 5 + f.numerator.degree + f.denominator.degree):
        assert (polynomial(x) + _parts_derivative(parts, x, 0)
                == prod.value_at(x))
