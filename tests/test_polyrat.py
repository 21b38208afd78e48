"""Unit tests for the dense reference polynomials, the flattened
LinearFactorProduct, derivative chains, and the dense partial-fraction
reference."""

import random
from fractions import Fraction
from math import floor, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference
from apery4 import (DomainError, FormParameters, Kernel, PartialFractions, PoleError,
                    RangeError, left_kernel, pochhammer, polyrat, right_kernel, zeta_forms)
from apery4.apery_forms import _left_expansion, _right_blocks, _right_expansion
from apery4.polyrat import DerivativeChain, LinearFactorProduct
from dense_reference import (FactorizationError, Polynomial, chain_values, flattened,
                             fraction_expansion, fraction_values, kernel_values,
                             partial_fractions, poles)

F = Fraction

# (2t + 1) / (t^2 (t + 1)) = 1/t + 1/t^2 - 1/(t+1), as (coefficient, shift, power)
WORKED_PARTS = ((F(1), F(0), 1), (F(1), F(0), 2), (F(-1), F(1), 1))


def _chain(kernel: Kernel) -> DerivativeChain:
    """The chain of ``kernel`` from its integer expansion."""
    return DerivativeChain(*kernel.expansion())


def _loose(scalar, factors) -> Kernel:
    """A kernel of loose linear factors (shift, exponent) only."""
    return Kernel(F(scalar), (), tuple((F(s), e) for s, e in factors))


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


def test_package_polynomial_is_an_immutable_value():
    # the dense form LinearFactorProduct.expand returns, not the reference's
    p = polyrat.Polynomial([1, 2, 0])
    with pytest.raises(AttributeError):
        p._coeffs = (5,)
    with pytest.raises(AttributeError):
        del p._coeffs
    assert p.coefficients == (1, 2)
    assert p == polyrat.Polynomial([1, 2]) and hash(p) == hash(polyrat.Polynomial([1, 2]))
    assert p != polyrat.Polynomial([1, 3]) and p != (F(1), F(2))


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


def test_factor_product_zero_exponents_drop():
    prod = LinearFactorProduct.of(1, [(F(3), 1), (F(3), -1)])
    assert prod.factors == ()


def test_expand_matches_pointwise_values():
    # the dense reference's values of the same factors, read by its own Horner
    factors = [(F(0), -1), (F(1, 2), 2), (F(-2), -1)]
    f = LinearFactorProduct.of(F(3, 2), factors).expand()
    num, den = Polynomial(f.numerator.coefficients), Polynomial(f.denominator.coefficients)
    points = (1, 3, F(7, 2))
    assert [num(x) / den(x) for x in points] == kernel_values(_loose(F(3, 2), factors), points)


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)),
                min_size=1, max_size=5))
def test_expand_is_order_independent(pairs):
    a = LinearFactorProduct.of(1, [(F(s), e) for s, e in pairs])
    b = LinearFactorProduct.of(1, [(F(s), e) for s, e in reversed(pairs)])
    assert a.factors == b.factors
    fa, fb = a.expand(), b.expand()
    assert (fa.numerator.coefficients, fa.denominator.coefficients) == (
        fb.numerator.coefficients, fb.denominator.coefficients)


def test_derivative_values_match_symbolic_derivative():
    # 2 (t + 1/2) / (t^2 (t + 1)) is the worked example
    kernel = _loose(2, [(0, -2), (F(1, 2), 1), (1, -1)])
    for x in (1, 3, -4):
        values = fraction_values(_chain(kernel).numerators(x, 3))
        assert values == [_parts_derivative(WORKED_PARTS, x, k) for k in range(4)]


def test_factored_derivative_values_against_quotient_rule():
    chain = DerivativeChain([1, 2], F(1), ((F(0), -2), (F(1), -1)))
    values = fraction_values(chain.numerators(2, 4))
    assert values == [_parts_derivative(WORKED_PARTS, 2, k) for k in range(5)]
    with pytest.raises(PoleError):
        chain.numerators(-1, 4)


def _random_product(rng: random.Random) -> Kernel:
    """A product with integer poles up to order 3, factors at integer and
    half-integer shifts in its numerator, and a Fraction scalar."""
    factors = []
    for _ in range(rng.randint(1, 6)):
        shift = F(rng.randint(-6, 6), 2)
        exponents = (-3, -2, -1, 1, 2) if shift.denominator == 1 else (1, 2)
        factors.append((shift, rng.choice(exponents)))
    return _loose(F(rng.randint(-9, 9) or 1, rng.randint(1, 9)), factors)


@pytest.mark.parametrize("seed", range(12))
def test_factored_derivative_values_match_partial_fraction_reference(seed):
    rng = random.Random(seed)
    kernel = _random_product(rng)
    polynomial_part, expansion = partial_fractions(*fraction_expansion(kernel), poles(kernel))
    parts = [(F(c, expansion.denominator), shift, j) for shift, numerators in expansion.terms
             for j, c in enumerate(numerators, start=1)]
    shifts = set(poles(kernel))
    points = [rng.randint(-20, 20) for _ in range(3)]
    chain = _chain(kernel)
    for x in [x for x in points if -x not in shifts]:
        values = fraction_values(chain.numerators(x, 6))
        polynomial = polynomial_part
        for d in range(7):
            # sum A_j (-1)^d (j)_d / (x + p)^(j + d), plus the polynomial part
            assert values[d] == polynomial(x) + _parts_derivative(parts, x, d)
            polynomial = polynomial.derivative()


@pytest.mark.parametrize("seed", range(12))
def test_values_at_the_point_match_the_dense_chain(seed):
    # the Taylor route of values against N_d of the dense chain at the point
    rng = random.Random(seed)
    kernel = _random_product(rng)
    shifts = set(poles(kernel))
    points = [rng.randint(-20, 20) for _ in range(6)]
    chain = _chain(kernel)

    def values(x, order):
        return fraction_values(chain.numerators(x, order))

    for order in range(7):
        for x in [x for x in points if -x not in shifts]:
            assert values(x, order) == chain_values(chain, x, order), (order, x)
        for shift in shifts:
            for route in (values, lambda x, order: chain_values(chain, x, order)):
                with pytest.raises(PoleError):
                    route(-shift, order)


@pytest.mark.parametrize("seed", range(6))
def test_factored_derivative_sum_matches_termwise_sum(seed):
    rng = random.Random(seed)
    chain = _chain(_random_product(rng))
    start = 4                               # beyond every shift -3..3
    for order in (0, 1, 2):
        for stop in (start - 2, start, start + 1, start + rng.randint(2, 40)):
            termwise = sum((fraction_values(chain.numerators(v, 2))[order]
                            for v in range(start, stop)), start=F(0))
            assert chain.sum(order, start, stop) == termwise
    with pytest.raises(PoleError):
        DerivativeChain([1], F(1), ((F(-5), -1),)).sum(1, 4, 8)


@pytest.mark.parametrize("seed", range(8))
def test_closure_matches_the_fraction_closure_on_random_products(seed):
    # the integer closure against the Fraction closure past every pole
    rng = random.Random(seed)
    chain = _chain(_random_product(rng))
    for cutoff, order, depth in [(4, 1, 1), (5, 2, 3), (9, 1, 6), (16, 3, 2), (128, 2, 9)]:
        assert (zeta_forms._closure(chain, cutoff, order, depth)
                == dense_reference.closure(chain, cutoff, order, depth)), (cutoff, order, depth)


def _chain_routes_agree(kernel: Kernel) -> None:
    """The chain of the kernel's integer expansion and the chain on its
    cofactor and linear factors against the chain of its Fraction expansion
    (denominators cleared here): values at orders 0..2 and sums over several
    ranges."""
    num, _ = fraction_expansion(kernel)
    clear = lcm(*(c.denominator for c in num.coefficients))
    old = DerivativeChain([c.numerator * (clear // c.denominator) for c in num.coefficients],
                          F(1, clear), tuple((s, e) for s, e in flattened(kernel) if e < 0))
    start = max((floor(-s) + 1 for s in poles(kernel)), default=0)
    for new in (_chain(kernel),
                DerivativeChain(kernel.cofactor, kernel.scalar, kernel.factors.items())):
        for x in (start, start + 1, start + 3):
            assert fraction_values(new.numerators(x, 2)) == fraction_values(old.numerators(x, 2))
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
        _chain_routes_agree(right_kernel(p))
        for j in range(n + 1):
            _chain_routes_agree(_right_blocks(p, j))


@pytest.mark.parametrize("kernel", [_loose(F(-3, 2), []),
                                    _loose(0, [(1, -2), (-40, 1)])],
                         ids=["empty-product", "zero-scalar"])
def test_chain_from_product_matches_dense_route_on_degenerate_products(kernel):
    _chain_routes_agree(kernel)


def test_chain_sums_every_order_it_carries():
    # each sum builds the dense chain up to its own order: sums taken in any
    # order of orders match the termwise sums
    chain = DerivativeChain([-300, 1], F(1), ((F(0), -3), (F(2), -1)))
    termwise = [sum((fraction_values(chain.numerators(v, 2))[order] for v in range(1, 40)),
                    start=F(0)) for order in range(3)]
    orders = (1, 2, 0, 1)
    assert [chain.sum(order, 1, 40) for order in orders] == [termwise[o] for o in orders]


def test_chain_rejects_orders_it_does_not_carry():
    # the order comes with each call; no chain carries a negative one
    chain = DerivativeChain([1], F(1), ((F(1), -2),))
    with pytest.raises(ValueError):
        chain.sum(-1, 0, 4)
    with pytest.raises(ValueError):
        chain.numerators(0, -1)


def test_chain_refuses_a_shift_that_is_not_an_integer():
    # every pole of the package's kernels lies at an integer
    # and a numerator factor may sit at any rational shift
    DerivativeChain([1], F(1), ((F(4, 2), -2), (3, -1), (F(1, 2), 1)))
    with pytest.raises(DomainError, match="pole shift must be an integer, got 1/2"):
        DerivativeChain([1], F(1), ((F(0), -2), (F(1, 2), -1)))


def test_chain_refuses_a_point_that_is_not_an_integer():
    # numerators and sum read the chain at integers only
    chain = DerivativeChain([1, 2], F(1), ((F(0), -2), (F(1), -1)))
    assert chain.numerators(F(6, 3), 1) == chain.numerators(2, 1)
    assert chain.sum(1, F(2), 9) == chain.sum(1, 2, 9)
    for call in (lambda: chain.numerators(F(1, 2), 1), lambda: chain.sum(1, F(3, 2), 9),
                 lambda: chain.sum(1, 2, F(17, 2))):
        with pytest.raises(DomainError, match="point must be an integer"):
            call()


@pytest.mark.parametrize("seed", range(40))
def test_integer_expansion_matches_fraction_powers(seed):
    rng = random.Random(seed)
    scalar = rng.choice((0, -1, 7, F(-5, 6), F(9, 4)))
    factors = [(F(rng.randint(-9, 9), rng.choice((1, 2, 3))), rng.choice((-2, -1, 1, 2, 3)))
               for _ in range(rng.randint(0, 6))]
    prod = LinearFactorProduct.of(scalar, factors)
    num, den = fraction_expansion(_loose(scalar, factors))
    numerator, den_factors = prod.expand_parts()
    assert numerator.coefficients == num.coefficients
    assert den_factors == tuple((s, -e) for s, e in prod.factors if e < 0)
    f = prod.expand()
    assert (f.numerator.coefficients, f.denominator.coefficients) == (
        (num.coefficients, den.coefficients) if not num.is_zero else ((), (1,)))


@pytest.mark.parametrize("scalar", [0, -3, F(2, 7)])
def test_integer_expansion_of_the_empty_product(scalar):
    prod = LinearFactorProduct.of(scalar)
    numerator, den_factors = prod.expand_parts()
    assert (numerator.coefficients, den_factors) == (Polynomial.constant(scalar).coefficients, ())
    f = prod.expand()
    assert (f.numerator.coefficients, f.denominator.coefficients) == (
        Polynomial.constant(scalar).coefficients, (1,))


# ---------------------------------------------------------------------------
# partial fractions
# ---------------------------------------------------------------------------


def test_partial_fractions_worked_example():
    # (2t + 1) / (t^2 (t + 1)) = 1/t + 1/t^2 - 1/(t+1)
    polynomial, expansion = partial_fractions(
        Polynomial([1, 2]), Polynomial.variable() ** 2 * Polynomial([1, 1]), [F(0), F(1), F(5)])
    assert polynomial.is_zero
    by_shift = dict(expansion.terms)
    assert by_shift == {F(0): (1, 1), F(1): (-1,)}
    assert expansion.denominator == 1


def test_partial_fractions_with_polynomial_part():
    # (t^3 + 1) / (t + 1) in lowest terms is t^2 - t + 1: no pole left
    polynomial, expansion = partial_fractions(Polynomial([1, -1, 1]), Polynomial.one(), [F(1)])
    assert polynomial == Polynomial([1, -1, 1])
    assert expansion.terms == ()


def test_partial_fractions_drops_a_cancelled_pole():
    # (t^3 + 1) / (t + 1) unreduced: the factor cancels, leaving no term
    polynomial, expansion = partial_fractions(Polynomial([1, 0, 0, 1]), Polynomial([1, 1]), [1])
    assert expansion.terms == ()
    assert polynomial == Polynomial([1, -1, 1])


def test_partial_fractions_trims_cancelled_orders():
    # (t+1)(t+2) / ((t+1)^2 (t+2)) = 1/(t+1): order 1 at -1, no pole at -2
    polynomial, expansion = partial_fractions(
        Polynomial([2, 3, 1]), Polynomial([1, 1]) ** 2 * Polynomial([2, 1]), [1, 2])
    assert polynomial.is_zero
    assert dict(expansion.terms) == {F(1): (1,)}
    assert expansion.denominator == 1


def test_partial_fractions_are_reduced_to_one_least_denominator():
    # 1 / (t (t + 2)) = (1/2) / t - (1/2) / (t + 2)
    polynomial, expansion = partial_fractions(Polynomial.one(), Polynomial([0, 2, 1]), [0, 2])
    assert polynomial.is_zero and expansion.denominator == 2
    assert [numerators for _, numerators in expansion.terms] == [(1,), (-1,)]
    with pytest.raises(RangeError, match=r"^need denominator >= 1, got 0$"):
        PartialFractions((), 0)


@pytest.mark.parametrize("n", range(13))
def test_block_route_parts_are_reduced_over_a_positive_denominator(n):
    # the type takes its parts as they come: the block route is the one
    # place that reduces them, on every expansion of the n <= 12 grid
    for m in range(n + 1):
        for expansion in (_left_expansion(FormParameters(n, m)),
                          _right_expansion(FormParameters(n, m))):
            numerators = [c for _, row in expansion.terms for c in row]
            assert expansion.denominator > 0, (n, m)
            assert gcd(expansion.denominator, *numerators) == 1, (n, m)


def test_block_route_parts_are_integer_pairs_by_increasing_shift():
    # on both sides of every cell of the n <= 12 grid, each term is a
    # (shift, numerators) pair of ints, the shifts increase, and the top
    # numerator, the one at the pole's order, is not zero
    for n in range(13):
        for m in range(n + 1):
            for expansion in (_left_expansion(FormParameters(n, m)),
                              _right_expansion(FormParameters(n, m))):
                shifts = [shift for shift, _ in expansion.terms]
                assert shifts == sorted(set(shifts)), (n, m)
                for term in expansion.terms:
                    assert type(term) is tuple and len(term) == 2, (n, m)
                    shift, numerators = term
                    assert type(shift) is int and type(numerators) is tuple, (n, m)
                    assert all(type(c) is int for c in numerators), (n, m)
                    assert numerators[-1] != 0, (n, m)


def test_partial_fractions_needs_all_poles_offered():
    with pytest.raises(FactorizationError):   # the pole at -1 is not covered
        partial_fractions(Polynomial.one(), Polynomial.variable() * Polynomial([1, 1]), [F(0)])


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, -1)),
                min_size=1, max_size=4),
       st.lists(st.integers(-2, 2), min_size=0, max_size=2))
def test_partial_fractions_round_trip(den_pairs, num_roots):
    kernel = _loose(1, den_pairs + [(r, 1) for r in num_roots])
    num, den = fraction_expansion(kernel)
    polynomial, expansion = partial_fractions(num, den, poles(kernel))
    parts = [(F(c, expansion.denominator), shift, j) for shift, numerators in expansion.terms
             for j, c in enumerate(numerators, start=1)]
    # f - (polynomial part + parts) = R / D with deg R <= deg f.num + deg D,
    # so agreement at that many + 1 points off the poles proves R = 0
    points = range(4, 5 + num.degree + den.degree)
    for x, value in zip(points, kernel_values(kernel, points)):
        assert polynomial(x) + _parts_derivative(parts, x, 0) == value
