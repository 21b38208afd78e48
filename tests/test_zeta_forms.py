"""Unit tests for zeta-value linear forms, exact tails, and certified decimals.

The 40-digit zeta literals frozen here were produced by an independent
multiprecision oracle before the implementation under test existed; the
zeta(2)/zeta(4) entries are additionally re-derived in-test from pi via a
Machin arctangent series, so no literal depends on the code it checks.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import dense_reference
from apery4 import (FixedPointNumber, PoleInRangeError, RangeError, ZetaLinearForm,
                    bernoulli_even, derivative_tail_sum, evaluate_decimal,
                    zeta_forms, zeta_value)
from apery4.polyrat import PartialFractions
from dense_reference import Polynomial, partial_fractions

F = Fraction

ZETA_LITERALS = {
    2: "1.6449340668482264364724151666460251892189",
    3: "1.2020569031595942853997381615114499907650",
    4: "1.0823232337111381915160036965411679027748",
    5: "1.0369277551433699263313654864570341680571",
}


# ---------------------------------------------------------------------------
# ZetaLinearForm
# ---------------------------------------------------------------------------


def test_form_algebra():
    a = ZetaLinearForm.from_constant(F(1, 2)) + ZetaLinearForm.zeta_term(4, 3)
    b = ZetaLinearForm.zeta_term(2, -1) + ZetaLinearForm.from_constant(2)
    s = a + b
    assert s.constant == F(5, 2)
    assert s.coefficient(2) == -1
    assert s.coefficient(4) == 3
    assert (a - a).is_zero
    assert (2 * a).coefficient(4) == 6
    assert (-a).constant == F(-1, 2)


def test_form_purity_predicate():
    pure = ZetaLinearForm.from_constant(7) + ZetaLinearForm.zeta_term(4, F(1, 3))
    assert pure.is_pure_weight4()
    assert not (pure + ZetaLinearForm.zeta_term(3)).is_pure_weight4()


def test_form_rejects_unknown_order():
    with pytest.raises(ValueError):
        ZetaLinearForm.zeta_term(6)
    with pytest.raises(ValueError):
        ZetaLinearForm.from_constant(0).coefficient(1)


def test_form_to_mapping():
    # the report form: "p/q" strings, zero coordinates omitted
    form = ZetaLinearForm.from_constant(F(-13)) + ZetaLinearForm.zeta_term(4, 12)
    assert form.to_mapping() == {"c0": "-13", "z4": "12"}
    assert ZetaLinearForm.from_constant(0).to_mapping() == {}
    form = ZetaLinearForm(F(-13, 2), (F(0), F(0), F(12), F(1, 7)))
    assert form.to_mapping() == {"c0": "-13/2", "z4": "12", "z5": "1/7"}


def test_form_str():
    form = ZetaLinearForm.from_constant(F(277, 16)) + ZetaLinearForm.zeta_term(4, -16)
    assert str(form) == "277/16 - 16*zeta(4)"
    assert str(ZetaLinearForm.from_constant(0)) == "0"


# ---------------------------------------------------------------------------
# exact tails
# ---------------------------------------------------------------------------


def _parts(*terms, denominator=1):
    """Proper principal parts from (shift, numerators) pairs over ``denominator``."""
    return PartialFractions(tuple((F(shift), numerators) for shift, numerators in terms),
                            denominator)


def test_derivative_tail_shifted_pole():
    # f = 1/(t + 1), order 1: sum_{v >= 1} -1/(v + 1)^2 = -(zeta(2) - 1)
    tail = derivative_tail_sum(_parts((1, (1,))), 1, 1)
    assert tail == ZetaLinearForm.from_constant(1) - ZetaLinearForm.zeta_term(2)
    # f = 1/(6 t^2), order 2: sum_{v >= 3} 1/v^4 = zeta(4) - 1 - 1/16
    tail = derivative_tail_sum(_parts((0, (0, 1)), denominator=6), 2, 3)
    assert tail == ZetaLinearForm.zeta_term(4) - ZetaLinearForm.from_constant(F(17, 16))


def test_derivative_tail_rejects_zeta_outside_basis():
    # a pole of order 4 at derivative order 2 needs zeta(6)
    with pytest.raises(ValueError, match=r"zeta\(6\)"):
        derivative_tail_sum(_parts((0, (0, 0, 0, 1))), 2, 1)


def test_derivative_tail_telescopes_to_constant():
    # f = 1/(t(t+1)); sum_{v>=1} f'(v) telescopes to -1 with no zeta part
    _, expansion = partial_fractions(Polynomial.one(),
                                     Polynomial.variable() * Polynomial([1, 1]), [F(0), F(1)])
    tail = derivative_tail_sum(expansion, 1, 1)
    assert tail == ZetaLinearForm.from_constant(-1)


def test_derivative_tail_single_pole():
    # f = 1/t, order 2: sum_{v>=1} 2/v^3 = 2 zeta(3)
    _, expansion = partial_fractions(Polynomial.one(), Polynomial.variable(), [F(0)])
    tail = derivative_tail_sum(expansion, 2, 1)
    assert tail == ZetaLinearForm.zeta_term(3, 2)


@st.composite
def _summable_tails(draw):
    """(expansion, order, start): distinct integer shifts, numerators whose
    zeta(j + order) lies in the basis, and a start past every pole."""
    order = draw(st.sampled_from((1, 2)))
    shifts = draw(st.lists(st.integers(-6, 20), min_size=1, max_size=6, unique=True))
    terms = tuple((F(shift), tuple(draw(st.lists(
        st.integers(-10**6, 10**6), min_size=1, max_size=5 - order))))
        for shift in sorted(shifts))
    denominator = draw(st.integers(1, 10**4))
    start = draw(st.integers(max(1, 1 - min(shifts)), max(1, 1 - min(shifts)) + 8))
    return PartialFractions(terms, denominator), order, start


@given(_summable_tails())
def test_derivative_tail_matches_the_harmonic_route(case):
    # the integer rows give the same form as the cached harmonic Fractions
    expansion, order, start = case
    assert (derivative_tail_sum(expansion, order, start)
            == dense_reference.derivative_tail_sum(expansion, order, start))


def test_derivative_tail_rejects_bad_input():
    _, expansion = partial_fractions(Polynomial.one(), Polynomial.variable(), [F(0)])
    with pytest.raises(ValueError):
        derivative_tail_sum(expansion, 3, 1)
    with pytest.raises(PoleInRangeError):
        derivative_tail_sum(expansion, 1, 0)  # the pole at 0 sits in the range
    with pytest.raises(ValueError):
        derivative_tail_sum(_parts((F(1, 2), (1,))), 1, 1)


# ---------------------------------------------------------------------------
# Bernoulli numbers and zeta values
# ---------------------------------------------------------------------------


def test_bernoulli_even_table():
    known = [F(1, 6), F(-1, 30), F(1, 42), F(-1, 30), F(5, 66), F(-691, 2730)]
    assert [bernoulli_even(2 * k) for k in range(1, 7)] == known
    with pytest.raises(ValueError):
        bernoulli_even(3)


def _machin_pi(digits: int) -> Fraction:
    """pi = 16 arctan(1/5) - 4 arctan(1/239), summed exactly."""
    def arctan_inv(q: int) -> Fraction:
        total = F(0)
        k = 0
        while True:
            term = F((-1) ** k, (2 * k + 1) * q ** (2 * k + 1))
            if abs(term) < F(1, 10 ** (digits + 8)):
                return total
            total += term
            k += 1
    return 16 * arctan_inv(5) - 4 * arctan_inv(239)


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_zeta_matches_frozen_literals(s):
    fx = zeta_value(s, 40)
    assert fx.decimal() == ZETA_LITERALS[s]
    assert fx.error_bound < F(1, 10 ** 40)


@pytest.mark.parametrize("s,den", [(2, 6), (4, 90)])
def test_even_zeta_matches_pi_powers(s, den):
    pi = _machin_pi(45)
    exact = pi ** s / den
    assert abs(zeta_value(s, 40).value() - exact) < F(1, 10 ** 40)


def _assert_same_as_fraction_route(s, digits):
    cutoff, depth, expected = dense_reference.zeta_value(s, digits)
    assert zeta_forms._cutoff_and_depth(s, digits)[:2] == (cutoff, depth)
    got = zeta_value(s, digits)
    assert (got.mantissa, got.scale, got.error_bound) == (
        expected.mantissa, expected.scale, expected.error_bound)


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_zeta_value_matches_the_fraction_route(s):
    # same (N, M), mantissa, scale and bound as the term-by-term Fraction sum;
    # at 169 and 170 digits, s = 5 and s = 2 take M = 3N and M = 3N + 1
    for digits in [*range(1, 61), 100, 120, 169, 170]:
        _assert_same_as_fraction_route(s, digits)


@pytest.mark.slow
@pytest.mark.parametrize("digits", [300, 1000])
@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_zeta_value_matches_the_fraction_route_at_length(s, digits):
    _assert_same_as_fraction_route(s, digits)


def test_tangent_table_grows_geometrically(monkeypatch):
    # asking for B_2, B_4, ..., B_600 in turn rebuilds the triangle a
    # logarithmic number of times, and the numbers match one full build
    builds = []
    build = zeta_forms._tangent_numbers
    monkeypatch.setattr(zeta_forms, "_tangent_numbers",
                        lambda count: builds.append(count) or build(count))
    monkeypatch.setattr(zeta_forms, "_TANGENT", [])
    zeta_forms._bernoulli.cache_clear()
    try:
        values = [bernoulli_even(2 * k) for k in range(1, 301)]
    finally:
        zeta_forms._bernoulli.cache_clear()
    assert builds == [9, 18, 36, 72, 144, 288, 576]
    tangent = build(300)
    assert values == [F((-1) ** (k - 1) * 2 * k * tangent[k - 1], 4**k * (4**k - 1))
                      for k in range(1, 301)]


def test_zeta_value_caches_and_validates():
    with pytest.raises(ValueError):
        zeta_value(1, 10)
    with pytest.raises(ValueError):
        zeta_value(2, 0)


# ---------------------------------------------------------------------------
# FixedPointNumber and evaluate_decimal
# ---------------------------------------------------------------------------


def test_fixed_point_rounding_and_decimal():
    fx = FixedPointNumber.from_fraction(F(1, 3), 5)
    assert fx.mantissa == 33333
    assert fx.decimal() == "0.33333"
    # the bound is rounded up to tenths of the last digit: 1/3 of a unit is 4
    # tenths, and half a unit plus 1/7 of a tenth is 6
    assert fx.error_bound == F(4, 10**6)
    assert FixedPointNumber.from_fraction(F(7, 8), 2, F(1, 7000)).error_bound == F(6, 1000)
    assert FixedPointNumber.from_fraction(F(1, 8), 3).error_bound == 0
    assert FixedPointNumber.from_fraction(F(-1, 3), 5).decimal() == "-0.33333"
    assert FixedPointNumber.from_fraction(F(5), 1).decimal() == "5.0"
    with pytest.raises(RangeError, match="need scale >= 1, got 0"):
        FixedPointNumber.from_fraction(F(5), 0)


def test_fixed_point_refuses_a_negative_scale():
    # 10^scale is a float below 1, so the rounding has no exact meaning there
    # (and a huge value would overflow it), and decimal() has no form for a
    # scale below 1 (5 at scale 0 once printed as '.5'); no caller asks for
    # scale 0 either.  Both constructors refuse it before any arithmetic.
    for scale in (-2, -1, 0):
        for value in (F(1234), F(10**400)):
            with pytest.raises(RangeError, match=f"need scale >= 1, got {scale}"):
                FixedPointNumber.from_fraction(value, scale)
        with pytest.raises(RangeError, match=f"need scale >= 1, got {scale}"):
            FixedPointNumber(5, scale, F(0))


def test_fixed_point_refuses_a_negative_error_bound():
    # a bound below 0 once passed through both constructors, from_fraction
    # returning a negative one; it refuses the inherited error before any
    # arithmetic, even one too small to leave the rounded bound below 0
    with pytest.raises(RangeError, match="need error_bound >= 0, got -1$"):
        FixedPointNumber(5, 2, F(-1))
    for error in (F(-1, 10), F(-1, 10 ** 40)):
        with pytest.raises(RangeError, match=f"need inherent_error >= 0, got {error}$"):
            FixedPointNumber.from_fraction(F(1, 3), 5, error)
    assert FixedPointNumber(5, 2, F(0)).error_bound == 0


@given(st.fractions(), st.integers(1, 40), st.fractions(min_value=0, max_denominator=10**6))
@example(F(1, 20), 1, F(0))          # ties round up, towards +oo, on both sides of 0
@example(F(-1, 20), 1, F(1, 7))
@example(F(-5, 20), 1, F(0))
@example(F(1, 40), 2, F(0))
@example(F(-3, 2000), 3, F(1, 7))
@example(F(7), 1, F(0))
def test_fixed_point_rounding_matches_the_fraction_route(value, scale, error):
    # the integer rounding against the rounding of value * 10^scale as a Fraction
    assert (FixedPointNumber.from_fraction(value, scale, error)
            == dense_reference.fixed_point(value, scale, error))


def test_fixed_point_decimal_past_the_int_to_str_limit():
    # 5,000 digits is past CPython's default int-to-str limit of 4,300
    fx = FixedPointNumber.from_fraction(F(1, 3), 5000)
    assert fx.decimal() == "0." + "3" * 5000
    fx = FixedPointNumber.from_fraction(F(-10 ** 4999 - 2, 7), 5000)
    head, tail = fx.decimal().split(".")
    assert head == "-" + "142857" * 833 + "1" and len(tail) == 5000
    assert tail == ("714285" * 834)[:5000]


def test_fixed_point_agreement_respects_bounds():
    a = FixedPointNumber.from_fraction(F(1, 3), 30)
    b = FixedPointNumber.from_fraction(F(1, 3) + F(1, 10 ** 20), 30)
    assert a.agrees_with(b, 19)
    assert not a.agrees_with(b, 22)


def test_evaluate_decimal_known_combination():
    # 277/16 - 16 zeta(4) is small and negative
    form = ZetaLinearForm.from_constant(F(277, 16)) + ZetaLinearForm.zeta_term(4, -16)
    fx = evaluate_decimal(form, 30)
    assert fx.decimal().startswith("-0.00467173937821106425605914465")
    assert fx.error_bound < F(1, 10 ** 30)


def test_evaluate_decimal_pure_rational():
    fx = evaluate_decimal(ZetaLinearForm.from_constant(F(1, 8)), 4)
    assert fx.decimal() == "0.1250"
    assert fx.error_bound == 0
