"""Unit tests for zeta-value linear forms, exact tails, and certified decimals.

The 40-digit zeta literals frozen here were produced by an independent
multiprecision oracle before the implementation under test existed; the
zeta(2)/zeta(4) entries are additionally re-derived in-test from pi via a
Machin arctangent series, so no literal depends on the code it checks.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apery4 import (FixedPointNumber, PoleInRangeError, ZetaLinearForm,
                    bernoulli_even, derivative_tail_sum, evaluate_decimal,
                    zeta_value)
from apery4.polyrat import PartialFractions, PoleExpansion
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


def test_form_mapping_round_trip():
    form = ZetaLinearForm.from_constant(F(-13)) + ZetaLinearForm.zeta_term(4, 12)
    mapping = form.to_mapping()
    assert mapping == {"c0": "-13", "z4": "12"}
    assert ZetaLinearForm.from_mapping(mapping) == form
    assert ZetaLinearForm.from_constant(0).to_mapping() == {}


@given(st.fractions(max_denominator=50), st.fractions(max_denominator=50),
       st.fractions(max_denominator=50))
def test_form_mapping_round_trip_random(c0, z2, z4):
    form = (ZetaLinearForm.from_constant(c0) + ZetaLinearForm.zeta_term(2, z2)
            + ZetaLinearForm.zeta_term(4, z4))
    assert ZetaLinearForm.from_mapping(form.to_mapping()) == form


def test_form_str():
    form = ZetaLinearForm.from_constant(F(277, 16)) + ZetaLinearForm.zeta_term(4, -16)
    assert str(form) == "277/16 - 16*zeta(4)"
    assert str(ZetaLinearForm.from_constant(0)) == "0"


# ---------------------------------------------------------------------------
# exact tails
# ---------------------------------------------------------------------------


def _parts(*terms, denominator=1):
    """Proper principal parts from (shift, numerators) pairs over ``denominator``."""
    return PartialFractions(tuple(
        PoleExpansion(F(shift), numerators) for shift, numerators in terms), denominator)


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


def test_zeta_value_caches_and_validates():
    assert zeta_value(2, 10) is zeta_value(2, 10)
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
    assert FixedPointNumber.from_fraction(F(-1, 3), 5).decimal() == "-0.33333"
    assert FixedPointNumber.from_fraction(F(5), 0).decimal() == "5"


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
