"""Unit tests for the exact arithmetic helpers."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apery4 import binomial, factorial, harmonic, pochhammer

F = Fraction


def test_factorial_small_values():
    assert [factorial(k) for k in range(6)] == [1, 1, 2, 6, 24, 120]


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_binomial_row_with_out_of_range():
    assert [binomial(5, k) for k in range(-1, 7)] == [0, 1, 5, 10, 10, 5, 1, 0]


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-2, 1)


@given(st.integers(0, 60), st.integers(-5, 65))
def test_binomial_is_factorial_ratio(n, k):
    expected = factorial(n) // (factorial(k) * factorial(n - k)) if 0 <= k <= n else 0
    assert binomial(n, k) == expected


def test_pochhammer_integer_cases():
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6
    assert pochhammer(1, 5) == factorial(5)
    assert pochhammer(-3, 3) == (-3) * (-2) * (-1)
    assert pochhammer(-3, 4) == 0  # the block crosses zero
    assert pochhammer(5, 0) == 1


def test_pochhammer_fraction_base():
    assert pochhammer(F(1, 2), 3) == F(15, 8)
    assert pochhammer(F(-5, 2), 2) == F(15, 4)


def test_pochhammer_rejects_negative_count():
    with pytest.raises(ValueError):
        pochhammer(2, -1)


@given(st.one_of(st.integers(-12, 12),
                 st.fractions(min_value=-5, max_value=5, max_denominator=6)),
       st.integers(0, 8), st.integers(0, 8))
def test_pochhammer_split_law(x, a, b):
    assert pochhammer(x, a + b) == pochhammer(x, a) * pochhammer(x + a, b)


def test_harmonic_values():
    assert harmonic(1, 0) == 0
    assert harmonic(1, 4) == F(25, 12)
    assert harmonic(2, 3) == F(49, 36)
    assert harmonic(3, 2) == F(9, 8)


def test_harmonic_rejects_bad_arguments():
    with pytest.raises(ValueError):
        harmonic(0, 3)
    with pytest.raises(ValueError):
        harmonic(1, -1)


@given(st.integers(1, 4), st.integers(0, 80))
def test_harmonic_increment(order, upper):
    step = harmonic(order, upper + 1) - harmonic(order, upper)
    assert step == F(1, (upper + 1) ** order)
