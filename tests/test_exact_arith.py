"""Unit tests for the exact arithmetic helpers."""

import re
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apery4 import DomainError, exact_arith, factorial, harmonic, pochhammer
from apery4.exact_arith import _power_sums

F = Fraction


def test_factorial_small_values():
    assert [factorial(k) for k in range(6)] == [1, 1, 2, 6, 24, 120]


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_pochhammer_integer_cases():
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6
    assert pochhammer(1, 5) == factorial(5)
    assert pochhammer(-3, 3) == (-3) * (-2) * (-1)
    assert pochhammer(-3, 4) == 0  # the block crosses zero
    assert pochhammer(5, 0) == 1


def test_pochhammer_fraction_base():
    # every caller's base is an integer; any other base is refused, an
    # integral Fraction too, and never read as crossing zero
    for x in (F(1, 2), F(-5, 2), F(3)):
        with pytest.raises(DomainError, match=rf"^need x of type int, got {re.escape(repr(x))}$"):
            pochhammer(x, 3)


def test_pochhammer_rejects_negative_count():
    with pytest.raises(ValueError):
        pochhammer(2, -1)


@given(st.integers(-12, 12), st.integers(0, 8), st.integers(0, 8))
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


def test_power_sum_rows_are_scaled_harmonic_numbers(monkeypatch):
    # L = lcm(1..top) exactly and rows[r][i] = L^r S_r(i), tops up and down
    # so that tops with one L extend and read each other's rows
    monkeypatch.setattr(exact_arith, "_POWER_SUMS", {})
    for top in [*range(0, 30), 45, 40, 37, 38, 60]:
        count = 1 + top % 5
        scale, rows = _power_sums(top, count)
        assert scale == lcm(*range(1, top + 1)), top
        for r in range(1, count + 1):
            assert rows[r][:top + 1] == [scale ** r * harmonic(r, i) for i in range(top + 1)]


def test_power_sum_tables_are_all_kept(monkeypatch):
    # one top, then 40 tops whose L all differ from it and from each other
    # (L grows at prime powers), then the first top again: its rows come back
    monkeypatch.setattr(exact_arith, "_POWER_SUMS", {})
    _, first = _power_sums(2, 2)
    tops = [q for q in range(3, 200) if lcm(*range(1, q)) != lcm(*range(1, q + 1))][:40]
    for top in tops:
        _power_sums(top, 1)
    assert _power_sums(2, 2)[1] is first
    assert list(exact_arith._POWER_SUMS) == [2, *tops]


def test_importing_the_package_builds_no_table():
    # the tables are built on first need, never at start-up
    source = str(Path(exact_arith.__file__).parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import apery4.cli_report; "
            "from apery4.exact_arith import _FACTORIALS, _POWER_SUMS; "
            "print(len(_POWER_SUMS), _FACTORIALS)")
    done = subprocess.run([sys.executable, "-c", code, source],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "0 [1]\n"), done.stderr
