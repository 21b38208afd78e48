"""Fixtures shared by the test modules."""

import pytest

from apery4 import FormParameters, left_form, right_form

GRID_N_MAX = 20


@pytest.fixture(scope="session")
def grid():
    """(left, right) exact form pairs on the whole triangular grid
    0 <= m <= n <= ``GRID_N_MAX``, computed once per session."""
    values = {}
    for n in range(GRID_N_MAX + 1):
        for m in range(n + 1):
            p = FormParameters(n, m)
            values[(n, m)] = (left_form(p), right_form(p))
    return values
