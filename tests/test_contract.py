"""The package's input contract (see :mod:`apery4.errors`): every public entry
point returns or refuses its arguments with an ``Apery4Error``, never with
another exception.

Each callable in ``apery4.__all__`` and in each module's ``__all__`` is
called, but ``cli_report.main``, whose argv contract ``test_cli.py`` holds,
and the exception types; so are the public methods in ``METHODS``.  Each
call takes as many arguments as the callable has positional parameters, at
least its required ones, drawn from small ints, bools, floats, Fractions,
None, strings and one valid value of each package kind.  A returned
``FixedPointNumber`` or ``ZetaLinearForm`` must print, but for a
``ZetaLinearForm`` built by hand: it is a record that the package fills and
checks nothing.
"""

import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apery4
from apery4 import (Apery4Error, DomainError, FixedPointNumber, FormParameters, Kernel,
                    RangeError, ZetaLinearForm, left_form, left_kernel)
from apery4.apery_forms import _left_expansion
from apery4.recurrence_lab import recurrence_table

P = FormParameters(3, 1)
FORM = left_form(P)
KERNEL = left_kernel(P)

# small ints, bools, floats, Fractions, None, strings, and one valid value of
# each package kind: a cell, its form, its certified parts and a table
ARGUMENTS = st.sampled_from([
    *range(-3, 9), True, False, 0.0, 2.0, -1.5, float("nan"), float("inf"),
    Fraction(1, 2), Fraction(-5, 3), Fraction(3), None, "", "4", "ab",
    P, FORM, _left_expansion(P), recurrence_table(4)])

MODULES = [apery4] + [importlib.import_module(f"apery4.{info.name}")
                      for info in pkgutil.iter_modules(apery4.__path__)]

METHODS = {
    "ZetaLinearForm.from_constant": ZetaLinearForm.from_constant,
    "ZetaLinearForm.zeta_term": ZetaLinearForm.zeta_term,
    "ZetaLinearForm.coefficient": FORM.coefficient,
    "FixedPointNumber.from_fraction": FixedPointNumber.from_fraction,
    "FixedPointNumber.agrees_with": FixedPointNumber(5, 2, Fraction(0)).agrees_with,
}


def _entry_points() -> dict:
    found = {}
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            if (callable(value) and value is not apery4.cli_report.main
                    and not (isinstance(value, type) and issubclass(value, BaseException))):
                found.setdefault(f"{value.__module__}.{name}", value)
    return {**found, **METHODS}


def _arguments(function) -> st.SearchStrategy:
    """Lists of arguments, at least as many as ``function`` requires and at
    most as many as it takes."""
    parameters = [p for p in inspect.signature(function).parameters.values()
                  if p.kind is p.POSITIONAL_OR_KEYWORD]
    return st.lists(ARGUMENTS, min_size=sum(p.default is p.empty for p in parameters),
                    max_size=len(parameters))


ENTRY_POINTS = {name: (function, _arguments(function))
                for name, function in _entry_points().items()}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@settings(max_examples=15, deadline=None, database=None)
@given(data=st.data())
def test_every_entry_point_returns_or_raises_a_package_error(name, data):
    function, strategy = ENTRY_POINTS[name]
    arguments = data.draw(strategy, label="arguments")
    try:
        result = function(*arguments)
    except Apery4Error:
        return
    if isinstance(result, FixedPointNumber) or (isinstance(result, ZetaLinearForm)
                                                and function is not ZetaLinearForm):
        str(result)


@pytest.mark.parametrize("cofactor, error", [
    ((), RangeError), ((0,), DomainError), ((1, 0), DomainError), ((2, -1, 0), DomainError),
    ((1, 0.5), DomainError), ((1, True), DomainError), ([1], DomainError),
], ids=["empty", "zero", "zero-top", "zero-top-of-three", "float", "bool", "list"])
def test_kernel_refuses_a_cofactor_it_cannot_read(cofactor, error):
    # a cofactor is a non-empty tuple of ints whose top is nonzero: 1/t read
    # with the cofactor (1, 0) would have degree 0, so its parts could not be
    # built; every other cofactor is refused as it is passed in
    with pytest.raises(error):
        Kernel(Fraction(1), ((0, 1, -1),), cofactor)
    with pytest.raises(error):
        Kernel(KERNEL.scalar, KERNEL.blocks, cofactor)


@pytest.mark.parametrize("exponent", [1, -1])
@pytest.mark.parametrize("shift", [Fraction(1, 2), Fraction(2), 2.0, True])
def test_kernel_refuses_a_shift_that_is_not_an_int(shift, exponent):
    # every shift of a kernel is an int, a pole's (e < 0) and a numerator
    # factor's (e > 0) alike: the kernel checks it, and the derivative chain
    # built from the kernel's factors takes it as given
    Kernel(Fraction(1), ((2, 1, -2), (3, 1, -1), (-1, 1, 1)))
    with pytest.raises(DomainError, match=r"^need block x of type int, got "):
        Kernel(Fraction(1), ((0, 1, -2), (shift, 1, exponent)))


@pytest.mark.parametrize("block, error", [
    ([0, 1, -1], DomainError), ((0, 1), RangeError), ((0, 1, -1, 1), RangeError),
    ((0, -1, 1), RangeError), ((0, 1.0, -1), DomainError), ((0, 1, Fraction(-1)), DomainError),
    ((0, 1, True), DomainError),
], ids=["list", "two-fields", "four-fields", "negative-length", "float-length",
        "fraction-exponent", "bool-exponent"])
def test_kernel_refuses_a_block_it_cannot_read(block, error):
    # a block (x, k, e) is a tuple of three ints with k >= 0, read as (t + x)_k^e
    with pytest.raises(error):
        Kernel(Fraction(1), ((0, 2, -1), block))
    with pytest.raises(DomainError, match=r"^need blocks of type tuple, got "):
        Kernel(Fraction(1), [block])
