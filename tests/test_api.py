"""Guards for the public surface that tools outside the package rely on.

The traced benchmark run resolves every name in every module's ``__all__``
with ``getattr``, and reaches ``LinearFactorProduct.expand`` and
``expand_parts`` through the class, which no ``__all__`` exports, as they
appear in the class namespace; so a stale export or a method turned into a
static method or property would crash it.  Those methods are all the
package keeps the flattened dense layer for: no other module, and not the
tests' dense reference, reads it.  The
package itself depends on the standard library alone, and its distribution
metadata names the package and its version.
"""

import ast
import copy
import importlib
import inspect
import pickle
import pkgutil
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import apery4
from apery4 import (DomainError, FixedPointNumber, FormParameters, Kernel, PartialFractions, RangeError,
                    SummandCheck, ZetaLinearForm)
from apery4.polyrat import DerivativeChain, LinearFactorProduct

MODULES = ["apery4"] + [f"apery4.{info.name}"
                        for info in pkgutil.iter_modules(apery4.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_each_value_is_built_through_its_constructor():
    # no unchecked twin of a constructor and no copy-with-changes: a public
    # type checks its fields in __init__, and the internal chain, built only
    # from checked kernels and literals, trusts them there
    assert apery4.polyrat.__all__ == ["PartialFractions"]
    for cls in (Kernel, apery4.polyrat._Value, DerivativeChain):
        assert [name for name in ("replace", "_unchecked", "_of") if hasattr(cls, name)] == []


@pytest.mark.parametrize("method", ["expand", "expand_parts"])
def test_expanding_methods_stay_plain(method):
    assert inspect.isfunction(vars(LinearFactorProduct)[method])


@pytest.mark.parametrize("path", sorted(Path(apery4.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert [name for name in imported
            if name.split(".")[0] not in sys.stdlib_module_names] == []


def test_recurrence_lab_imports_nothing_from_apery_forms():
    # the recurrences and closed forms stay a route to the grid independent of
    # the series construction: they read its values from the caller
    path = Path(apery4.__file__).parent / "recurrence_lab.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [f"{node.module or ''}.{alias.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert [name for name in names if "apery_forms" in name.split(".")] == []


DENSE = {"LinearFactorProduct", "Polynomial", "RationalFunction"}


def test_no_module_but_polyrat_reads_the_dense_layer():
    # the flattened LinearFactorProduct and the dense Polynomial and
    # RationalFunction have no production reader: only polyrat defines them,
    # no module exports them, and the tests' dense reference, which must
    # stay independent of the package's expansions, imports none
    readers = []
    for path in sorted(Path(apery4.__file__).parent.glob("*.py")):
        if path.name == "polyrat.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
        readers += [(path.name, name) for name in sorted(names & DENSE)]
    assert readers == []
    assert sorted(DENSE & set(apery4.__all__)) == []
    assert sorted(DENSE & set(apery4.polyrat.__all__)) == []
    reference = Path(__file__).resolve().parent / "dense_reference.py"
    tree = ast.parse(reference.read_text(), filename=str(reference))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    imported |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert sorted(imported & DENSE) == []


def test_every_error_type_is_raised():
    # an exported error that nothing raises is dead API
    raised = set()
    for path in Path(apery4.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    exported = set(importlib.import_module("apery4.errors").__all__) - {"Apery4Error"}
    assert sorted(exported - raised) == []


def test_distribution_metadata_matches_the_package():
    tomllib = pytest.importorskip("tomllib")      # Python 3.11 and later
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert (project["name"], project["version"]) == ("apery4", apery4.__version__)


# each exported value type: a fresh value per call, and its fields in order
VALUES = {
    "FormParameters": (lambda: FormParameters(4, 1), ("n", "m")),
    "Kernel": (lambda: Kernel(F(1), ((-1, 3, 1), (0, 2, -2)), (1, 3, 2)),
               ("scalar", "blocks", "cofactor")),
    "PartialFractions": (lambda: PartialFractions(((0, (1,)), (1, (2, 3))), 5),
                         ("terms", "denominator")),
    "ZetaLinearForm": (lambda: ZetaLinearForm(F(1, 3), (F(0), F(0), F(-2), F(0))),
                       ("constant", "zeta_coefficients")),
    "FixedPointNumber": (lambda: FixedPointNumber(-123, 2, F(1, 200)),
                         ("mantissa", "scale", "error_bound")),
    "SummandCheck": (lambda: SummandCheck("left-tail", 4, 1, None, 3, ("printed", "oracle"),
                                          ("1/2", "1/2")),
                     ("family", "n", "m", "j", "nu", "routes", "values")),
}


@pytest.mark.parametrize("name", VALUES)
def test_values_are_immutable(name):
    make, fields = VALUES[name]
    value = make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == make()


@pytest.mark.parametrize("name", VALUES)
def test_values_compare_by_type_and_fields(name):
    make, fields = VALUES[name]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and not a != b
    as_tuple = tuple(getattr(a, field) for field in fields)
    assert a != as_tuple and as_tuple != a
    assert type(a)(*as_tuple) == a
    assert repr(a).startswith(f"{name}({fields[0]}=")


@pytest.mark.parametrize("name", VALUES)
def test_values_pickle_and_copy(name):
    make, _ = VALUES[name]
    value = make()
    if isinstance(value, Kernel):
        value.factors, value.centre                 # cached before the copies
    for other in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(other) is type(value) and other == value


def test_kernel_built_from_another_has_its_own_views():
    # (2t + 1)(t + 1) (t-1)_3 / (t)_2^2: the cofactor holds the factor t + 1/2,
    # so no centre; the kernel of its blocks' numerator alone has centre 2
    kernel = VALUES["Kernel"][0]()
    assert (kernel.factors, kernel.centre) == ({-1: 1, 0: -1, 1: -1}, None)
    odd = Kernel(kernel.scalar, ((0, 3, 1),))
    assert (odd.factors, odd.centre) == ({0: 1, 1: 1, 2: 1}, 2)
    assert (kernel.factors, kernel.centre) == ({-1: 1, 0: -1, 1: -1}, None)


@pytest.mark.parametrize("cofactor", [(1, 0), (0,), (3, 2, 0)])
def test_kernel_refuses_a_cofactor_with_a_zero_top(cofactor):
    # 1/t written with the cofactor (1, 0) would read degree 0, and (0,) is
    # the zero kernel; the top made 1, the degree is the numerator's less the
    # denominator's
    message = rf"^need a cofactor with a nonzero top coefficient, got {re.escape(str(cofactor))}$"
    with pytest.raises(DomainError, match=message):
        Kernel(F(1), ((0, 1, -1),), cofactor)
    assert Kernel(F(1), ((0, 1, -1),), cofactor[:-1] + (1,)).degree == len(cofactor) - 2


def test_form_parameters_keep_their_range_check():
    with pytest.raises(RangeError, match=r"^need m <= 1, got 2$"):
        FormParameters(1, 2)
