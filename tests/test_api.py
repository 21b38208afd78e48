"""Guards for the public surface that tools outside the package rely on.

The traced benchmark run resolves every name in every module's ``__all__``
with ``getattr`` and wraps ``LinearFactorProduct.expand`` and
``expand_parts`` as they appear in the class namespace, so a stale export or
a method turned into a static method or property would crash it.  The
package itself depends on the standard library alone, and its distribution
metadata names the package and its version.
"""

import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import apery4
from apery4.polyrat import LinearFactorProduct

MODULES = ["apery4"] + [f"apery4.{info.name}"
                        for info in pkgutil.iter_modules(apery4.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


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


def test_no_module_but_polyrat_reads_the_dense_layer():
    # the dense Polynomial and RationalFunction have no production reader:
    # only polyrat defines them and the package root exports them
    dense = {"Polynomial", "RationalFunction"}
    readers = []
    for path in sorted(Path(apery4.__file__).parent.glob("*.py")):
        if path.name in ("polyrat.py", "__init__.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
        readers += [(path.name, name) for name in sorted(names & dense)]
    assert readers == []


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
