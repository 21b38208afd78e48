"""Guards for the public surface that tools outside the package rely on.

The traced benchmark run resolves every name in every module's ``__all__``
with ``getattr`` and wraps ``LinearFactorProduct.expand`` and
``expand_parts`` as they appear in the class namespace, so a stale export or
a method turned into a static method or property would crash it.
"""

import importlib
import inspect
import pkgutil

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
