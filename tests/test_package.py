"""Package contract: every public name a module declares resolves, on its
module and on `covertq`, and has one home."""

import importlib
import inspect
import pkgutil

import pytest

import covertq
from covertq import _csvio, benchmark, risk_constrained

MODULES = sorted(m.name for m in pkgutil.iter_modules(covertq.__path__, "covertq."))
# The modules whose __all__ the package exports: all but the CLI and the
# private ones.
PUBLIC = [name for name in MODULES
          if name != "covertq.cli" and not name.rpartition(".")[2].startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", PUBLIC)
def test_package_exports_every_public_name(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__
            if getattr(covertq, n, None) is not getattr(module, n)] == []


def test_private_names_are_not_exported():
    assert [n for n in _csvio.__all__ if hasattr(covertq, n)] == []


@pytest.mark.parametrize("name", PUBLIC)
def test_each_public_class_and_function_has_one_home(name):
    # A name a module re-exports from another would have two homes.
    module = importlib.import_module(name)
    objects = {n: getattr(module, n) for n in module.__all__}
    assert [n for n, obj in objects.items()
            if (inspect.isclass(obj) or inspect.isfunction(obj))
            and obj.__module__ != name] == []


def test_invariant_error_has_one_home():
    assert "InvariantError" in risk_constrained.__all__
    assert "InvariantError" not in benchmark.__all__
