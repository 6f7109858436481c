"""Package contract: every public name a module declares resolves."""

import importlib
import pkgutil

import pytest

import covertq
from covertq import benchmark, risk_constrained

MODULES = sorted(m.name for m in pkgutil.iter_modules(covertq.__path__, "covertq."))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_invariant_error_has_one_home():
    assert benchmark.InvariantError is risk_constrained.InvariantError
    assert "InvariantError" in risk_constrained.__all__
    assert "InvariantError" not in benchmark.__all__
