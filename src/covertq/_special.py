"""The scipy.special ufuncs that draws and rates read: ndtr, ndtri and xlogy.

`import scipy.special` takes about 0.25 s on a 2-core Xeon VM (scipy
1.17.1), almost all of it in the package init's array-API layer, which
loads numpy.f2py and numpy.testing.  The ufuncs live in the compiled
`scipy.special._ufuncs`, which loads in about 10 ms.  So the first read of
`_special.ndtr`, `_special.ndtri` or `_special.xlogy` binds all three here:

* **Reuse.** If scipy.special is imported, its ufuncs are taken.
* **Placeholder load.** Otherwise a bare `scipy.special` package, marked as
  initialising, stands in sys.modules while `_ufuncs` is imported under it,
  and is removed again.  importlib's lock for `scipy.special` is held
  throughout, so an `import scipy.special` in another thread waits and then
  runs the real package init.  That init reuses the loaded `_ufuncs` and so
  exports the same objects.  The compiled modules `_ufuncs` itself imports
  (`_ufuncs_cxx` and three more in scipy 1.17.1) stay in sys.modules.
  importlib made them attributes of the placeholder only, so a one-shot
  finder, put on sys.meta_path while the lock is held, hands them to the
  real package when it is imported later: it finds the package's spec
  through the other finders and sets each submodule already loaded as an
  attribute just before the package init runs, where a clean import would
  have set it.
* **Fallback.** If the placeholder load raises ImportError, as it may on a
  scipy layout other than 1.17.1's, the plain import is used.

Each path hands out the objects scipy.special exports, so output bytes do
not depend on which one ran.  (With scipy's SCIPY_ARRAY_API=1 the package
exports array-API wrappers of these ufuncs instead; the placeholder load
hands out the ufuncs they wrap, and a K = 1e5 cache came out the same.)
Nothing is loaded until a name is read: a query on a cached sample set
loads no scipy.special module.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from importlib import _bootstrap

__all__ = ["ndtr", "ndtri", "xlogy"]

_PACKAGE = "scipy.special"


def _ufuncs_module():
    # scipy.special._ufuncs, imported under a placeholder parent package.
    spec = importlib.util.find_spec(_PACKAGE)
    if spec is None or spec.submodule_search_locations is None:
        raise ImportError(f"no package {_PACKAGE}")
    spec._initializing = True
    placeholder = importlib.util.module_from_spec(spec)

    def forward(name):
        # CPython's `from scipy.special import erf` waits on the import lock
        # and then reads the module it saw before waiting: this placeholder.
        # Once the placeholder is out of sys.modules, its reads go to the
        # real package.
        if sys.modules.get(_PACKAGE) is placeholder:
            raise AttributeError(name)
        return getattr(importlib.import_module(_PACKAGE), name)

    placeholder.__getattr__ = forward
    sys.modules[_PACKAGE] = placeholder
    try:
        return importlib.import_module(_PACKAGE + "._ufuncs")
    finally:
        del sys.modules[_PACKAGE]


class _AdoptSubmodules:
    # The one-shot finder described in the module docstring.

    def find_spec(self, fullname, path=None, target=None):
        if fullname != _PACKAGE:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        if spec is None:
            return None
        loader = spec.loader
        prefix = _PACKAGE + "."
        submodules = {name[len(prefix):]: module for name, module in sys.modules.items()
                      if name.startswith(prefix) and "." not in name[len(prefix):]}

        def exec_module(module):
            del loader.exec_module  # back to the loader's own method
            vars(module).update(submodules)
            loader.exec_module(module)

        loader.exec_module = exec_module
        return spec


_ADOPT = _AdoptSubmodules()


def _exported(module) -> dict:
    return {name: getattr(module, name) for name in __all__}


def _load() -> dict:
    with _bootstrap._ModuleLockManager(_PACKAGE):
        if _PACKAGE not in sys.modules:
            try:
                exported = _exported(_ufuncs_module())
            except ImportError:
                pass
            else:
                if _ADOPT not in sys.meta_path:
                    sys.meta_path.insert(0, _ADOPT)
                return exported
    return _exported(importlib.import_module(_PACKAGE))


def __getattr__(name):
    # Module attributes (PEP 562): the first read binds all three names as
    # globals, so every later read is a plain lookup.  The first sampler and
    # entropy calls of a process can run in two pool threads at once;
    # importlib's lock serialises their loads, and both bind the same objects.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals().update(_load())
    return globals()[name]
