"""covertq._special loads scipy's ndtr, ndtri and xlogy without scipy.special's
package init, and hands out the objects the full package exports.

The pytest process has imported scipy.special already (conftest does), so
the placeholder load and its fallback only run in fresh interpreters.
"""

import functools
import hashlib

import pytest
import scipy.special

from covertq import _special, cli, generate_sample_set

from conftest import make_baseline_spec, run_fresh

K = 4 * 2**16 + 7
SPEC = make_baseline_spec()

# A fresh interpreter's first generation, at workers 2 so that two pool
# threads read the ufuncs at once; prints the digest of the set's arrays.
GENERATE = (
    "import hashlib, sys\n"
    "from covertq import *\n"
    "from covertq import _special\n"
    "assert not [m for m in sys.modules if m.startswith('scipy.special')]\n"
    f"s = generate_sample_set({SPEC!r}, {K}, 11, workers=2)\n"
    "print(hashlib.sha256(s.ccov.tobytes() + s.rach.tobytes()).hexdigest())\n"
)


@functools.cache
def in_process_digest():
    s = generate_sample_set(SPEC, K, 11, workers=2)
    return hashlib.sha256(s.ccov.tobytes() + s.rach.tobytes()).hexdigest()


def test_in_process_ufuncs_are_scipy_specials():
    assert hasattr(scipy.special, "erf")
    assert all(getattr(_special, n) is getattr(scipy.special, n) for n in _special.__all__)
    with pytest.raises(AttributeError):
        _special.erf


def test_generating_run_loads_only_the_ufuncs_and_writes_the_same_bytes(tmp_path):
    # The fresh process draws through the placeholder load; this process
    # drew through the fully imported package.
    script = ("import sys\n"
              "from covertq import cli\n"
              "rc = cli.main(['sample', '--k', sys.argv[2], '--workers', '2',\n"
              "               '--out', sys.argv[1]])\n"
              "print(rc, 'scipy.special._ufuncs' in sys.modules,\n"
              "      'scipy._lib._array_api' in sys.modules, 'scipy.special' in sys.modules)\n")
    fresh, here = tmp_path / "fresh.cqcs", tmp_path / "here.cqcs"
    assert run_fresh(script, fresh, K).splitlines()[-1] == "0 True False False"
    assert cli.main(["sample", "--k", str(K), "--workers", "2", "--out", str(here)]) == 0
    assert fresh.read_bytes() == here.read_bytes()


def test_later_scipy_special_import_exports_the_same_ufuncs():
    script = GENERATE + (
        "used = [getattr(_special, n) for n in _special.__all__]\n"
        "import scipy.special\n"
        "from scipy.special import erf\n"
        "print(erf is scipy.special.erf,\n"
        "      all(u is getattr(scipy.special, n) for u, n in zip(used, _special.__all__)))\n"
    )
    digest, identities = run_fresh(script).splitlines()
    assert identities == "True True"
    assert digest == in_process_digest()


def test_later_scipy_special_import_has_a_clean_imports_submodules():
    # importlib made the compiled modules that _ufuncs imports attributes of
    # the placeholder; the real package imported afterwards has them too.
    names = ("import sys, types\n"
             "import scipy.special\n"
             "print(sorted(name for name, value in vars(scipy.special).items()\n"
             "             if isinstance(value, types.ModuleType)))\n")
    after_draw = run_fresh(GENERATE + names).splitlines()[-1]
    clean = run_fresh(names).splitlines()[-1]
    assert after_draw == clean
    assert "'_ufuncs_cxx'" in clean and "'_ellip_harm_2'" in clean


def test_placeholder_import_error_falls_back_to_the_package():
    # A scipy whose _ufuncs cannot load under a bare parent package.
    script = (
        "import importlib\n"
        "real = importlib.import_module\n"
        "def refuse(name, *args):\n"
        "    if name == 'scipy.special._ufuncs':\n"
        "        raise ImportError(name)\n"
        "    return real(name, *args)\n"
        "importlib.import_module = refuse\n"
    ) + GENERATE + (
        "special = sys.modules['scipy.special']\n"
        "print(hasattr(special, 'erf'),\n"
        "      all(getattr(_special, n) is getattr(special, n) for n in _special.__all__))\n"
    )
    digest, fallback = run_fresh(script).splitlines()
    assert fallback == "True True"
    assert digest == in_process_digest()


@pytest.mark.parametrize("statement", [
    "from scipy.special import erf",
    "import scipy.special; erf = scipy.special.erf",
], ids=["from-import", "attribute"])
def test_scipy_special_import_during_the_first_load_gets_the_full_package(statement):
    # A third thread imports scipy.special while the pool threads of the
    # first generation load the ufuncs.  The slowed _ufuncs import holds the
    # placeholder in sys.modules long enough for the thread to find it.
    script = (
        "import importlib, threading, time\n"
        "real = importlib.import_module\n"
        "loading = threading.Event()\n"
        "def slow(name, *args):\n"
        "    if name == 'scipy.special._ufuncs':\n"
        "        loading.set()\n"
        "        time.sleep(0.5)\n"
        "    return real(name, *args)\n"
        "importlib.import_module = slow\n"
        "got = []\n"
        "def other():\n"
        "    loading.wait(10)\n"
        f"    {statement}\n"
        "    got.append(erf)\n"
        "thread = threading.Thread(target=other, daemon=True)\n"
        "thread.start()\n"
    ) + GENERATE + (
        "thread.join(10)\n"
        "import scipy.special\n"
        "print(loading.is_set(), got == [scipy.special.erf],\n"
        "     _special.ndtri is scipy.special.ndtri)\n"
    )
    digest, race = run_fresh(script).splitlines()
    assert race == "True True True"
    assert digest == in_process_digest()
