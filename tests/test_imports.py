"""The package namespace imports each module on first use (PEP 562). Each
check runs in a fresh interpreter, as this test session has every module
loaded already."""
import json
import os
import subprocess
import sys

import pytest

import epiflows

MODULES = {"epiflows._csvio", "epiflows.dynamics", "epiflows.effdist", "epiflows.errors",
           "epiflows.estimation", "epiflows.ingest", "epiflows.network", "epiflows.stability"}


def fresh(code: str):
    """The JSON that ``code`` prints last, run in a new interpreter."""
    src = os.path.dirname(os.path.dirname(epiflows.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", "import json, sys\n" + code], env=env,
                         check=True, capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


LOADED = "print(json.dumps(sorted(k for k in sys.modules if k.startswith('epiflows'))))"


@pytest.mark.parametrize("code, loaded", [
    ("import epiflows", {"epiflows", "epiflows.errors"}),
    ("import epiflows; epiflows.integrate",
     {"epiflows", "epiflows.errors", "epiflows.dynamics", "epiflows.network"}),
    ("import epiflows; epiflows.classify_healthy",
     {"epiflows", "epiflows.errors", "epiflows.dynamics", "epiflows.network",
      "epiflows.stability"}),
    ("import epiflows.cli", {"epiflows", "epiflows.cli", "epiflows.demo", *MODULES}),
    ("from epiflows import *", {"epiflows", *MODULES}),
])
def test_modules_load_on_first_use(code, loaded):
    assert set(fresh(f"{code}\n{LOADED}")) == loaded


def test_every_public_name_is_its_home_modules_object():
    checks = fresh(
        "import epiflows\n"
        "names = list(epiflows.__all__)\n"
        "from epiflows import *\n"
        "star = all(globals()[name] is getattr(epiflows, name) for name in names)\n"
        "home = [name for name in names if name != 'errors' and getattr(epiflows, name) is not\n"
        "        getattr(sys.modules[getattr(epiflows, name).__module__], name)]\n"
        "print(json.dumps([star, home, sorted(set(names) - set(dir(epiflows)))]))")
    assert checks == [True, [], []]


def test_unknown_names_raise_attribute_error():
    checks = fresh(
        "import epiflows\n"
        "try:\n"
        "    epiflows.no_such_name\n"
        "    raised = None\n"
        "except AttributeError as exc:\n"
        "    raised = str(exc)\n"
        "from epiflows import dynamics\n"
        "print(json.dumps([raised, hasattr(epiflows, 'no_such_name'), hasattr(epiflows, 'dynamics'),\n"
        "                  dynamics.integrate is epiflows.integrate]))")
    assert checks == ["module 'epiflows' has no attribute 'no_such_name'", False, True, True]
