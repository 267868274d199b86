"""Every name a randcurv module exports in __all__ resolves, so a deleted
function or class cannot leave a stale export behind, and importing every
module leaves scipy unloaded."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import randcurv

MODULES = sorted(m.name for m in pkgutil.iter_modules(randcurv.__path__, "randcurv."))


def test_every_module_is_listed():
    assert "randcurv.fields" in MODULES and len(MODULES) >= 10


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined objects: {missing}"


def test_no_module_imports_scipy():
    # scipy is a test dependency only; importing scipy.special alone costs
    # about 19 MB of resident memory
    code = (
        "import importlib, sys\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(randcurv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
