"""Every name a randcurv module exports in __all__ resolves, so a deleted
function or class cannot leave a stale export behind."""

import importlib
import pkgutil

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
