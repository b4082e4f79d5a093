"""Every name in the package's and each module's `__all__` resolves, so a
deletion cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import xbarlstm

MODULES = ["xbarlstm"] + sorted(f"xbarlstm.{m.name}"
                                for m in pkgutil.iter_modules(xbarlstm.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
