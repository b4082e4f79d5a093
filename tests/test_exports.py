"""Every name in the package's and each module's `__all__` resolves, so a
deletion cannot leave a stale export behind; and every name a module
imports is used, so a move cannot leave a stale import behind."""

import ast
import importlib
import inspect
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


def used_names(tree: ast.AST) -> set[str]:
    """The names a module's code reads: every bare name, and the strings of
    its `__all__` (a package re-exports what it imports)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return used


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    assert [n for n in imported if n not in used_names(tree)] == []
