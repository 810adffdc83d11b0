"""The package surface: every name it exports resolves."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import drlogit

MODULES = sorted(f"drlogit.{m.name}" for m in pkgutil.iter_modules(drlogit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    """Each name in a module's __all__ is defined there, once."""
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def _package_imports() -> list[str]:
    """The names drlogit/__init__.py imports from its modules."""
    tree = ast.parse(Path(drlogit.__file__).read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_package_exports_resolve_and_star_import():
    """Every name the package imports resolves on it, is listed in its
    module's __all__, and comes with `from drlogit import *`."""
    names = _package_imports()
    assert names and all(hasattr(drlogit, n) for n in names)
    public = {n for m in MODULES for n in getattr(importlib.import_module(m), "__all__", [])}
    assert set(names) <= public
    namespace: dict = {}
    exec("from drlogit import *", namespace)
    assert set(names) <= set(namespace)
