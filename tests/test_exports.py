"""The package surface: every name it exports resolves."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
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


def test_no_public_callable_takes_a_nuisance_fit():
    """Estimation(data, basis, z_families) is the package's way into the
    estimators: no public function or constructor takes a fit made elsewhere."""
    assert "Estimation" in _package_imports()
    for name in MODULES:
        module = importlib.import_module(name)
        for public in getattr(module, "__all__", []):
            obj = getattr(module, public)
            if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
                continue
            for param in inspect.signature(obj).parameters.values():
                assert not re.search(r"\b(OutcomeFit|CovariateFit)\b", str(param.annotation)), \
                    f"{name}.{public} takes {param}"


def _imported_names(tree: ast.Module) -> set[str]:
    """The names a module's import statements bind, __future__ features aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_name_it_imports(name):
    """Each module but the package's __init__ reads every name it imports,
    in code, an annotation or its __all__: an import left behind by a
    deletion fails here."""
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = _imported_names(tree) - used - set(getattr(module, "__all__", []))
    assert not unused, f"{name} imports unused {sorted(unused)}"
