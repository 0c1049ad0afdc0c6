"""Every public list names something, and every name the package root
re-exports is on its module's public list, so a removed name cannot
linger in either."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import meandric

MODULES = [info.name for info in pkgutil.iter_modules(meandric.__path__)]


def _reexports():
    """(module, name) for each ``from .module import name`` in the root."""
    tree = ast.parse(Path(meandric.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    ]


@pytest.mark.parametrize("module_name", MODULES)
def test_public_names_resolve(module_name):
    module = importlib.import_module(f"meandric.{module_name}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, missing


def test_reexports_are_public():
    reexports = _reexports()
    assert len(reexports) > 40
    for module_name, name in reexports:
        module = importlib.import_module(f"meandric.{module_name}")
        if hasattr(module, "__all__"):
            assert name in module.__all__, f"meandric.{module_name}.{name}"
        else:  # a module without a list: the name must be its own
            assert getattr(module, name).__module__ == module.__name__, f"meandric.{module_name}.{name}"
