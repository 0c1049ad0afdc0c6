"""Each module's ``__all__`` is the one list of its public names: every
name on it resolves, and the package root star-imports the lists, so it
exports each listed name and nothing is re-exported by hand."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import meandric

MODULES = [info.name for info in pkgutil.iter_modules(meandric.__path__)]
ROOT_MODULES = ["combinatorics", "errors", "meanders", "analysis", "oracle", "sampling"]


@pytest.mark.parametrize("module_name", MODULES)
def test_public_names_resolve(module_name):
    module = importlib.import_module(f"meandric.{module_name}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, missing


def test_root_imports_only_whole_lists():
    tree = ast.parse(Path(meandric.__file__).read_text())
    imports = [
        (node.module, [alias.name for alias in node.names])
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert imports == [(module_name, ["*"]) for module_name in ROOT_MODULES]


def test_root_exports_every_listed_name():
    for module_name in ROOT_MODULES:
        module = importlib.import_module(f"meandric.{module_name}")
        for name in module.__all__:
            assert getattr(meandric, name, None) is getattr(module, name), f"meandric.{module_name}.{name}"
    assert meandric.samples_array is meandric.sampling.samples_array
