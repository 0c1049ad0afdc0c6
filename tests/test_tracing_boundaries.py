"""The benchmark's tracer wraps module globals of ``meandric`` by name
(``perfbench/tracing.py``).  A boundary whose global is renamed or no
longer imported would make every traced run fail, so each one must
resolve to a callable."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BOUNDARIES = _load_tracing().BOUNDARIES


@pytest.mark.parametrize(
    "module_name,attr,span",
    BOUNDARIES,
    ids=[f"{module_name}.{attr}" for module_name, attr, _ in BOUNDARIES],
)
def test_boundary_resolves(module_name, attr, span):
    module = importlib.import_module(module_name)
    target = getattr(module, attr, None)
    assert callable(target), f"{span}: {module_name} has no {attr}"
    assert target.__module__ == "meandric." + span.split(".")[0]


PIN = "perfbench/tracing.py wraps this global"
SOURCES = Path(__file__).resolve().parents[1] / "src" / "meandric"


def test_pins_name_boundaries():
    # An import kept only for the tracer carries the PIN comment; each must
    # name a boundary, so a pin cannot outlive the boundary it serves.
    pins = {
        ("meandric." + path.stem, line.split("#")[0].replace(",", " ").split()[-1])
        for path in SOURCES.glob("*.py")
        for line in path.read_text().splitlines()
        if PIN in line
    }
    assert pins
    boundaries = {(module_name, attr) for module_name, attr, _ in BOUNDARIES}
    assert pins <= boundaries, sorted(pins - boundaries)


def _unused_imports(path):
    # Names a module imports but never reads, leaves off its ``__all__``
    # and does not pin for the tracer; star imports and ``__future__`` are
    # exempt.
    tree = ast.parse(path.read_text())
    lines = path.read_text().splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    return sorted(
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if alias.name != "*"
        and (alias.asname or alias.name).split(".")[0] not in read | exported
        and PIN not in lines[alias.lineno - 1]
    )


@pytest.mark.parametrize("path", sorted(SOURCES.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used_exported_or_pinned(path):
    # No linter runs on the package, so this is the guard against an import
    # left behind when its last use goes.
    assert _unused_imports(path) == []
