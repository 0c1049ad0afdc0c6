"""The benchmark's tracer wraps module globals of ``meandric`` by name
(``perfbench/tracing.py``).  A boundary whose global is renamed or no
longer imported would make every traced run fail, so each one must
resolve to a callable."""

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
