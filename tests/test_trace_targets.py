"""Every name the benchmark's tracer patches still exists where it looks.

``perfbench/tracing.py`` wraps each ``(module, "Class.attr", span)`` entry of
``TARGETS`` through ``owner.__dict__[attr]``, so renaming or deleting one of
those names breaks every traced benchmark run. The tracer module is loaded
from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module, path, span", _targets())
def test_target_resolves_in_its_owner(module, path, span):
    owner = importlib.import_module(module)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = owner.__dict__[cls]
    assert attr in owner.__dict__, f"{module}.{path} ({span}) is gone"
