"""Every function the benchmark's tracer wraps must exist in sacloc.

The tracer records a target it cannot resolve as absent instead of failing,
so a rename would silently turn per-module metrics into "absent" lines.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


@pytest.mark.parametrize("module_name, path, name", tracer.TARGETS,
                         ids=[t[2] + "@" + t[0] for t in tracer.TARGETS])
def test_target_resolves(module_name, path, name):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{module_name}.{path} is not callable"
