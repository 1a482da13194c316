"""What the benchmark calls in sacloc must exist and keep working.

The tracer records a target it cannot resolve as absent instead of failing,
so a rename would silently turn per-module metrics into "absent" lines. A
break in the calls the warm worker makes would show up only as failed
benchmark operations.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import run, write_config

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import tracer  # noqa: E402


@pytest.mark.parametrize("module_name, path, name", tracer.TARGETS,
                         ids=[t[2] + "@" + t[0] for t in tracer.TARGETS])
def test_target_resolves(module_name, path, name):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{module_name}.{path} is not callable"


MARKER = "# unused here; perfbench's tracer still patches th"


def tracer_only_imports():
    """(module, marker line, names) per marker comment in src/: the names
    of the `# noqa: F401` imports that directly follow it."""
    for path in sorted((ROOT / "src" / "sacloc").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        imports = {node.lineno: node for node in ast.walk(ast.parse(text))
                   if isinstance(node, ast.ImportFrom)}
        for i, line in enumerate(lines, 1):
            if line.startswith(MARKER):
                names, j = [], i + 1
                while j in imports and "# noqa: F401" in lines[j - 1]:
                    names += [alias.asname or alias.name for alias in imports[j].names]
                    j = imports[j].end_lineno + 1
                yield f"sacloc.{path.stem}", i, names


def test_tracer_only_imports_are_targets():
    # an import kept only for the tracer must go when TARGETS stops naming it
    targets = {(module, path) for module, path, _ in tracer.TARGETS}
    for module, line, names in tracer_only_imports():
        assert names, f"{module} line {line}: the marker precedes no `# noqa: F401` import"
        stale = [name for name in names if (module, name) not in targets]
        assert not stale, f"{module} imports {stale} for the tracer, but TARGETS does not patch it"


def test_warm_worker_walks_test_scans(tmp_path):
    # the worker loads the test CSV, takes len(scans), and walks scans[i]
    # (cycling) through build_sample_graph and predict_set, reading .truth
    _, config = write_config(tmp_path)
    assert run("synth", "--config", config, "--test-samples", "5") == 0
    for command in ("train", "calibrate"):
        assert run(command, "--config", config) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "warm", "--config", config],
        input="7\n", capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    ready, block, result = (json.loads(line) for line in proc.stdout.splitlines())
    assert ready == {"ready": True} and result == {"blocks": 1}
    assert block["failures"] == []
    assert len(block["latencies_ms"]) == 7
    assert len(block["first_pass"]) == len(block["errors_m"]) == 5


def test_roundtrip_worker_reproduces_checkpoint(tmp_path):
    # the worker reads the trained checkpoint through load_checkpoint and
    # writes it back through save_checkpoint, comparing the bytes
    _, config = write_config(tmp_path)
    for command in ("synth", "train"):
        assert run(command, "--config", config) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "roundtrip", "--config", config],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"ok": True, "detail": ""}
