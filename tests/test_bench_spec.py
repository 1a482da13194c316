"""BENCHMARK.json is generated from perfbench/spec.py and must not drift from it."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import spec  # noqa: E402


def test_benchmark_json_matches_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert doc == spec.benchmark_json()
