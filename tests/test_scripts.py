"""The experiment scripts: their configs load, and they drive the CLI end to end."""

import json
import shutil
import sys
from pathlib import Path

import pytest

from sacloc.cli import CHECKPOINT_NAME, CONFIG_KEYS, CONFIG_SCALARS, load_config

from test_acceptance import DESK_GRAPH, DESK_SYNTH, DESK_TRAIN
from test_cli import TINY_CONFIG, run, write_config

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import bench_pairs  # noqa: E402
import quality_panel  # noqa: E402
import run_desk_scale  # noqa: E402
import run_full_scale  # noqa: E402
import same_artifacts  # noqa: E402
import src_size  # noqa: E402

ARTIFACTS = (CHECKPOINT_NAME, "loss_log.txt", "calibration.json", "report.json", "report.txt",
             "fig_error_map.csv", "fig_alpha_coverage.csv", "fig_alpha_radius.csv")


def test_desk_config_is_the_acceptance_world(tmp_path):
    # load_config rejects unknown keys, so a typo in the script's dict fails here
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(run_desk_scale.CONFIG, seed=11)))
    cfg = load_config(path)
    assert cfg.synth == DESK_SYNTH
    assert cfg.train == DESK_TRAIN
    assert cfg.graph == DESK_GRAPH
    assert (cfg.model.hidden, cfg.model.heads) == (64, 4)
    assert 1.0 - cfg.train.calibration_fraction == 0.8
    assert (cfg.conformal.alpha, cfg.conformal.k) == (0.1, 5)


def test_full_scale_runs_end_to_end(tmp_path, capsys):
    tmp, config = write_config(tmp_path)
    assert run("synth", "--config", config, "--test-samples", "30") == 0
    data, out = tmp / "data", tmp / "full"
    argv = [str(data / f"{name}.csv") for name in ("fingerprints", "inventory", "test")]
    assert run_full_scale.main(
        [*argv, "--out", str(out), "--seed", "5", "--hidden", "8", "--epochs", "2"]) == 0
    for name in ARTIFACTS:
        assert (out / name).exists(), name

    cfg = load_config(out / "config.json")
    assert (cfg.model.hidden, cfg.model.heads, cfg.train.epochs, cfg.seed) == (8, 4, 2, 5)
    assert (cfg.fingerprints, cfg.output_dir) == (data / "fingerprints.csv", out)
    assert len((out / "loss_log.txt").read_text().splitlines()) == 1 + 2
    assert "coverage" in capsys.readouterr().out


def test_stage_failure_returns_its_exit_code(tmp_path, capsys):
    missing = [str(tmp_path / f"{name}.csv") for name in ("fingerprints", "inventory", "test")]
    assert run_full_scale.main([*missing, "--out", str(tmp_path / "out")]) == 1
    assert "not found" in capsys.readouterr().err
    assert not (tmp_path / "out" / CHECKPOINT_NAME).exists()


def test_panel_configs_are_the_desk_world(tmp_path):
    # desk, and ref-m20 at the reference width for 2 epochs
    loaded = {}
    for name, config in quality_panel.CONFIGS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(config, seed=11)))
        loaded[name] = load_config(path)
        assert loaded[name].synth == DESK_SYNTH and loaded[name].graph == DESK_GRAPH
    assert loaded["desk"].train == DESK_TRAIN
    ref = loaded["ref-m20"]
    assert (ref.model.hidden, ref.model.heads, ref.train.epochs, ref.train.dropout) == (
        500, 4, 2, 0.4)


def test_pooled_coverage_weights_regions_by_test_count():
    regions = [{"count": 3, "coverage": 1.0}, {"count": 1, "coverage": 0.0},
               {"count": 0, "coverage": None}]
    assert quality_panel.pooled_coverage({"coverage": {"regions": regions}}) == 0.75


def test_quality_panel_of_one_checkout_against_itself(tmp_path, capsys, monkeypatch):
    # the same checkout on both sides: every paired difference is exactly 0,
    # the panel writes no bytecode into it, and `--json` holds what it printed
    checkout = tmp_path / "checkout"
    shutil.copytree(ROOT / "src" / "sacloc", checkout / "src" / "sacloc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setitem(quality_panel.CONFIGS, "tiny", TINY_CONFIG)
    monkeypatch.setattr(quality_panel, "TEST_SAMPLES", 20)
    out = tmp_path / "panel.json"
    assert quality_panel.main(["--parent", str(checkout), "--change", str(checkout),
                               "--config", "tiny", "--seeds", "1", "2",
                               "--json", str(out)]) == 0
    assert not list(checkout.rglob("__pycache__"))
    result = json.loads(out.read_text())
    assert result.pop("config") == "tiny"
    assert result["seeds"] == [1, 2] and len(result["parent"]) == len(result["change"]) == 2
    assert result["parent"] == result["change"]
    assert result["parent"][0] != result["parent"][1]
    for summary in result["summary"].values():
        assert summary == {"mean": 0.0, "lo": 0.0, "hi": 0.0, "lower": 0, "higher": 0}
    assert list(result["summary"]) == list(quality_panel.METRICS)
    printed = capsys.readouterr().out
    assert "mae_l1           +0.0000 [+0.0000, +0.0000]  lower 0, higher 0" in printed
    assert "coverage_pooled  +0.0000 [+0.0000, +0.0000]  lower 0, higher 0" in printed


def test_same_artifacts_verdicts(tmp_path, capsys, monkeypatch):
    # outputs are listed in stage order; only a difference fails the check
    parent = {"train out/checkpoint.bin": "a", "evaluate out/report.json": "b",
              "sweep out/fig.csv": "c", "predict 1": "(1, 2, 0, 3)"}
    change = {"train out/checkpoint.bin": "a", "evaluate out/report.json": "B",
              "predict 1": "(1, 2, 0, 3)", "train out/new.csv": "d"}
    assert same_artifacts.compare(parent, change) == [
        ("train out/checkpoint.bin", "same"), ("train out/new.csv", "only in change"),
        ("evaluate out/report.json", "differs"), ("sweep out/fig.csv", "only in parent"),
        ("predict 1", "same")]
    checkout = tmp_path / "checkout"
    (checkout / "src" / "sacloc").mkdir(parents=True)
    (checkout / "src" / "sacloc" / "__init__.py").touch()
    monkeypatch.setattr(same_artifacts, "outputs",
                        lambda path, config, seed, work: change if "change" in work.parts
                        else parent)
    assert same_artifacts.main(["--parent", str(checkout), "--change", str(checkout),
                                "--seed", "1"]) == 1
    printed = capsys.readouterr().out
    assert "  differs         evaluate out/report.json\n" in printed
    assert printed.endswith("1 outputs differ\n")


def test_same_artifacts_of_one_checkout_against_itself(tmp_path, capsys, monkeypatch):
    # every stage's files and every predict line, each the same on both
    # sides; the runs write no bytecode into the checkout
    checkout = tmp_path / "checkout"
    shutil.copytree(ROOT / "src" / "sacloc", checkout / "src" / "sacloc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setitem(quality_panel.CONFIGS, "tiny", TINY_CONFIG)
    monkeypatch.setattr(quality_panel, "TEST_SAMPLES", 20)
    assert same_artifacts.main(["--parent", str(checkout), "--change", str(checkout),
                                "--config", "tiny", "--seed", "3"]) == 0
    assert not list(checkout.rglob("__pycache__"))
    header, seed, *rows, verdict = capsys.readouterr().out.splitlines()
    assert (header, seed) == ("# same artifacts: config tiny, seeds 3", "seed 3")
    assert verdict == "every output both checkouts write is identical"
    assert all(row.startswith("  same ") for row in rows)
    outputs = [row.split(None, 1)[1] for row in rows]
    report = ("out/fig_error_map.csv", "out/report.json", "out/report.txt")
    assert outputs == [
        *(f"synth {n}.csv" for n in ("fingerprints", "inventory", "test")),
        "train out/calibration_scans.csv", "train out/checkpoint.bin", "train out/loss_log.txt",
        "calibrate out/calibration.json",
        *(f"evaluate {name}" for name in report),
        "sweep out/fig_alpha_coverage.csv", "sweep out/fig_alpha_radius.csv",
        *(f"sweep {name}" for name in report),
        *(f"predict {n}" for n in range(1, 6))]


@pytest.fixture
def fresh_checkout(tmp_path):
    """The sources, the benchmark and BENCHMARK.json, without bytecode."""
    checkout = tmp_path / "checkout"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, checkout / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", checkout)
    return checkout


def test_pairs_verdict_counts_ties_for_neither_side():
    # parent median 14.5, quartiles 12.25 and 16.75: an IQR of 4.5
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    s = bench_pairs.compare(parent, [p - 5.0 for p in parent], "lower", 0.25)
    assert (s["parent_q1"], s["parent_median"], s["parent_q3"]) == (12.25, 14.5, 16.75)
    assert (s["change_better_pairs"], s["change_worse_pairs"]) == (10, 0) and s["claim_met"]
    # one tie and nine wins meet the rule; two ties leave eight of ten
    one_tie = [p - 5.0 for p in parent[:9]] + parent[9:]
    s = bench_pairs.compare(parent, one_tie, "lower", 0.25)
    assert (s["change_better_pairs"], s["change_worse_pairs"]) == (9, 0) and s["claim_met"]
    two_ties = [p - 5.0 for p in parent[:8]] + parent[8:]
    s = bench_pairs.compare(parent, two_ties, "lower", 0.25)
    assert (s["change_better_pairs"], s["change_worse_pairs"]) == (8, 0)
    assert not s["claim_met"]
    # lower in every pair, but the median gap (4) is inside the IQR
    assert not bench_pairs.compare(parent, [p - 4.0 for p in parent], "lower", 0.25)["claim_met"]
    # a higher-is-better metric wins by rising
    s = bench_pairs.compare(parent, [p + 5.0 for p in parent], "higher", 0.25)
    assert s["change_better_pairs"] == 10 and s["claim_met"] and not s["worse_beyond_bound"]
    # the bound is a fraction of the parent's median: 14.5 * 1.25 = 18.125
    assert bench_pairs.compare(parent, [p * 1.3 for p in parent], "lower", 0.25)[
        "worse_beyond_bound"]
    assert not bench_pairs.compare(parent, [p * 1.2 for p in parent], "lower", 0.25)[
        "worse_beyond_bound"]


def test_pairs_alternate_and_flag(fresh_checkout, monkeypatch):
    # the parent runs first in odd pairs; a metric worse beyond its bound
    # and a larger share of failed operations are flagged, the claim is not
    calls = []

    def fake_run(checkout, workload, seed, smoke):
        side = "parent" if checkout == fresh_checkout else "change"
        calls.append(side)
        slow = side == "change"
        metrics = {"predict_p50_ms": {"value": 1.0 if slow else 2.0, "unit": "ms"},
                   "train_s": {"value": 2.0 if slow else 1.0, "unit": "s"}}
        return {"exit": 0, "wall_s": 1.0, "code": side, "notes": [],
                "result": {"correct": True, "attempted": 10, "failed": int(slow),
                           "metrics": metrics}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    end_to_end = [{"name": n, "unit": u, "better": "lower", "bound": 0.25}
                  for n, u in (("predict_p50_ms", "ms"), ("train_s", "s"))]
    doc = bench_pairs.pairs(fresh_checkout, fresh_checkout.parent, "desk-m20-h64", 11, 3,
                            False, end_to_end, "predict_p50_ms")
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    assert [(r["pair"], r["side"]) for r in doc["runs"]] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"), (3, "parent"),
        (3, "change")]
    assert doc["claim_met"] is True
    assert doc["summary"]["predict_p50_ms"]["change_better_pairs"] == 3
    assert doc["flagged"] == ["train_s", "failed operations"]
    assert doc["failed"] == {"parent": {"failed": 0, "attempted": 30},
                             "change": {"failed": 3, "attempted": 30}}
    assert doc["code"] == {"parent": ["parent"], "change": ["change"]}


def test_pairs_refuse_a_checkout_with_bytecode(fresh_checkout, tmp_path, capsys):
    cached = tmp_path / "cached"
    shutil.copytree(fresh_checkout, cached)
    (cached / "src" / "sacloc" / "__pycache__").mkdir()
    argv = ["--workload", "desk-m20-h64", "--pairs", "1", "--smoke"]
    assert bench_pairs.main(["--parent", str(fresh_checkout), "--change", str(cached),
                             *argv]) == 1
    assert "__pycache__ exists" in capsys.readouterr().err
    assert not (fresh_checkout / ".perfbench_out").exists()  # nothing ran


def test_pairs_smoke_of_one_checkout_against_itself(fresh_checkout, tmp_path, capsys):
    # two seeds in one command: a verdict each, and one document with both
    out = tmp_path / "pairs.json"
    assert bench_pairs.main([
        "--parent", str(fresh_checkout), "--change", str(fresh_checkout),
        "--workload", "desk-m20-h64", "--seed", "11", "--seed", "2718", "--pairs", "1",
        "--smoke", "--claim", "predict_p50_ms", "--json", str(out)]) == 0
    combined = json.loads(out.read_text())
    assert (combined["workload"], combined["claim"]) == ("desk-m20-h64", "predict_p50_ms")
    assert list(combined["seeds"]) == ["11", "2718"]
    assert combined["claim_met"] == all(d["claim_met"] for d in combined["seeds"].values())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    for seed, doc in combined["seeds"].items():
        assert doc["seed"] == int(seed)
        assert [(r["pair"], r["side"]) for r in doc["runs"]] == [(1, "parent"), (1, "change")]
        assert all(r["exit"] == 0 and r["result"]["correct"] for r in doc["runs"])
        assert doc["failed"]["parent"]["failed"] == doc["failed"]["change"]["failed"] == 0
        assert list(doc["summary"]) == [m["name"] for m in benchmark["end_to_end"]]
        assert len(doc["code"]["parent"]) == 1
        assert doc["code"]["parent"] == doc["code"]["change"]
    # the runs leave no bytecode behind, so the checkout can be run again
    assert not list(fresh_checkout.rglob("__pycache__"))
    printed = capsys.readouterr().out
    assert printed.count("claim predict_p50_ms: ") == 2
    assert "# desk-m20-h64 seed 11, 1 pairs" in printed
    assert "# desk-m20-h64 seed 2718, 1 pairs" in printed


def test_src_size_counts_code_lines_and_settable_values(capsys):
    text = '''"""Module docstring,
two lines."""

# a comment
X = 1  # code with a comment


def f(a,
      b):
    """One line."""
    return """a string
that is not a docstring"""
'''
    assert src_size.code_lines(text) == 5
    assert src_size.main(["--json"]) == 0
    size = json.loads(capsys.readouterr().out)
    assert set(size["modules"]) == {p.name for p in (ROOT / "src" / "sacloc").glob("*.py")}
    assert size["code_lines"] == sum(size["modules"].values())
    assert size["config_keys"] == sum(map(len, CONFIG_KEYS.values())) + len(CONFIG_SCALARS)
    # --config --out --test-samples --assignment --rssi --rssi-file --alphas
    assert size["cli_options"] == 7
    assert size["settable_values"] == size["config_keys"] + size["cli_options"]
    assert src_size.main([]) == 0
    assert f"{size['code_lines']} code lines" in capsys.readouterr().out
