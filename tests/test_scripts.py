"""The experiment scripts: their configs load, and they drive the CLI end to end."""

import json
import shutil
import sys
from pathlib import Path

from sacloc.cli import CHECKPOINT_NAME, load_config

from test_acceptance import DESK_GRAPH, DESK_SYNTH, DESK_TRAIN
from test_cli import TINY_CONFIG, run, write_config

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import quality_panel  # noqa: E402
import run_desk_scale  # noqa: E402
import run_full_scale  # noqa: E402

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
    assert (cfg.hidden, cfg.n_heads) == (64, 4)
    assert 1.0 - cfg.calibration_fraction == 0.8
    assert (cfg.alpha, cfg.k) == (0.1, 5)


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
    assert (cfg.hidden, cfg.n_heads, cfg.train.epochs, cfg.seed) == (8, 4, 2, 5)
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
    assert (ref.hidden, ref.n_heads, ref.train.epochs, ref.train.dropout) == (500, 4, 2, 0.4)


def test_pooled_coverage_weights_regions_by_test_count():
    regions = [{"count": 3, "coverage": 1.0}, {"count": 1, "coverage": 0.0},
               {"count": 0, "coverage": None}]
    assert quality_panel.pooled_coverage({"coverage": {"regions": regions}}) == 0.75


def test_quality_panel_of_one_checkout_against_itself(tmp_path, capsys):
    # the same checkout on both sides: every paired difference is exactly 0,
    # and the panel writes no bytecode into it
    checkout = tmp_path / "checkout"
    shutil.copytree(ROOT / "src" / "sacloc", checkout / "src" / "sacloc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = quality_panel.panel(checkout, checkout, TINY_CONFIG, (1, 2), tmp_path / "work",
                                 test_samples=20)
    assert not list(checkout.rglob("__pycache__"))
    assert result["seeds"] == [1, 2] and len(result["parent"]) == len(result["change"]) == 2
    assert result["parent"] == result["change"]
    assert result["parent"][0] != result["parent"][1]
    for summary in result["summary"].values():
        assert summary == {"mean": 0.0, "lo": 0.0, "hi": 0.0, "lower": 0, "higher": 0}
    quality_panel.print_panel(result)
    out = capsys.readouterr().out
    assert "mae_l1           +0.0000 [+0.0000, +0.0000]  lower 0, higher 0" in out
    assert "coverage_pooled  +0.0000 [+0.0000, +0.0000]  lower 0, higher 0" in out
