"""The experiment scripts: their configs load, and they drive the CLI end to end."""

import json
import sys
from pathlib import Path

from sacloc.cli import CHECKPOINT_NAME, load_config

from test_acceptance import DESK_GRAPH, DESK_SYNTH, DESK_TRAIN
from test_cli import run, write_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
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
