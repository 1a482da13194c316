import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from sacloc import conformal, evalreport, regions
from sacloc.cli import (
    CALIBRATION_SCANS_NAME,
    CHECKPOINT_NAME,
    CONFIG_KEYS,
    CONFIG_SCALARS,
    load_config,
    main,
)
from sacloc.dataset import (
    SyntheticConfig,
    load_fingerprints,
    load_inventory,
    split_train_calibration,
)
from sacloc.graphbuild import GraphConfig
from sacloc.gtmodel import TrainConfig

from conftest import (
    rewrite_checkpoint_header,
    with_model,
    write_fused_root_layout,
    write_per_head_layout,
)

SCHEMA_DOC = Path(__file__).resolve().parents[1] / "docs" / "config_schema.md"

TINY_CONFIG = {
    "graph": {"d_p": 25.0, "tau": -80.0},
    "model": {"hidden": 8, "heads": 2},
    "train": {
        "epochs": 2, "batch_size": 16, "lr": 0.003, "weight_decay": 1e-4,
        "dropout": 0.1, "calibration_fraction": 0.2,
    },
    "conformal": {"alpha": 0.2, "k": 2},
    "synth": {
        "ap_count": 5, "area": [40.0, 25.0], "path_loss_exponent": 2.0,
        "ref_power_dbm": -40.0, "noise_sigma_db": 3.0,
        "detection_floor_dbm": -95.0, "train_samples": 60,
    },
    "seed": 13,
}


def write_config(tmp_path):
    cfg = dict(TINY_CONFIG)
    cfg["dataset"] = {
        "fingerprints": str(tmp_path / "data" / "fingerprints.csv"),
        "inventory": str(tmp_path / "data" / "inventory.csv"),
        "test": str(tmp_path / "data" / "test.csv"),
    }
    cfg["output_dir"] = str(tmp_path / "out")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))
    return tmp_path, str(config_path)


@pytest.fixture
def workdir(tmp_path):
    return write_config(tmp_path)


def run(*argv):
    return main(list(argv))


class TestPipeline:
    def test_full_pipeline(self, workdir, capsys):
        tmp, config = workdir
        assert run("synth", "--config", config, "--test-samples", "30") == 0
        assert (tmp / "data" / "fingerprints.csv").exists()
        assert (tmp / "data" / "inventory.csv").exists()
        assert (tmp / "data" / "test.csv").exists()

        assert run("train", "--config", config) == 0
        assert (tmp / "out" / CHECKPOINT_NAME).exists()
        log = (tmp / "out" / "loss_log.txt").read_text().splitlines()
        assert log[0] == "epoch,lr,train_mae"
        assert len(log) == 3  # header + 2 epochs

        assert run("calibrate", "--config", config) == 0
        cal = json.loads((tmp / "out" / "calibration.json").read_text())
        assert cal["alpha"] == 0.2
        assert len(cal["regions"]) == 2

        assert run("evaluate", "--config", config) == 0
        for name in ("report.json", "report.txt", "fig_error_map.csv"):
            assert (tmp / "out" / name).exists()

        assert run("sweep", "--config", config, "--alphas", "0.1,0.2") == 0
        radius_lines = (tmp / "out" / "fig_alpha_radius.csv").read_text().splitlines()
        assert len(radius_lines) - 1 == 2 * (2 + 1)
        report = json.loads((tmp / "out" / "report.json").read_text())
        assert "sweep" in report and "point_metrics" in report
        capsys.readouterr()

    def test_missing_calibration_fails(self, workdir, capsys):
        tmp, config = workdir
        assert run("synth", "--config", config) == 0
        assert run("train", "--config", config) == 0
        code = run("evaluate", "--config", config)
        err = capsys.readouterr().err
        assert code != 0
        assert "calibration" in err

    def test_missing_checkpoint_fails(self, workdir, capsys):
        tmp, config = workdir
        assert run("synth", "--config", config) == 0
        code = run("calibrate", "--config", config)
        assert code != 0
        assert "checkpoint" in capsys.readouterr().err

    def test_v1_checkpoint_rejected(self, workdir, capsys):
        tmp, config = workdir
        assert run("synth", "--config", config) == 0
        (tmp / "out").mkdir()
        (tmp / "out" / CHECKPOINT_NAME).write_text(json.dumps(
            {"magic": "sacloc-checkpoint", "version": 1, "params": {}, "extra": {}}))
        assert run("calibrate", "--config", config) == 1
        err = capsys.readouterr().err
        assert "checkpoint version 1 is no longer read; rerun `sacloc train`" in err

    def test_per_head_checkpoint_rejected(self, workdir, capsys):
        tmp, config = workdir
        assert run("synth", "--config", config) == 0
        assert run("train", "--config", config) == 0
        write_per_head_layout(tmp / "out" / CHECKPOINT_NAME)
        capsys.readouterr()
        assert run("calibrate", "--config", config) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rerun `sacloc train`" in err

    def test_fused_root_checkpoint_rejected(self, workdir, capsys):
        # the parameter names are unchanged, so only the root's shape tells
        # a checkpoint of the per-head-root layout apart
        tmp, config = workdir
        assert run("synth", "--config", config) == 0
        assert run("train", "--config", config) == 0
        assert run("calibrate", "--config", config) == 0
        write_fused_root_layout(tmp / "out" / CHECKPOINT_NAME)
        for argv in (("calibrate",), ("predict", "--rssi=-60,-70,100,-80,100")):
            capsys.readouterr()
            assert run(*argv, "--config", config) == 1
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert "layer1.root" in lines[0] and lines[0].endswith("rerun `sacloc train`")

    def test_malformed_checkpoint_header_rejected(self, workdir, capsys):
        tmp, config = workdir
        for cmd in ("synth", "train", "calibrate"):
            assert run(cmd, "--config", config) == 0
        path = tmp / "out" / CHECKPOINT_NAME
        good = path.read_bytes()
        for edit in (lambda h: {k: v for k, v in h.items() if k != "params"},
                     lambda h: [h],
                     lambda h: with_model(h, n_heads="2"),
                     lambda h: with_model(h, affine_scale=[1.0])):
            path.write_bytes(good)
            rewrite_checkpoint_header(path, edit)
            capsys.readouterr()
            assert run("evaluate", "--config", config) == 1
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")

    def test_nan_truth_fails_calibrate(self, workdir, capsys):
        tmp, config = workdir
        assert run("synth", "--config", config) == 0
        assert run("train", "--config", config) == 0
        held_out = tmp / "out" / CALIBRATION_SCANS_NAME
        header, first, *rest = held_out.read_text().splitlines()
        cells = first.split(",")
        cells[header.split(",").index("x")] = "nan"
        held_out.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
        capsys.readouterr()
        assert run("calibrate", "--config", config) == 1
        err = capsys.readouterr().err
        assert f"{held_out}: row 1" in err and "finite" in err

    def test_predict(self, workdir, capsys):
        tmp, config = workdir
        run("synth", "--config", config)
        run("train", "--config", config)
        run("calibrate", "--config", config)
        capsys.readouterr()

        assert run("predict", "--config", config,
                   "--rssi=-60,-70,100,-80,100") == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("(") and out.endswith(")")
        assert len(out.split(",")) == 4

    def test_predict_all_sentinel_warns(self, workdir, capsys):
        tmp, config = workdir
        run("synth", "--config", config)
        run("train", "--config", config)
        run("calibrate", "--config", config)
        capsys.readouterr()

        assert run("predict", "--config", config,
                   "--rssi", "100,100,100,100,100") == 0
        captured = capsys.readouterr()
        assert "no_connected_aps" in captured.err
        assert captured.out.startswith("(")

    def test_predict_wrong_length(self, workdir, capsys):
        tmp, config = workdir
        run("synth", "--config", config)
        run("train", "--config", config)
        run("calibrate", "--config", config)
        capsys.readouterr()
        assert run("predict", "--config", config, "--rssi=-60,-70") != 0
        assert "5" in capsys.readouterr().err


    def test_foreign_calibration_fails_evaluate(self, workdir, capsys):
        tmp, config = workdir
        assert run("synth", "--config", config) == 0
        assert run("train", "--config", config) == 0
        (tmp / "out" / "calibration.json").write_text('{"magic": "something-else"}')
        capsys.readouterr()
        assert run("evaluate", "--config", config) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a calibration file" in err


class TestHeldOutScans:
    """`train` splits the pool once and writes the held-out side; `calibrate`
    and `sweep` read that file and never the pool."""

    def test_is_the_split_of_the_pool(self, workdir):
        tmp, config = workdir
        for cmd in ("synth", "train"):
            assert run(cmd, "--config", config) == 0
        inventory = load_inventory(tmp / "data" / "inventory.csv")
        pool = load_fingerprints(tmp / "data" / "fingerprints.csv", inventory)
        _, expected = split_train_calibration(pool, 0.8, TINY_CONFIG["seed"])
        held_out = load_fingerprints(tmp / "out" / CALIBRATION_SCANS_NAME, inventory)
        assert len(held_out) == 12
        assert np.array_equal(held_out.rssi, expected.rssi)
        assert np.array_equal(held_out.truth, expected.truth)

    def test_pool_edits_after_train_change_nothing(self, workdir):
        # at a re-split, reversed rows and another fraction would move
        # training scans into the calibration set
        tmp, config = workdir
        for cmd in ("synth", "train", "calibrate"):
            assert run(cmd, "--config", config) == 0
        calibration = (tmp / "out" / "calibration.json").read_bytes()
        pool = tmp / "data" / "fingerprints.csv"
        header, *rows = pool.read_text().splitlines()
        pool.write_text("\n".join([header, *reversed(rows)]) + "\n")
        cfg = json.loads(Path(config).read_text())
        cfg["train"]["calibration_fraction"] = 0.5
        Path(config).write_text(json.dumps(cfg))
        assert run("calibrate", "--config", config) == 0
        assert (tmp / "out" / "calibration.json").read_bytes() == calibration

    def test_calibrate_and_sweep_need_no_pool(self, workdir, capsys):
        tmp, config = workdir
        for cmd in ("synth", "train"):
            assert run(cmd, "--config", config) == 0
        cfg = json.loads(Path(config).read_text())
        del cfg["dataset"]["fingerprints"]
        Path(config).write_text(json.dumps(cfg))
        (tmp / "data" / "fingerprints.csv").unlink()
        assert run("calibrate", "--config", config) == 0
        assert run("sweep", "--config", config, "--alphas", "0.1,0.2") == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["calibrate", "sweep"])
    def test_missing_file_fails(self, workdir, capsys, command):
        tmp, config = workdir
        for cmd in ("synth", "train", "calibrate"):
            assert run(cmd, "--config", config) == 0
        (tmp / "out" / CALIBRATION_SCANS_NAME).unlink()
        capsys.readouterr()
        assert run(command, "--config", config) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"missing {CALIBRATION_SCANS_NAME}" in err

    def test_empty_held_out_side_fails_train(self, workdir, capsys):
        # 2 scans at fraction 0.2 train on round(1.6) = 2 and hold out none
        tmp, config = workdir
        cfg = json.loads(Path(config).read_text())
        cfg["synth"]["train_samples"] = 2
        Path(config).write_text(json.dumps(cfg))
        assert run("synth", "--config", config) == 0
        capsys.readouterr()
        assert run("train", "--config", config) == 1
        err = capsys.readouterr().err
        assert err == ("error: train.calibration_fraction 0.2 of 2 scans holds out no "
                       "calibration scan\n")
        assert not (tmp / "out").exists()


@pytest.fixture(scope="class")
def calibrated(tmp_path_factory):
    """A synthesized, trained and calibrated tiny run shared by a test class."""
    tmp, config = write_config(tmp_path_factory.mktemp("calibrated"))
    for cmd in ("synth", "train", "calibrate"):
        assert run(cmd, "--config", config) == 0
    return tmp, config


class TestPredictInput:
    """Bad scan input exits 1 with one `error:` line naming the entry or file."""

    def predict_error(self, capsys, config, *argv):
        capsys.readouterr()
        assert run("predict", "--config", config, *argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        return captured.err

    def test_non_number_entry(self, calibrated, capsys):
        _, config = calibrated
        err = self.predict_error(capsys, config, "--rssi=-60,abc,100,-80,100")
        assert "entry 2 ('abc') is not a number" in err

    def test_missing_rssi_file(self, calibrated, capsys):
        tmp, config = calibrated
        err = self.predict_error(capsys, config, "--rssi-file", str(tmp / "nope.txt"))
        assert "nope.txt" in err

    @pytest.mark.parametrize("bad", ["nan", "12"])
    def test_nan_or_positive_rssi(self, calibrated, capsys, bad):
        _, config = calibrated
        err = self.predict_error(capsys, config, f"--rssi=-60,-70,100,{bad},100")
        assert "finite and <= 0 dBm" in err and "entry 4" in err


class TestCsvBoundary:
    """A bad fingerprint or inventory CSV exits 1 with one `error:` line naming the file."""

    def cli_error(self, capsys, calibrated, command, key, rewrite):
        tmp, config = calibrated
        cfg = json.loads(Path(config).read_text())
        source = Path(cfg["dataset"][key])
        bad = tmp / f"{rewrite.__name__}.csv"
        bad.write_text(rewrite(source.read_text().splitlines()))
        cfg["dataset"][key] = str(bad)
        bad_config = tmp / f"{rewrite.__name__}.json"
        bad_config.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run(command, "--config", str(bad_config)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(bad) in captured.err
        return captured.err

    def test_duplicate_ap_id(self, calibrated, capsys):
        def duplicate_ap_id(lines):
            first_id = lines[1].split(",")[0]
            lines[2] = ",".join([first_id, *lines[2].split(",")[1:]])
            return "\n".join(lines) + "\n"

        err = self.cli_error(capsys, calibrated, "evaluate", "inventory", duplicate_ap_id)
        assert "ap_ids are not unique" in err

    def test_non_finite_ap_coordinate(self, calibrated, capsys):
        def nan_ap_x(lines):
            ap_id, _, y = lines[1].split(",")
            lines[1] = f"{ap_id},nan,{y}"
            return "\n".join(lines) + "\n"

        err = self.cli_error(capsys, calibrated, "evaluate", "inventory", nan_ap_x)
        assert "must be finite" in err

    def test_duplicate_fingerprint_column(self, calibrated, capsys):
        def duplicate_x(lines):
            return "\n".join([lines[0] + ",x"] + [row + ",0.0" for row in lines[1:]]) + "\n"

        err = self.cli_error(capsys, calibrated, "train", "fingerprints", duplicate_x)
        assert "column 'x' appears more than once" in err

    def test_malformed_fingerprint_row(self, calibrated, capsys):
        # train reads two CSVs; the error names the one with the bad cell
        def bad_cell(lines):
            lines[2] = ",".join(["oops", *lines[2].split(",")[1:]])
            return "\n".join(lines) + "\n"

        err = self.cli_error(capsys, calibrated, "train", "fingerprints", bad_cell)
        assert "bad_cell.csv: row 2: could not convert string to float: 'oops'" in err

    def test_malformed_held_out_row(self, calibrated, capsys):
        # calibrate reads the inventory and the scans train held out
        tmp, config = calibrated
        out = tmp / "bad_held_out"
        shutil.copytree(tmp / "out", out)
        held_out = out / CALIBRATION_SCANS_NAME
        lines = held_out.read_text().splitlines()
        lines[2] = ",".join(["oops", *lines[2].split(",")[1:]])
        held_out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("calibrate", "--config", config, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {held_out}: row 2: could not convert string to float: 'oops'\n"

    def test_reserved_ap_id(self, calibrated, capsys):
        def ap_named_y(lines):
            lines[1] = ",".join(["y", *lines[1].split(",")[1:]])
            return "\n".join(lines) + "\n"

        err = self.cli_error(capsys, calibrated, "train", "inventory", ap_named_y)
        assert "ap_id 'y' is a reserved fingerprint CSV column" in err


class TestBadSettings:
    """A bad setting exits 1 with one `error:` line naming its key or flag,
    before any stage computes with it."""

    @pytest.mark.parametrize("argv, sections, message", [
        (("train",), {"train": {"calibration_fraction": 1.5}},
         "train.calibration_fraction must be in (0, 1), got 1.5"),
        (("calibrate",), {"conformal": {"alpha": 1.5}}, "conformal.alpha must be in (0, 1)"),
        (("calibrate",), {"conformal": {"k": 0}}, "conformal.k must be at least 1, got 0"),
        (("train",), {"model": {"hidden": 10, "heads": 4}},
         "model.heads must be a positive divisor of model.hidden (10), got 4"),
        (("sweep", "--alphas", "abc"), {}, "--alphas: 'abc' is not a number"),
        (("sweep", "--alphas", "0.2,0.1"), {}, "--alphas must be strictly increasing"),
        (("sweep", "--alphas", "0.1,1.5"), {}, "--alphas: 1.5 is not in (0, 1)"),
        (("synth", "--test-samples", "-5"), {},
         "--test-samples must be a positive integer, got '-5'"),
        (("calibrate",), {"conformal": {"k": 2.7}}, "conformal.k must be an integer, got 2.7"),
        (("train",), {"train": {"epochs": 3.9}}, "train.epochs must be an integer, got 3.9"),
        (("train",), {"train": {"batch_size": True}},
         "train.batch_size must be an integer, got true"),
        (("train",), {"model": {"hidden": 64.5}}, "model.hidden must be an integer, got 64.5"),
        (("train",), {"seed": 1.5}, "seed must be an integer, got 1.5"),
        (("synth",), {"synth": {"ap_count": 5.0}}, "synth.ap_count must be an integer, got 5.0"),
        (("synth",), {"synth": {"train_samples": "60"}},
         'synth.train_samples must be an integer, got "60"'),
        (("train",), {"train": {"lr": "0.003"}}, 'train.lr must be a number, got "0.003"'),
        (("train",), {"train": {"dropout": False}}, "train.dropout must be a number, got false"),
        (("calibrate",), {"conformal": {"alpha": True}},
         "conformal.alpha must be a number, got true"),
        (("synth",), {"synth": {"area": [40.0]}},
         "synth.area must be [width, height], got [40.0]"),
        (("train",), {"graph": {"tau": math.nan}}, "graph.tau must be finite, got NaN"),
        (("train",), {"graph": {"d_p": math.nan}}, "graph.d_p must be finite, got NaN"),
        (("train",), {"train": {"lr": math.inf}}, "train.lr must be finite, got Infinity"),
        (("synth",), {"synth": {"noise_sigma_db": math.nan}},
         "synth.noise_sigma_db must be finite, got NaN"),
        (("synth",), {"synth": {"area": [40.0, -math.inf]}},
         "synth.area must be finite, got -Infinity"),
        (("synth",), {"synth": {"train_samples": -5}},
         "synth.train_samples must be at least 1, got -5"),
        (("train",), {"train": {"weight_decay": -0.1}},
         "train.weight_decay must be nonnegative, got -0.1"),
        (("train",), {"train": {"lr": -0.001}}, "train.lr must be nonnegative, got -0.001"),
        (("train",), {"train": {"epochs": 0}}, "train.epochs must be at least 1, got 0"),
        (("train",), {"train": {"batch_size": 0}}, "train.batch_size must be at least 1, got 0"),
        (("train",), {"train": {"dropout": 1.5}}, "train.dropout must be in [0, 1), got 1.5"),
        (("train",), {"graph": {"d_p": 0}}, "graph.d_p must be positive, got 0.0"),
        (("train",), {"graph": {"tau": 5.0}}, "graph.tau must be at most 0 dBm, got 5.0"),
        (("synth",), {"synth": {"noise_sigma_db": -1}},
         "synth.noise_sigma_db must be nonnegative, got -1.0"),
        (("synth",), {"synth": {"ap_count": 2}}, "synth.ap_count must be at least 3, got 2"),
        (("synth",), {"synth": {"area": [100.0, 0.0]}},
         "synth.area must be positive, got [100.0, 0.0]"),
    ], ids=["calibration_fraction", "alpha", "k", "heads", "alphas-abc", "alphas-order",
            "alphas-range", "test-samples", "k-fraction", "epochs-fraction",
            "batch_size-boolean", "hidden-fraction", "seed-fraction", "ap_count-float",
            "train_samples-string", "lr-string", "dropout-boolean", "alpha-boolean",
            "area-length", "tau-nan", "d_p-nan", "lr-infinity", "noise_sigma_db-nan",
            "area-infinity", "train_samples-negative", "weight_decay-negative",
            "lr-negative", "epochs-zero", "batch_size-zero", "dropout-range", "d_p-zero",
            "tau-positive", "noise_sigma_db-negative", "ap_count-two", "area-zero"])
    def test_rejected_where_it_arrives(self, workdir, capsys, argv, sections, message):
        tmp, config = workdir
        cfg = json.loads((tmp / "config.json").read_text())
        for section, values in sections.items():
            cfg[section] = {**cfg[section], **values} if isinstance(values, dict) else values
        (tmp / "config.json").write_text(json.dumps(cfg))
        assert run(argv[0], "--config", config, *argv[1:]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err
        assert not (tmp / "data").exists() and not (tmp / "out").exists()


    @pytest.mark.parametrize("key", ["area", "ap_count"])
    def test_synth_names_a_missing_key(self, workdir, capsys, key):
        tmp, config = workdir
        cfg = json.loads((tmp / "config.json").read_text())
        del cfg["synth"][key]
        (tmp / "config.json").write_text(json.dumps(cfg))
        assert run("synth", "--config", config) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"synth.{key} is required" in err
        assert not (tmp / "data").exists()

class TestSweep:
    def test_follows_the_calibration_file(self, workdir, capsys):
        # after calibrating by predicted region, sweep reports the radii and
        # coverage that evaluate reports, from the same file
        tmp, config = workdir
        for argv in (("synth",), ("train",), ("calibrate", "--assignment", "predicted"),
                     ("evaluate",)):
            assert run(argv[0], "--config", config, *argv[1:]) == 0
        evaluated = json.loads((tmp / "out" / "report.json").read_text())
        calibration = (tmp / "out" / "calibration.json").read_text()
        assert json.loads(calibration)["assignment"] == "predicted"
        assert run("sweep", "--config", config, "--alphas", "0.1,0.2") == 0
        swept = json.loads((tmp / "out" / "report.json").read_text())
        assert swept["coverage"] == evaluated["coverage"]
        assert (tmp / "out" / "calibration.json").read_text() == calibration
        # the grid row at the file's alpha is the file's calibration
        row = swept["sweep"]["alphas"].index(0.2)
        radii = [r["radius"] for r in json.loads(calibration)["regions"]]
        assert swept["sweep"]["radii"][row] == radii
        capsys.readouterr()

    def test_needs_the_calibration_file(self, workdir, capsys):
        tmp, config = workdir
        assert run("synth", "--config", config) == 0
        assert run("train", "--config", config) == 0
        capsys.readouterr()
        assert run("sweep", "--config", config) == 1
        assert "missing calibration.json" in capsys.readouterr().err

    def test_other_k_than_the_file_fails(self, calibrated, capsys):
        tmp, config = calibrated
        cfg = json.loads(Path(config).read_text())
        cfg["conformal"] = {**cfg["conformal"], "k": 3}
        other = tmp / "k3.json"
        other.write_text(json.dumps(cfg))
        report = tmp / "out" / "report.json"
        before = report.read_bytes() if report.exists() else None
        capsys.readouterr()
        assert run("sweep", "--config", str(other)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "calibration.json" in err
        assert "rerun `sacloc calibrate`" in err
        assert (report.read_bytes() if report.exists() else None) == before

    def test_regions_fitted_once(self, calibrated, monkeypatch):
        _, config = calibrated
        calls = []

        def counting_fit(*args, **kwargs):
            calls.append(args)
            return regions.kmeans_fit(*args, **kwargs)

        monkeypatch.setattr(conformal, "kmeans_fit", counting_fit)
        monkeypatch.setattr(evalreport, "kmeans_fit", counting_fit)
        assert run("sweep", "--config", config, "--alphas", "0.1,0.2") == 0
        assert len(calls) == 1


class TestFlags:
    def test_config_alpha_and_k_reach_calibration(self, workdir):
        tmp, config = workdir
        cfg = json.loads((tmp / "config.json").read_text())
        cfg["conformal"] = {"alpha": 0.3, "k": 3}
        (tmp / "config.json").write_text(json.dumps(cfg))
        run("synth", "--config", config)
        run("train", "--config", config)
        assert run("calibrate", "--config", config) == 0
        cal = json.loads((tmp / "out" / "calibration.json").read_text())
        assert cal["alpha"] == 0.3
        assert len(cal["regions"]) == 3

    @pytest.mark.parametrize("argv", [("train", "--epochs", "3"), ("calibrate", "--k", "3")])
    def test_run_settings_have_no_flags(self, workdir, capsys, argv):
        # a flag would let one stage compute with settings the others do not
        _, config = workdir
        with pytest.raises(SystemExit) as exc:
            run(argv[0], "--config", config, *argv[1:])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_out_override(self, workdir):
        tmp, config = workdir
        run("synth", "--config", config)
        other = tmp / "elsewhere"
        assert run("train", "--config", config, "--out", str(other)) == 0
        assert (other / CHECKPOINT_NAME).exists()

    def test_help_exits_zero(self, capsys):
        for cmd in ("synth", "train", "calibrate", "predict", "evaluate", "sweep"):
            with pytest.raises(SystemExit) as exc:
                run(cmd, "--help")
            assert exc.value.code == 0
            out = capsys.readouterr().out
            # the seed comes from the config only: a per-stage seed could
            # fit other regions in sweep than in calibrate
            assert "--config" in out and "--seed" not in out

    def test_missing_config_file(self, tmp_path, capsys):
        assert run("train", "--config", str(tmp_path / "nope.json")) == 1
        assert "not found" in capsys.readouterr().err

    def test_misspelled_key(self, workdir, capsys):
        tmp, config = workdir
        cfg = json.loads((tmp / "config.json").read_text())
        cfg["train"]["epoch"] = 5
        cfg["train"]["dropuot"] = cfg["train"].pop("dropout")
        (tmp / "config.json").write_text(json.dumps(cfg))
        assert run("train", "--config", config) == 1
        err = capsys.readouterr().err
        assert "train.dropuot" in err and "train.epoch" in err

    def test_unset_keys_take_dataclass_defaults(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"synth": {"ap_count": 7, "area": [30, 20]}, "seed": 4}))
        cfg = load_config(path)
        assert cfg.synth == SyntheticConfig(7, (30.0, 20.0), seed=4)
        assert cfg.graph == GraphConfig()
        assert cfg.train == TrainConfig(seed=4)

    def test_schema_doc_lists_every_key_with_its_default(self, tmp_path):
        # the doc's jsonc example names exactly the accepted keys (bar the
        # ignored train.workers), each showing the default an omitted key takes
        block = SCHEMA_DOC.read_text(encoding="utf-8").split("```jsonc\n", 1)[1]
        doc = json.loads(re.sub(r"//[^\n]*", "", block.split("```", 1)[0]))
        shown = {f"{name}.{key}": value for name, section in doc.items()
                 if isinstance(section, dict) for key, value in section.items()}
        shown.update((name, value) for name, value in doc.items() if name in CONFIG_SCALARS)
        accepted = {f"{name}.{key}" for name, keys in CONFIG_KEYS.items() for key in keys}
        assert set(shown) == accepted - {"train.workers"} | CONFIG_SCALARS
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"synth": {"ap_count": 20, "area": [100, 40]}}))
        cfg = load_config(path)
        for key, value in shown.items():
            if key.startswith("dataset.") or key in ("synth.ap_count", "synth.area"):
                continue  # paths, and the synth keys without a default
            section, _, name = key.rpartition(".")
            default = getattr(getattr(cfg, section) if section else cfg, name)
            assert default == (Path(value) if key == "output_dir" else value), key

    def test_invalid_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run("train", "--config", str(bad)) == 1
        assert "JSON" in capsys.readouterr().err


class TestDeterminism:
    def test_synth_idempotent(self, workdir):
        tmp, config = workdir
        assert run("synth", "--config", config) == 0
        first = {
            name: (tmp / "data" / name).read_bytes()
            for name in ("fingerprints.csv", "inventory.csv", "test.csv")
        }
        assert run("synth", "--config", config) == 0
        for name, blob in first.items():
            assert (tmp / "data" / name).read_bytes() == blob, name

    def test_rerun_byte_identical(self, workdir):
        tmp, config = workdir
        run("synth", "--config", config)
        outputs = []
        for name in ("r1", "r2"):
            out = tmp / name
            assert run("train", "--config", config, "--out", str(out)) == 0
            assert run("calibrate", "--config", config, "--out", str(out)) == 0
            assert run("evaluate", "--config", config, "--out", str(out)) == 0
            outputs.append(out)
        a, b = outputs
        for name in (CHECKPOINT_NAME, "loss_log.txt", "calibration.json",
                     "report.json", "report.txt", "fig_error_map.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
