"""Command-line front end wiring the pipeline stages together.

All commands read one JSON config file, the only source of run settings
(a key it leaves out takes the built-in default), so every stage of a run
computes with the same ones; `--out` only moves the output directory.
Flags name inputs and per-command choices. Every random choice flows from
the config's seed through named streams, so reruns with identical inputs
are byte-identical. `SACLOC_LOG` sets the log level (DEBUG/INFO/WARNING/...).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

import numpy as np

from .conformal import (
    ConformalConfig,
    SacpCalibration,
    calibrate,
    calibration_document,
    load_calibration,
    predict_set,
    save_calibration,
)
from .dataset import (
    ApInventory,
    FingerprintSample,
    ScanSet,
    SyntheticConfig,
    generate_synthetic,
    load_fingerprints,
    load_inventory,
    save_fingerprints,
    save_inventory,
    split_train_calibration,
    synthesize_scans,
)
from .errors import (
    BadCalibration,
    ConfigError,
    MissingArtifact,
    OutOfRange,
    SaclocError,
)
from .evalreport import (
    CoverageReport,
    ErrorMapData,
    PointMetrics,
    SweepResult,
    alpha_sweep,
    baseline_positions,
    coverage_by_region,
    emit_report,
    point_metrics,
)
from .graphbuild import GraphConfig, build_ap_adjacency, build_sample_graph
from .gtmodel import (
    ModelConfig,
    TrainConfig,
    load_model,
    model_for_inventory,
    predict_positions,
    save_model,
    train,
    write_loss_log,
)
# unused here; perfbench's tracer still patches this name
from .regions import assign_regions  # noqa: F401

log = logging.getLogger(__name__)

DEFAULT_ALPHAS = (0.01, 0.05, 0.10, 0.15, 0.20)

CHECKPOINT_NAME = "checkpoint.bin"
LOSS_LOG_NAME = "loss_log.txt"
CALIBRATION_NAME = "calibration.json"

# The dataclass each config section builds. Its fields are the section's
# keys (`seed` aside: the top-level seed fills it), its defaults the only
# defaults and its __post_init__ the only range checks.
SECTIONS = {"graph": GraphConfig, "model": ModelConfig, "train": TrainConfig,
            "conformal": ConformalConfig, "synth": SyntheticConfig}

# Every key a config file may set, by section; anything else is a typo.
CONFIG_KEYS: dict[str, frozenset[str]] = {
    "dataset": frozenset({"fingerprints", "inventory", "test"}),
    **{name: frozenset(f.name for f in fields(kind) if f.name != "seed")
       for name, kind in SECTIONS.items()},
}
# `workers` (ignored) names a removed option the benchmark's config still sets
CONFIG_KEYS["train"] |= {"workers"}
CONFIG_SCALARS = frozenset({"seed", "output_dir"})


@dataclass(frozen=True)
class RunConfig:
    """One experiment: dataset paths and one settings object per section."""

    fingerprints: Optional[Path]
    inventory: Optional[Path]
    test: Optional[Path]
    graph: GraphConfig
    model: ModelConfig
    train: TrainConfig
    conformal: ConformalConfig
    synth: Optional[SyntheticConfig]
    seed: int
    output_dir: Path


def load_config(path: str | Path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    _check_keys(path, raw)

    try:
        ds = raw.get("dataset", {})
        seed = _number("seed", raw.get("seed", 0), int)
        # only `synth` has keys without a default, so only it may be absent
        sections = {name: _section(raw.get(name, {}), name, kind, seed)
                    for name, kind in SECTIONS.items() if name in raw or name != "synth"}
        return RunConfig(
            fingerprints=Path(ds["fingerprints"]) if "fingerprints" in ds else None,
            inventory=Path(ds["inventory"]) if "inventory" in ds else None,
            test=Path(ds["test"]) if "test" in ds else None,
            synth=sections.pop("synth", None),
            **sections,
            seed=seed,
            output_dir=Path(raw.get("output_dir", "sacloc_out")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc


def _number(key: str, value, kind: type) -> int | float:
    """A numeric setting as `kind`: an int key takes only a JSON integer, and
    no key takes a boolean, a string or the `NaN` and `Infinity` that Python's
    JSON reader accepts. ValueError names the key."""
    accepted = int if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, accepted):
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} must be {what}, got {json.dumps(value)}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {json.dumps(value)}")
    return kind(value)


def _section(section: dict, name: str, kind: type, seed: int):
    """`kind` built from the config section `name`: each key the section
    sets, read as its field's type, and `seed` for a `seed` field. A key the
    section leaves out is not passed, so the dataclass default holds; one
    without a default is required. Errors name the config key."""
    types = get_type_hints(kind)
    values = {}
    for f in fields(kind):
        key = f"{name}.{f.name}"
        if f.name == "seed":
            values["seed"] = seed
        elif f.name not in section:
            if f.default is MISSING:
                raise ValueError(f"{key} is required")
        elif types[f.name] in (int, float):
            values[f.name] = _number(key, section[f.name], types[f.name])
        else:  # synth.area, the one list-valued key
            area = section[f.name]
            if not isinstance(area, list) or len(area) != 2:
                raise ValueError(f"{key} must be [width, height], got {json.dumps(area)}")
            values[f.name] = tuple(_number(key, a, float) for a in area)
    try:
        return kind(**values)
    except OutOfRange as exc:
        raise OutOfRange(f"{name}.{exc.field}", exc.what, exc.value) from exc


def _check_keys(path: str | Path, raw) -> None:
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path}: top level must be a JSON object")
    unknown = []
    for key, value in raw.items():
        if key in CONFIG_SCALARS:
            continue
        if key not in CONFIG_KEYS:
            unknown.append(key)
        elif not isinstance(value, dict):
            raise ConfigError(f"config file {path}: section `{key}` must be a JSON object")
        else:
            unknown += [f"{key}.{k}" for k in value if k not in CONFIG_KEYS[key]]
    if unknown:
        raise ConfigError(f"config file {path}: unknown keys {', '.join(sorted(unknown))}")


def _require_path(path: Optional[Path], what: str) -> Path:
    if path is None:
        raise ConfigError(f"config does not name a {what}")
    if not path.exists():
        raise MissingArtifact(f"{what} not found: {path}")
    return path


def _load_train_pool(cfg: RunConfig) -> tuple[ApInventory, ScanSet]:
    inventory = load_inventory(_require_path(cfg.inventory, "AP inventory file"))
    samples = load_fingerprints(
        _require_path(cfg.fingerprints, "fingerprint file"), inventory)
    return inventory, samples


def _split(cfg: RunConfig, samples):
    return split_train_calibration(samples, 1.0 - cfg.train.calibration_fraction, cfg.seed)


# -- commands -----------------------------------------------------------------


def cmd_synth(cfg: RunConfig, args: argparse.Namespace) -> int:
    if cfg.synth is None:
        raise ConfigError("config has no `synth` section")
    fingerprints = _cfg_or_default(cfg.fingerprints, cfg.output_dir / "fingerprints.csv")
    inventory_path = _cfg_or_default(cfg.inventory, cfg.output_dir / "inventory.csv")
    test_path = _cfg_or_default(cfg.test, cfg.output_dir / "test.csv")

    inventory, train_samples = generate_synthetic(cfg.synth)
    test_samples = synthesize_scans(inventory, cfg.synth, args.test_samples, "test")

    for path in (fingerprints, inventory_path, test_path):
        path.parent.mkdir(parents=True, exist_ok=True)
    save_inventory(inventory_path, inventory)
    save_fingerprints(fingerprints, train_samples, inventory)
    save_fingerprints(test_path, test_samples, inventory)
    print(f"wrote {fingerprints} ({len(train_samples)} scans), "
          f"{test_path} ({len(test_samples)} scans), {inventory_path}")
    return 0


def _cfg_or_default(path: Optional[Path], default: Path) -> Path:
    return path if path is not None else default


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> int:
    inventory, pool = _load_train_pool(cfg)
    train_samples, _ = _split(cfg, pool)
    model = model_for_inventory(inventory, cfg.model.hidden, cfg.model.heads, cfg.seed)
    log.info("training on %d samples (m=%d, h=%d, E=%d, %d epochs)",
             len(train_samples), inventory.count, cfg.model.hidden, cfg.model.heads,
             cfg.train.epochs)
    history = train(model, train_samples, cfg.train, cfg.graph, inventory)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    save_model(cfg.output_dir / CHECKPOINT_NAME, model, step=len(history))
    write_loss_log(cfg.output_dir / LOSS_LOG_NAME, history)
    print(f"trained {cfg.train.epochs} epochs, final train MAE "
          f"{history[-1]['train_mae']:.3f} m -> {cfg.output_dir / CHECKPOINT_NAME}")
    return 0


def cmd_calibrate(cfg: RunConfig, args: argparse.Namespace) -> int:
    model = load_model(_require_artifact(cfg, CHECKPOINT_NAME))
    inventory, pool = _load_train_pool(cfg)
    _, cal_samples = _split(cfg, pool)
    preds = predict_positions(model, cal_samples, inventory, cfg.graph)
    cal = calibrate(
        preds, cal_samples.truth, cfg.conformal.alpha, cfg.conformal.k, cfg.seed,
        assignment=args.assignment)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    save_calibration(cfg.output_dir / CALIBRATION_NAME, cal)
    radii = ", ".join("inf" if not np.isfinite(r) else f"{r:.2f}" for r in cal.radii)
    print(f"calibrated {cal.k} regions at alpha={cfg.conformal.alpha:g}: radii [{radii}] m, "
          f"global {cal.global_radius:.2f} m -> {cfg.output_dir / CALIBRATION_NAME}")
    return 0


def _require_artifact(cfg: RunConfig, name: str) -> Path:
    path = cfg.output_dir / name
    if not path.exists():
        raise MissingArtifact(f"missing {name}; run the producing command first ({path})")
    return path


def cmd_predict(cfg: RunConfig, args: argparse.Namespace) -> int:
    model = load_model(_require_artifact(cfg, CHECKPOINT_NAME))
    calibration = load_calibration(_require_artifact(cfg, CALIBRATION_NAME))
    inventory = load_inventory(_require_path(cfg.inventory, "AP inventory file"))

    sample = _scan_from_args(args, inventory.count)
    ap_adj = build_ap_adjacency(inventory, cfg.graph)
    graph = build_sample_graph(sample, inventory, ap_adj, cfg.graph)
    if not graph.user_adjacency.any():
        print("warning: no_connected_aps", file=sys.stderr)
    ps = predict_set(model, calibration, graph)
    radius = "inf" if not np.isfinite(ps.radius) else f"{ps.radius:.6f}"
    print(f"({ps.center[0]:.6f}, {ps.center[1]:.6f}, {ps.region}, {radius})")
    return 0


def _scan_from_args(args: argparse.Namespace, ap_count: int) -> FingerprintSample:
    """The scan `--rssi` or `--rssi-file` names; ConfigError names a bad entry."""
    if args.rssi is not None:
        source, entries = "--rssi", args.rssi.split(",")
    else:
        source = f"RSSI file {args.rssi_file}"
        try:
            text = Path(args.rssi_file).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {source}: {exc}") from exc
        entries = [v for v in text.replace("\n", ",").split(",") if v.strip()]
    values = []
    for i, entry in enumerate(entries, 1):
        try:
            values.append(float(entry))
        except ValueError:
            raise ConfigError(f"{source}: entry {i} ({entry.strip()!r}) is not a number") from None
    if len(values) != ap_count:
        raise ConfigError(f"RSSI vector has {len(values)} entries, inventory has {ap_count}")
    try:
        return FingerprintSample(rssi=np.array(values), truth=np.zeros(2))
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def cmd_evaluate(cfg: RunConfig, args: argparse.Namespace) -> int:
    model = load_model(_require_artifact(cfg, CHECKPOINT_NAME))
    calibration = load_calibration(_require_artifact(cfg, CALIBRATION_NAME))
    inventory = load_inventory(_require_path(cfg.inventory, "AP inventory file"))
    test_samples = load_fingerprints(_require_path(cfg.test, "test file"), inventory)

    preds = predict_positions(model, test_samples, inventory, cfg.graph)
    metrics, coverage, written = _write_report(
        cfg.output_dir, inventory, test_samples, preds, calibration, args.assignment)
    print(f"test MAE {metrics.mae:.3f} m, median {metrics.median:.3f} m, "
          f"global coverage {100 * coverage.global_row.coverage:.1f}% "
          f"(target {100 * (1 - calibration.alpha):.0f}%)")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> int:
    model = load_model(_require_artifact(cfg, CHECKPOINT_NAME))
    cal_path = _require_artifact(cfg, CALIBRATION_NAME)
    stored = load_calibration(cal_path)
    inventory, pool = _load_train_pool(cfg)
    _, cal_samples = _split(cfg, pool)
    test_samples = load_fingerprints(_require_path(cfg.test, "test file"), inventory)

    cal_preds = predict_positions(model, cal_samples, inventory, cfg.graph)
    test_preds = predict_positions(model, test_samples, inventory, cfg.graph)
    # recalibrating at the file's alpha and rule reproduces the file unless the
    # checkpoint, k or seed changed since `calibrate`; its one region fit then
    # serves the whole grid. The report carries the point metrics and the
    # file's coverage as well, so sweeping after evaluate discards no section.
    calibration = calibrate(cal_preds, cal_samples.truth, stored.alpha, cfg.conformal.k, cfg.seed,
                            assignment=stored.assignment)
    if calibration_document(calibration) != calibration_document(stored):
        raise BadCalibration(
            cal_path, "this checkpoint and config calibrate to other regions or radii "
                      "(another checkpoint, conformal.k or seed?); rerun `sacloc calibrate`")
    sweep = alpha_sweep(
        cal_preds, cal_samples.truth, test_preds, test_samples.truth,
        args.alphas or DEFAULT_ALPHAS, calibration.region_model, calibration.assignment)
    _, _, written = _write_report(
        cfg.output_dir, inventory, test_samples, test_preds, calibration, "predicted", sweep)
    lo, hi = sweep.global_radii[-1], sweep.global_radii[0]
    print(f"global radius {lo:.2f} m at alpha={sweep.alphas[-1]:g} to "
          f"{hi:.2f} m at alpha={sweep.alphas[0]:g}")
    for path in written:
        print(f"wrote {path}")
    return 0


def _write_report(
    out_dir: Path,
    inventory: ApInventory,
    test_samples: ScanSet,
    preds: np.ndarray,
    calibration: SacpCalibration,
    assignment: str,
    sweep: Optional[SweepResult] = None,
) -> tuple[PointMetrics, CoverageReport, list[Path]]:
    """Score test predictions, with the weighted-centroid baseline, and write
    the report files; returns the model's metrics, the coverage and the paths.

    Test scans are routed to regions once, by `assignment` ("predicted" or
    "truth"); the coverage table and the error map share that routing.
    """
    truths = test_samples.truth
    metrics = point_metrics(preds, truths)
    base = point_metrics(baseline_positions(test_samples, inventory), truths)
    coverage = coverage_by_region(preds, truths, calibration, assignment)
    error_map = ErrorMapData(
        x=truths[:, 0], y=truths[:, 1],
        error_m=np.linalg.norm(preds - truths, axis=1), region=coverage.regions)
    written = emit_report(
        out_dir, metrics=metrics, coverage=coverage, sweep=sweep,
        error_map=error_map, baseline_metrics=base)
    return metrics, coverage, written


# -- entry point ---------------------------------------------------------------


def _test_count(text: str) -> int:
    """`--test-samples`: a positive scan count."""
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise ConfigError(f"--test-samples must be a positive integer, got {text!r}")
    return count


def _alpha_grid(text: str) -> tuple[float, ...]:
    """`--alphas`: a strictly increasing comma-separated grid in (0, 1)."""
    alphas = []
    for entry in text.split(","):
        try:
            alphas.append(float(entry))
        except ValueError:
            raise ConfigError(f"--alphas: {entry.strip()!r} is not a number") from None
        if not 0.0 < alphas[-1] < 1.0:
            raise ConfigError(f"--alphas: {entry.strip()} is not in (0, 1)")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ConfigError(f"--alphas must be strictly increasing, got {text}")
    return tuple(alphas)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sacloc",
        description="Wi-Fi RSSI indoor localization with per-region conformal radii.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", help="output directory (overrides config)")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--test-samples", type=_test_count, default=750,
                   help="size of the held-out test file")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the graph-transformer regressor")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="compute per-region conformal radii")
    common(p)
    p.add_argument("--assignment", choices=("truth", "predicted"), default="truth",
                   help="how calibration scores are grouped into regions")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("predict", help="locate one RSSI scan")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--rssi",
        help="comma-separated RSSI vector, 100 = not detected "
             "(use --rssi=-60,... so leading minus signs parse)")
    group.add_argument("--rssi-file", help="file with the RSSI vector")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="metrics + coverage report on the test file")
    common(p)
    p.add_argument("--assignment", choices=("predicted", "truth"), default="predicted",
                   help="how test samples are grouped into regions")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="radii and coverage across an alpha grid")
    common(p)
    p.add_argument("--alphas", type=_alpha_grid,
                   help="comma-separated strictly increasing grid in (0, 1)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(
        level=os.environ.get("SACLOC_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    try:
        # a bad flag value raises ConfigError as it is parsed
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        if args.out is not None:
            cfg = replace(cfg, output_dir=Path(args.out))
        return args.func(cfg, args)
    except SaclocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
