#!/usr/bin/env python3
"""Desk-scale synthetic experiment, end to end.

Generates a 20-AP path-loss world over 100 x 40 m, trains the compact
model (h=64, E=4, 30 epochs), calibrates per-region radii at alpha=0.1,
and writes the full report set (metrics, coverage, alpha sweep, error map)
to the output directory. Runs in well under a minute on one core.
"""

import argparse
import time
from pathlib import Path

import numpy as np

from sacloc.conformal import calibrate, nonconformity_scores, save_calibration
from sacloc.dataset import (
    SyntheticConfig,
    generate_synthetic,
    split_train_calibration,
    synthesize_scans,
    truth_matrix,
)
from sacloc.evalreport import (
    ErrorMapData,
    alpha_sweep,
    baseline_positions,
    coverage_by_region,
    emit_report,
    point_metrics,
)
from sacloc.graphbuild import GraphConfig
from sacloc.gtmodel import (
    TrainConfig,
    model_for_inventory,
    predict_positions,
    save_model,
    train,
    write_loss_log,
)
from sacloc.regions import assign_regions


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/desk_scale", help="output directory")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--hidden", type=int, default=64)
    parser.add_argument("--alpha", type=float, default=0.1)
    parser.add_argument("--k", type=int, default=5)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    synth = SyntheticConfig(
        ap_count=20, area=(100.0, 40.0), path_loss_exponent=2.2,
        ref_power_dbm=-40.0, noise_sigma_db=4.0, detection_floor_dbm=-95.0,
        sample_count=3750, seed=args.seed,
    )
    graph_cfg = GraphConfig(d_p=20.0, tau=-75.0)

    inventory, pool = generate_synthetic(synth)
    test_samples = synthesize_scans(inventory, synth, 750, "test")
    train_samples, cal_samples = split_train_calibration(pool, 0.8, args.seed)
    print(f"world: {synth.ap_count} APs over {synth.area[0]:.0f} x {synth.area[1]:.0f} m, "
          f"{len(train_samples)} train / {len(cal_samples)} cal / {len(test_samples)} test")

    model = model_for_inventory(inventory, hidden=args.hidden, n_heads=4, seed=args.seed)
    tc = TrainConfig(epochs=args.epochs, batch_size=64, base_lr=3e-3,
                     weight_decay=1e-4, dropout=0.1, seed=args.seed)
    started = time.monotonic()
    history = train(model, train_samples, tc, graph_cfg, inventory)
    print(f"trained {args.epochs} epochs in {time.monotonic() - started:.1f}s, "
          f"train MAE {history[0]['train_mae']:.2f} -> {history[-1]['train_mae']:.2f} m")
    save_model(out / "checkpoint.json", model, step=len(history))
    write_loss_log(out / "loss_log.txt", history)

    cal_preds = predict_positions(model, cal_samples, inventory, graph_cfg)
    cal_truths = truth_matrix(cal_samples)
    cal = calibrate(cal_preds, cal_truths, args.alpha, args.k, args.seed)
    save_calibration(out / "calibration.json", cal)

    test_preds = predict_positions(model, test_samples, inventory, graph_cfg)
    test_truths = truth_matrix(test_samples)
    metrics = point_metrics(test_preds, test_truths)
    base = point_metrics(baseline_positions(test_samples, inventory), test_truths)
    coverage = coverage_by_region(test_preds, test_truths, cal)
    sweep = alpha_sweep(cal_preds, cal_truths, test_preds, test_truths,
                        (0.01, 0.05, 0.10, 0.15, 0.20), args.k, args.seed)
    error_map = ErrorMapData(
        x=test_truths[:, 0], y=test_truths[:, 1],
        error_m=nonconformity_scores(test_preds, test_truths),
        region=assign_regions(cal.region_model, test_preds))
    emit_report(out, metrics=metrics, coverage=coverage, sweep=sweep,
                error_map=error_map, baseline_metrics=base)

    print(f"test: MAE {metrics.mae:.2f} m, median {metrics.median:.2f} m "
          f"(baseline median {base.median:.2f} m), p95 {metrics.p95:.2f} m")
    radii = ", ".join("inf" if not np.isfinite(r) else f"{r:.2f}" for r in cal.radii)
    print(f"radii [{radii}] m, global {cal.global_radius:.2f} m, "
          f"coverage {100 * coverage.global_row.coverage:.1f}% "
          f"(target {100 * (1 - args.alpha):.0f}%)")
    print(f"report files in {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
