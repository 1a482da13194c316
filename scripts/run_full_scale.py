#!/usr/bin/env python3
"""Full-scale run on a real fingerprint dataset (SODIndoorLoc-style CSVs).

Expects three files in this package's CSV schema (see README): the training
fingerprint map, the AP inventory, and the held-out test scans. Defaults
follow the reference configuration (h=500, E=4, 100 epochs, tau=-75 dBm,
d_p=20 m, alpha=0.1, k=5); expect hours of CPU time at full size. Use
--hidden 64 --epochs 20 for a quick reduced-profile pass.
"""

import argparse
import time
from pathlib import Path

import numpy as np

from sacloc.conformal import calibrate, nonconformity_scores, save_calibration
from sacloc.dataset import (
    load_fingerprints,
    load_inventory,
    split_train_calibration,
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
    parser.add_argument("fingerprints", help="training fingerprint CSV")
    parser.add_argument("inventory", help="AP inventory CSV (ap_id,x,y)")
    parser.add_argument("test", help="held-out test CSV")
    parser.add_argument("--out", default="runs/full_scale")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--hidden", type=int, default=500)
    parser.add_argument("--heads", type=int, default=4)
    parser.add_argument("--epochs", type=int, default=100)
    parser.add_argument("--lr", type=float, default=1e-3)
    parser.add_argument("--dropout", type=float, default=0.4)
    parser.add_argument("--tau", type=float, default=-75.0)
    parser.add_argument("--d-p", dest="d_p", type=float, default=20.0)
    parser.add_argument("--alpha", type=float, default=0.1)
    parser.add_argument("--k", type=int, default=5)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    inventory = load_inventory(args.inventory)
    pool = load_fingerprints(args.fingerprints, inventory)
    test_samples = load_fingerprints(args.test, inventory)
    train_samples, cal_samples = split_train_calibration(pool, 0.8, args.seed)
    print(f"{inventory.count} APs, {len(train_samples)} train / "
          f"{len(cal_samples)} cal / {len(test_samples)} test")

    graph_cfg = GraphConfig(d_p=args.d_p, tau=args.tau)
    model = model_for_inventory(inventory, hidden=args.hidden, n_heads=args.heads,
                                seed=args.seed)
    tc = TrainConfig(epochs=args.epochs, batch_size=64, base_lr=args.lr,
                     weight_decay=1e-4, dropout=args.dropout, seed=args.seed)
    started = time.monotonic()
    history = train(model, train_samples, tc, graph_cfg, inventory)
    print(f"trained in {(time.monotonic() - started) / 60:.1f} min, "
          f"final train MAE {history[-1]['train_mae']:.2f} m")
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

    print(f"test: MAE {metrics.mae:.2f} m, RMSE {metrics.rmse:.2f} m, "
          f"median {metrics.median:.2f} m, p75 {metrics.p75:.2f} m, "
          f"p95 {metrics.p95:.2f} m")
    radii = ", ".join("inf" if not np.isfinite(r) else f"{r:.2f}" for r in cal.radii)
    print(f"radii [{radii}] m, global {cal.global_radius:.2f} m, "
          f"coverage {100 * coverage.global_row.coverage:.1f}%")
    print(f"report files in {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
