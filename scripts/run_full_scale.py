#!/usr/bin/env python3
"""Full-scale run on real fingerprint CSVs (SODIndoorLoc-style; schema in README).

Writes the reference config (h=500, E=4, 100 epochs, tau=-75 dBm, d_p=20 m, alpha=0.1,
k=5) to <out>/config.json and runs `sacloc train`, `calibrate` and `sweep` on it: hours on
CPU; --hidden 64 --epochs 20 is a reduced pass. Edit config.json to change anything else.
"""

import argparse
import json
import time
from pathlib import Path

from sacloc.cli import main as sacloc

CONFIG = {
    "graph": {"d_p": 20.0, "tau": -75.0},
    "model": {"hidden": 500, "heads": 4},
    "train": {"epochs": 100, "batch_size": 64, "lr": 1e-3, "weight_decay": 1e-4,
              "dropout": 0.4, "calibration_fraction": 0.2},
    "conformal": {"alpha": 0.1, "k": 5},
}
STAGES = (["train"], ["calibrate"], ["sweep"])


def run(config: dict, out: Path, *stages: list[str]) -> int:
    """Write <out>/config.json, run each stage (command, flags) on it; first nonzero exit wins."""
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    for command, *flags in stages:
        started = time.monotonic()
        if code := sacloc([command, "--config", str(config_path), *flags]):
            return code
        print(f"{command}: {time.monotonic() - started:.1f} s")
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    m, cov = report["point_metrics"], report["coverage"]
    radii = ", ".join(f"{float(row['radius']):.2f}" for row in cov["regions"])  # "inf" parses
    print(f"test: MAE {m['mae_l1']:.2f} m, median {m['median']:.2f} m (baseline median "
          f"{report['baseline_metrics']['median']:.2f} m), p95 {m['p95']:.2f} m")
    print(f"radii [{radii}] m, global {float(cov['global']['radius']):.2f} m, coverage "
          f"{100 * cov['global']['coverage']:.1f}% (target {100 * (1 - cov['alpha']):.0f}%)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fingerprints", help="training fingerprint CSV")
    parser.add_argument("inventory", help="AP inventory CSV (ap_id,x,y)")
    parser.add_argument("test", help="held-out test CSV")
    parser.add_argument("--out", default="runs/full_scale", help="output directory")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--hidden", type=int, default=CONFIG["model"]["hidden"])
    parser.add_argument("--epochs", type=int, default=CONFIG["train"]["epochs"])
    args = parser.parse_args(argv)
    config = dict(CONFIG, seed=args.seed, output_dir=args.out,
                  dataset={k: getattr(args, k) for k in ("fingerprints", "inventory", "test")},
                  model=dict(CONFIG["model"], hidden=args.hidden),
                  train=dict(CONFIG["train"], epochs=args.epochs))
    return run(config, Path(args.out), *STAGES)


if __name__ == "__main__":
    raise SystemExit(main())
