#!/usr/bin/env python3
"""Desk-scale synthetic experiment, end to end, through the `sacloc` CLI.

`sacloc synth` (20 APs, 100 x 40 m), then run_full_scale.py's stages at h=64: under a minute.
"""

import argparse
from pathlib import Path

from run_full_scale import STAGES, run

CONFIG = {
    "graph": {"d_p": 20.0, "tau": -75.0},
    "model": {"hidden": 64, "heads": 4},
    "train": {"epochs": 30, "batch_size": 64, "lr": 3e-3, "weight_decay": 1e-4,
              "dropout": 0.1, "calibration_fraction": 0.2},
    "conformal": {"alpha": 0.1, "k": 5},
    "synth": {"ap_count": 20, "area": [100.0, 40.0], "path_loss_exponent": 2.2,
              "ref_power_dbm": -40.0, "noise_sigma_db": 4.0,
              "detection_floor_dbm": -95.0, "train_samples": 3750},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/desk_scale", help="output directory")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    dataset = {name: f"{args.out}/{name}.csv" for name in ("fingerprints", "inventory", "test")}
    config = dict(CONFIG, dataset=dataset, seed=args.seed, output_dir=args.out)
    return run(config, Path(args.out), ["synth", "--test-samples", "750"], *STAGES)


if __name__ == "__main__":
    raise SystemExit(main())
