#!/usr/bin/env python3
"""Paired quality panel: two checkouts of sacloc on the same seeds.

For each seed, runs `sacloc synth`, `train`, `calibrate` and `evaluate` in
each checkout (its own `src/` on PYTHONPATH, BLAS pinned to one thread) and
reads the test MAE(L1), median and p95 error (m), the k=1 (global)
coverage and the pooled per-region coverage from its report.json. Prints them per seed, then each metric's
paired difference (change - parent): the mean, a paired-bootstrap 95%
interval over the seeds and the sign counts. A metric whose interval
excludes 0 is marked `*`.

    python scripts/quality_panel.py --parent ../parent --change . --config desk \\
        --json panel.json

`--json PATH` writes the config name, the seeds, both checkouts' per-seed
rows and each metric's paired summary (mean, interval, sign counts), the
panel a claim's BENCH_<n>.json carries.

The desk config is scripts/run_desk_scale.py's world (h=64, 30 epochs); the
ref-m20 config is the same world at the reference width (h=500, 2 epochs).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True  # importing the desk config imports sacloc from PYTHONPATH
from run_desk_scale import CONFIG as DESK  # noqa: E402

CONFIGS = {
    "desk": DESK,
    "ref-m20": dict(DESK, model={"hidden": 500, "heads": 4},
                    train=dict(DESK["train"], epochs=2, lr=1e-3, dropout=0.4)),
}
TEST_SAMPLES = 750
DEFAULT_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8, 11, 2718)


def pooled_coverage(report: dict) -> float:
    """The share of test scans inside their own region's radius: each
    region's coverage weighted by its test count (empty regions skipped)."""
    rows = [r for r in report["coverage"]["regions"] if r["coverage"] is not None]
    return sum(r["count"] * r["coverage"] for r in rows) / sum(r["count"] for r in rows)


# name -> reader of report.json
METRICS = {
    "mae_l1": lambda r: r["point_metrics"]["mae_l1"],
    "median": lambda r: r["point_metrics"]["median"],
    "p95": lambda r: r["point_metrics"]["p95"],
    "coverage_k1": lambda r: r["coverage"]["global"]["coverage"],
    "coverage_pooled": pooled_coverage,
}
BOOTSTRAP_DRAWS = 10000
BOOTSTRAP_SEED = 0


def run_stages(checkout: Path, config: dict, seed: int, work: Path, stages):
    """Run `sacloc` commands of one seed in `checkout`, yielding each one's
    (stage, stdout) as it exits 0; RuntimeError names one that does not.

    `stages` holds (command, *flags) tuples. The run's config is `config`
    at `seed`, with the dataset CSVs and `out/` under `work`. Each command
    runs with the checkout's own `src/` on PYTHONPATH and BLAS pinned to one
    thread; bytecode goes to `work`, so the checkout is left as it was found.
    """
    work.mkdir(parents=True, exist_ok=True)
    cfg = dict(config, seed=seed, output_dir=str(work / "out"),
               dataset={n: str(work / f"{n}.csv") for n in ("fingerprints", "inventory", "test")})
    (work / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               PYTHONPYCACHEPREFIX=str(work / "pycache"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for stage, *flags in stages:
        proc = subprocess.run(
            [sys.executable, "-m", "sacloc.cli", stage, "--config", str(work / "config.json"),
             *flags], env=env, capture_output=True, text=True)
        if proc.returncode:
            raise RuntimeError(f"{checkout}: sacloc {stage} (seed {seed}) exited "
                               f"{proc.returncode}: {proc.stderr.strip()}")
        yield stage, proc.stdout


def run_seed(checkout: Path, config: dict, seed: int, work: Path,
             test_samples: int = TEST_SAMPLES) -> dict[str, float]:
    """The panel metrics of one seed's synth/train/calibrate/evaluate in `checkout`."""
    stages = (("synth", "--test-samples", str(test_samples)), ("train",), ("calibrate",),
              ("evaluate",))
    for _ in run_stages(checkout, config, seed, work, stages):
        pass  # the report the last stage writes holds the metrics
    report = json.loads((work / "out" / "report.json").read_text(encoding="utf-8"))
    return {name: float(read(report)) for name, read in METRICS.items()}


def paired_bootstrap(diffs: np.ndarray, draws: int = BOOTSTRAP_DRAWS,
                     seed: int = BOOTSTRAP_SEED) -> tuple[float, float]:
    """95% interval of the mean paired difference, resampling the seeds."""
    rng = np.random.default_rng(seed)
    means = diffs[rng.integers(0, len(diffs), (draws, len(diffs)))].mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    return float(lo), float(hi)


def panel(parent: Path, change: Path, config: dict, seeds, work: Path,
          test_samples: int = TEST_SAMPLES) -> dict:
    """Per-seed metrics of both checkouts and, per metric, the paired summary:
    {"seeds", "parent", "change", "summary": {metric: {mean, lo, hi, lower,
    higher}}}, the lists in seed order."""
    rows = {"parent": [], "change": []}
    for seed in seeds:
        for side, checkout in (("parent", parent), ("change", change)):
            rows[side].append(run_seed(checkout, config, seed, work / side / f"seed{seed}",
                                       test_samples))
    summary = {}
    for name in METRICS:
        diffs = np.array([c[name] - p[name] for p, c in zip(rows["parent"], rows["change"])])
        lo, hi = paired_bootstrap(diffs)
        summary[name] = {"mean": float(diffs.mean()), "lo": lo, "hi": hi,
                         "lower": int((diffs < 0).sum()), "higher": int((diffs > 0).sum())}
    return {"seeds": list(seeds), **rows, "summary": summary}


def print_panel(result: dict) -> None:
    names = list(METRICS)
    print("seed  " + "".join(f"{n + ' parent':>24}{n + ' change':>24}" for n in names))
    for seed, p, c in zip(result["seeds"], result["parent"], result["change"]):
        print(f"{seed:<6}" + "".join(f"{p[n]:>24.4f}{c[n]:>24.4f}" for n in names))
    print(f"\nchange - parent over {len(result['seeds'])} seeds "
          "(paired bootstrap 95% interval; * excludes 0):")
    for name, s in result["summary"].items():
        mark = "*" if s["lo"] > 0 or s["hi"] < 0 else " "
        print(f"  {name:<16} {s['mean']:+.4f} [{s['lo']:+.4f}, {s['hi']:+.4f}]{mark} "
              f"lower {s['lower']}, higher {s['higher']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--config", choices=sorted(CONFIGS), default="desk")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    parser.add_argument("--json", type=Path, help="write the rows and the summary here")
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "sacloc" / "__init__.py").is_file():
            parser.error(f"{checkout} is not a sacloc checkout (no src/sacloc)")
    print(f"# quality panel: config {args.config}, seeds {' '.join(map(str, args.seeds))}")
    with tempfile.TemporaryDirectory() as work:
        try:
            result = panel(args.parent.resolve(), args.change.resolve(), CONFIGS[args.config],
                           args.seeds, Path(work), TEST_SAMPLES)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print_panel(result)
    if args.json:
        args.json.write_text(json.dumps({"config": args.config, **result}, indent=1) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
