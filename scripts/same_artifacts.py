#!/usr/bin/env python3
"""Byte comparison of what two checkouts of sacloc write, stage by stage.

For each seed, runs `sacloc synth`, `train`, `calibrate`, `evaluate`,
`sweep` and five `predict --rssi-file` calls (the first five scans of the
test file) in each checkout, as `quality_panel.run_stages` runs them. After
each stage it records every file the stage wrote, the dataset CSVs and
those in `out/`, so the report files are compared both as `evaluate` and
as `sweep` leave them; a predict is recorded by its stdout. It prints one
line per output: `same`, `differs`, or `only in parent` / `only in change`.

    python3 scripts/same_artifacts.py --parent ../parent --change . --config desk \\
        --seed 11 2718

Exit 0 when every output both checkouts write is identical. An output only
one side writes is listed but passes: a change may add an artifact. Exit 1
when an output differs or a stage fails.
"""

import argparse
import csv
import hashlib
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # quality_panel imports sacloc from PYTHONPATH
import quality_panel  # noqa: E402

PREDICTS = 5
STAGES = ("synth", "train", "calibrate", "evaluate", "sweep", "predict")
DEFAULT_SEEDS = (11, 2718)


def outputs(checkout: Path, config: dict, seed: int, work: Path) -> dict[str, str]:
    """"<stage> <file>" -> sha256 of each file a stage wrote, in the order the
    stages ran, and "predict <n>" -> the n-th predict's stdout."""
    scans = [work / f"scan{n}.txt" for n in range(1, PREDICTS + 1)]
    stages = (("synth", "--test-samples", str(quality_panel.TEST_SAMPLES)), ("train",),
              ("calibrate",), ("evaluate",), ("sweep",),
              *(("predict", "--rssi-file", str(scan)) for scan in scans))
    stamps: dict[Path, tuple[int, int]] = {}
    found: dict[str, str] = {}
    predicts = 0
    for stage, stdout in quality_panel.run_stages(checkout, config, seed, work, stages):
        if stage == "predict":
            predicts += 1
            found[f"predict {predicts}"] = stdout.strip()
            continue
        for path in sorted(work.glob("*.csv")) + sorted((work / "out").glob("*")):
            stat = path.stat()
            stamp = (stat.st_mtime_ns, stat.st_size)
            if stamps.get(path) != stamp:  # written by this stage
                stamps[path] = stamp
                key = f"{stage} {path.relative_to(work).as_posix()}"
                found[key] = hashlib.sha256(path.read_bytes()).hexdigest()
        if stage == "synth":
            with open(work / "test.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:PREDICTS + 1]
            for scan, row in zip(scans, rows, strict=True):
                scan.write_text(",".join(row[:-2]), encoding="utf-8")  # AP columns, then x, y
    return found


def compare(parent: dict[str, str], change: dict[str, str]) -> list[tuple[str, str]]:
    """(output, verdict) for every output either side wrote, in stage order."""
    rows = []
    for key in sorted({**parent, **change}, key=lambda key: STAGES.index(key.split()[0])):
        if key not in change:
            rows.append((key, "only in parent"))
        elif key not in parent:
            rows.append((key, "only in change"))
        else:
            rows.append((key, "same" if parent[key] == change[key] else "differs"))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--config", choices=sorted(quality_panel.CONFIGS), default="desk")
    parser.add_argument("--seed", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "sacloc" / "__init__.py").is_file():
            parser.error(f"{checkout} is not a sacloc checkout (no src/sacloc)")
    print(f"# same artifacts: config {args.config}, seeds {' '.join(map(str, args.seed))}")
    config = quality_panel.CONFIGS[args.config]
    differ = 0
    with tempfile.TemporaryDirectory() as work:
        for seed in args.seed:
            try:
                parent = outputs(args.parent.resolve(), config, seed,
                                 Path(work) / "parent" / f"seed{seed}")
                change = outputs(args.change.resolve(), config, seed,
                                 Path(work) / "change" / f"seed{seed}")
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            rows = compare(parent, change)
            print(f"seed {seed}")
            for key, verdict in rows:
                print(f"  {verdict:<16}{key}")
            differ += sum(verdict == "differs" for _, verdict in rows)
    print("every output both checkouts write is identical" if not differ
          else f"{differ} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
