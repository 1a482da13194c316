#!/usr/bin/env python3
"""Paired benchmark runs: two checkouts of sacloc, alternating, on one workload.

Each pair runs `DIR/perfbench/run.py --workload NAME --seed N --trace 0`
once in each checkout, the parent first in odd pairs (1, 3, ...) and the
change first in even ones, so a drift of the machine's speed falls on both
sides alike. Prints, per end-to-end metric of the parent's BENCHMARK.json,
both sides' medians, the parent's quartiles and the number of pairs in
which the change reads better (a tie counts for neither side). Then:

- with `--claim METRIC`, the verdict of the gain rule: the change is better
  in at least 9 of every 10 pairs, and its median beats the parent's by
  more than the parent's interquartile range;
- every other metric whose median is worse than the parent's by more than
  its BENCHMARK.json bound (a fraction of the parent's median) is flagged,
  and so is a larger share of failed operations.

    python3 scripts/bench_pairs.py --parent ../parent --change ../change \\
        --workload ref-m20-h500 --seed 11 --seed 2718 --claim predict_p50_ms \\
        --json BENCH_n.json

`--seed` may be given more than once: the seeds run one after another,
each with its own pairs and its own verdict, and `--json` writes one
document holding every seed's runs and summary under `seeds`.

Both checkouts must be fresh: a checkout whose `src/` holds a
`__pycache__` is refused (exit 1). The benchmark's processes write no
bytecode, but they read what they find, and cached bytecode makes the read
stages of that checkout faster than a fresh one's. `--smoke` runs run.py's
seconds-long smoke profile for its fewest cycles: it checks the plumbing,
not a time. Exit 0 when every run produced a result, 1 otherwise.
"""

import argparse
import json
import math
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

# The gain rule: the change is better in at least 9 of every 10 pairs.
CLAIM_WINS, CLAIM_PAIRS = 9, 10
MACHINE_RE = re.compile(r"^# machine: .*code (\w+)")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Q1, median and Q3, interpolated linearly between order statistics
    (numpy's default percentile)."""
    xs = sorted(values)

    def at(q: float) -> float:
        pos = (len(xs) - 1) * q
        lo = math.floor(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric's paired summary. `parent[i]` and `change[i]` are pair i;
    `better` is "lower" or "higher"; `bound` is the fraction of the
    parent's median by which the change's median may be worse."""
    sign = 1.0 if better == "lower" else -1.0
    q1, parent_median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change, strict=True))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change, strict=True))
    gain = sign * (parent_median - change_median)
    return {
        "parent_median": parent_median, "change_median": change_median,
        "parent_q1": q1, "parent_q3": q3,
        "change_better_pairs": wins, "change_worse_pairs": losses,
        "claim_met": CLAIM_PAIRS * wins >= CLAIM_WINS * len(parent) and gain > q3 - q1,
        "worse_beyond_bound": -gain > bound * abs(parent_median),
    }


def fresh(checkout: Path) -> str | None:
    """Why `checkout` cannot be benchmarked, or None."""
    if not (checkout / "perfbench" / "run.py").is_file():
        return f"{checkout} has no perfbench/run.py"
    cached = sorted((checkout / "src").rglob("__pycache__"))
    if cached:
        return (f"{cached[0]} exists: the runs would read its bytecode; "
                "benchmark a fresh checkout")
    return None


def run_once(checkout: Path, workload: str, seed: int, smoke: bool) -> dict:
    """One untraced run.py run: its result line, wall time and code digest."""
    argv = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", "0"]
    if smoke:
        argv += ["--smoke", "--seconds", "0"]
    # run.py's own imports write no bytecode into the checkout either
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode} without a result: "
                           f"{proc.stderr.strip()[-1500:]}") from None
    code = next((m.group(1) for m in map(MACHINE_RE.match, lines) if m), None)
    return {"exit": proc.returncode, "wall_s": wall, "code": code, "result": result,
            "notes": [line for line in lines if line.startswith("# ")]}


def machine() -> dict:
    return {"platform": platform.platform(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg()}


def pairs(parent: Path, change: Path, workload: str, seed: int, n_pairs: int,
          smoke: bool, end_to_end: list[dict], claim: str | None) -> dict:
    """Runs the pairs and summarises them; the document `--json` writes."""
    runs = []
    for i in range(1, n_pairs + 1):
        order = (("parent", parent), ("change", change))
        for side, checkout in order if i % 2 else order[::-1]:
            run = run_once(checkout, workload, seed, smoke)
            runs.append({"pair": i, "side": side, **run})
            m = run["result"]["metrics"]
            print(f"pair {i} {side:<6} exit {run['exit']} {run['wall_s']:6.1f} s  "
                  + "  ".join(f"{k} {v['value']:.4g}" for k, v in m.items()), flush=True)
    by_side = {side: [r for r in runs if r["side"] == side] for side in ("parent", "change")}
    summary = {}
    for spec in end_to_end:
        name = spec["name"]
        values = {side: [r["result"]["metrics"].get(name, {}).get("value", math.nan)
                         for r in rs] for side, rs in by_side.items()}
        summary[name] = {"unit": spec["unit"], "better": spec["better"],
                         "bound": spec["bound"], **values,
                         **compare(values["parent"], values["change"], spec["better"],
                                   spec["bound"])}
    failed = {side: {"failed": sum(r["result"]["failed"] for r in rs),
                     "attempted": sum(r["result"]["attempted"] for r in rs)}
              for side, rs in by_side.items()}
    share = {side: f["failed"] / max(f["attempted"], 1) for side, f in failed.items()}
    flagged = [n for n, s in summary.items() if n != claim and s["worse_beyond_bound"]]
    if share["change"] > share["parent"]:
        flagged.append("failed operations")
    return {
        "workload": workload, "seed": seed, "pairs": n_pairs, "smoke": smoke,
        "claim": claim, "claim_met": summary[claim]["claim_met"] if claim else None,
        "flagged": flagged, "failed": failed, "summary": summary,
        "code": {side: sorted({r["code"] for r in rs if r["code"]})
                 for side, rs in by_side.items()},
        "machine": machine(), "runs": runs,
    }


def print_summary(doc: dict) -> None:
    n = doc["pairs"]
    print(f"\n# {doc['workload']} seed {doc['seed']}, {n} pairs "
          f"(parent first in odd pairs){' [smoke]' if doc['smoke'] else ''}")
    print(f"{'metric':<16}{'parent':>11}{'change':>11}{'parent Q1':>11}{'parent Q3':>11}"
          f"{'better':>8}{'worse':>7}")
    for name, s in doc["summary"].items():
        print(f"{name:<16}{s['parent_median']:>11.4g}{s['change_median']:>11.4g}"
              f"{s['parent_q1']:>11.4g}{s['parent_q3']:>11.4g}"
              f"{s['change_better_pairs']:>6}/{n}{s['change_worse_pairs']:>5}/{n}")
    f = doc["failed"]
    print(f"failed operations: parent {f['parent']['failed']}/{f['parent']['attempted']}, "
          f"change {f['change']['failed']}/{f['change']['attempted']}")
    if doc["claim"]:
        s = doc["summary"][doc["claim"]]
        print(f"claim {doc['claim']}: {'MET' if doc['claim_met'] else 'NOT MET'} "
              f"(better in {s['change_better_pairs']}/{n} pairs, need "
              f"{math.ceil(CLAIM_WINS * n / CLAIM_PAIRS)}; median gap "
              f"{abs(s['parent_median'] - s['change_median']):.4g} vs parent IQR "
              f"{s['parent_q3'] - s['parent_q1']:.4g})")
    print("worse beyond the bound: " + (", ".join(doc["flagged"]) or "none"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", required=True, help="a workload run.py knows")
    parser.add_argument("--seed", type=int, action="append",
                        help="workload seed, repeatable (default 11)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--smoke", action="store_true",
                        help="run.py's smoke profile, fewest cycles (plumbing only)")
    parser.add_argument("--claim", help="the end-to-end metric the change claims to improve")
    parser.add_argument("--json", type=Path, help="write the runs and summary here")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    for checkout in (parent, change):
        reason = fresh(checkout)
        if reason:
            print(f"error: {reason}", file=sys.stderr)
            return 1
    end_to_end = json.loads((parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = end_to_end["end_to_end"]
    if args.claim and args.claim not in {m["name"] for m in end_to_end}:
        parser.error(f"--claim {args.claim} is not an end-to-end metric of BENCHMARK.json")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    by_seed = {}
    for seed in args.seed or [11]:
        try:
            by_seed[str(seed)] = pairs(parent, change, args.workload, seed, args.pairs,
                                       args.smoke, end_to_end, args.claim)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_summary(by_seed[str(seed)])
    if args.json:
        doc = {"workload": args.workload, "claim": args.claim,
               "claim_met": (all(d["claim_met"] for d in by_seed.values())
                             if args.claim else None),
               "seeds": by_seed}
        args.json.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
