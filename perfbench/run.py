#!/usr/bin/env python3
"""The sacloc benchmark: CLI stages and single-scan predict, end to end.

    python3 perfbench/run.py --workload desk-m20-h64 --seed 11 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

Run from anywhere inside a checkout; the checkout root is the parent of
this directory and its `src/` is what gets measured. The benchmark makes
the workload's inputs from the seed (`sacloc synth` plus one JSON config),
then drives the real CLI in a closed loop, one process and one client at a
time, for `--seconds`: cycles of train, rounds of calibrate, evaluate,
sweep and one cold `predict`, each stage followed by a block of the warm
single-scan loop (one long-lived process that loads the model once,
`worker.py warm`), and one more setup to time.

--trace 0 prints the end-to-end metrics; --trace 1 runs every stage once
untraced and once under the span tracer (`tracer.py`) and prints the
per-module metrics. The last stdout line is one JSON object with keys
`correct`, `attempted`, `failed` and `metrics`. Scratch files go to
`.perfbench_work/` and results, span files and the determinism record to
`.perfbench_out/`, both under the checkout root.

Other modes: --smoke runs the seconds-long profile that selftest.py uses;
--write-benchmark-json regenerates BENCHMARK.json from spec.py.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
from spec import BLAS_THREADS, COVERAGE_TAIL, SMOKE, TRACE_WARM_SCANS, WARM_MIN_SCANS

READ_STAGES = ("calibrate", "evaluate", "sweep", "predict")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
# Everything the run starts must end within the contract's 180 s.
DEADLINE_S = 170.0
PREDICT_RE = re.compile(r"^\((\S+), (\S+), (\d+), (\S+)\)$")
# Warm single-scan errors vs the batched error map (printed to 6 decimals).
ERROR_MAP_TOL_M = 2e-6


class StageFailed(Exception):
    """A stage the rest of the pipeline needs did not succeed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SACLOC_LOG", None)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
        "OMP_NUM_THREADS": str(BLAS_THREADS),
        "MKL_NUM_THREADS": str(BLAS_THREADS),
    })
    return env


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


_HASHES: dict[tuple[str, int, int], str] = {}


def snapshot(directory: Path) -> dict[str, str]:
    """sha256 of every file in `directory`; unchanged files are not re-read."""
    out = {}
    for p in sorted(directory.iterdir()):
        if p.is_file():
            st = p.stat()
            key = (str(p), st.st_size, st.st_mtime_ns)
            if key not in _HASHES:
                _HASHES[key] = sha256_file(p)
            out[p.name] = _HASHES[key]
    return out


def source_digest() -> str:
    """Identifies the code under test (the checkout is not a git repository)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH):
        for path in sorted(base.rglob("*.py")):
            if "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return r.stdout.strip() if r.returncode == 0 else "unavailable (not a git checkout)"


def beta_binomial_band(n_cal: int, n_test: int, alpha: float, tail: float) -> tuple[float, float]:
    """Central band for the test coverage of a split-conformal radius.

    Given the calibration set, coverage C is Beta(p, n_cal + 1 - p) with
    p = ceil((1 - alpha)(n_cal + 1)) (Angelopoulos & Bates, arXiv 2107.07511,
    sec. 3); the covered test count is then beta-binomial(n_test, p, n+1-p).
    Returns the coverage fractions cutting `tail` off each side.
    """
    p = math.ceil((1.0 - alpha) * (n_cal + 1))
    if p > n_cal:
        return 1.0, 1.0
    a, b = p, n_cal + 1 - p
    lbeta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    pmf = [math.exp(math.lgamma(n_test + 1) - math.lgamma(k + 1) - math.lgamma(n_test - k + 1)
                    + math.lgamma(k + a) + math.lgamma(n_test - k + b)
                    - math.lgamma(n_test + a + b) - lbeta) for k in range(n_test + 1)]
    cdf, lo = 0.0, 0
    for k, q in enumerate(pmf):
        cdf += q
        if cdf >= tail:
            lo = k
            break
    sf, hi = 0.0, n_test
    for k in range(n_test, -1, -1):
        sf += pmf[k]
        if sf >= tail:
            hi = k
            break
    return lo / n_test, hi / n_test


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def centre(values: list[float]) -> float:
    """Mean, without the lowest and the highest value when there are five or more."""
    xs = sorted(values)
    return statistics.mean(xs[1:-1] if len(xs) >= 5 else xs)


class Run:
    """One benchmark run of one workload: its processes, checks and tallies."""

    def __init__(self, workload: str, seed: int, seconds: float, smoke: bool):
        self.workload, self.seed, self.seconds, self.smoke = workload, seed, seconds, smoke
        self.t_start = time.monotonic()
        self.env = child_env()
        self.dir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: list[str] = []
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.artifacts: dict[str, str] = {}

    # -- processes -------------------------------------------------------------

    def remaining(self) -> float:
        return max(1.0, DEADLINE_S - (time.monotonic() - self.t_start))

    def spawn(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        t0 = time.perf_counter()
        try:
            r = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True,
                               text=True, timeout=self.remaining())
        except subprocess.TimeoutExpired as exc:
            raise StageFailed(f"{argv[2:4]} timed out after {exc.timeout:.0f} s") from None
        return time.perf_counter() - t0, r

    def op(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}"[:2000])
        return ok

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """An output check; a failure counts the operation that produced it as failed."""
        if not ok:
            self.failed += 1
            self.failures.append(f"check {name}: {detail}"[:2000])
        return ok

    def warm_scans(self, results: list[dict], bad: set[int]) -> None:
        for r in results:
            self.attempted += len(r["latencies_ms"])
            self.failures += r["failures"][:20]
            bad |= {int(f.split(":")[0].split()[1]) for f in r["failures"]}
        self.failed += len(bad)

    def cli(self, config: Path, stage: str, *extra: str, traced_spans: Path | None = None,
            required: bool = True) -> tuple[float, str]:
        args = [stage, "--config", str(config), *extra]
        if traced_spans is None:
            argv = [sys.executable, "-m", "sacloc.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "worker.py"), "stage",
                    "--spans", str(traced_spans), "--", *args]
        wall, r = self.spawn(argv)
        name = stage + (" (traced)" if traced_spans else "")
        ok = self.op(name, r.returncode == 0, f"exit {r.returncode}: {r.stderr.strip()[-1500:]}")
        if not ok and required:
            raise StageFailed(f"{name} failed")
        return wall, r.stdout

    def worker(self, *args: str) -> dict:
        _, r = self.spawn([sys.executable, str(BENCH / "worker.py"), *args])
        if r.returncode != 0:
            raise StageFailed(f"worker {args[0]} exit {r.returncode}: {r.stderr.strip()[-1500:]}")
        return json.loads(r.stdout.strip().splitlines()[-1])

    # -- inputs ----------------------------------------------------------------

    def write_config(self, tag: str) -> tuple[Path, Path, Path]:
        data, out = self.dir / f"data-{tag}", self.dir / f"out-{tag}"
        data.mkdir(parents=True)
        doc = spec.run_config(self.workload, self.seed, str(data), str(out), self.smoke)
        path = self.dir / f"config-{tag}.json"
        path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        return path, data, out

    def setup(self, tag: str, traced_spans: Path | None = None) -> tuple[float, Path, Path, Path]:
        t0 = time.perf_counter()
        config, data, out = self.write_config(tag)
        self.cli(config, "synth", "--test-samples",
                 str(spec.test_count(self.workload, self.smoke)), traced_spans=traced_spans)
        return time.perf_counter() - t0, config, data, out

    def test_scans(self, data: Path) -> list[list[str]]:
        with open(data / "test.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        n_ap = header.index("x")
        return [row[:n_ap] for row in rows[1:]]

    # -- checks ------------------------------------------------------------------

    def check_report_coverage(self, report: dict, n_cal: int, what: str) -> None:
        rows = []
        if "coverage" in report:
            cov = report["coverage"]
            rows.append((cov["alpha"], cov["global"]["coverage"], cov["global"]["count"]))
        if "sweep" in report:
            n_test = report["coverage"]["global"]["count"]
            sw = report["sweep"]
            rows += [(a, c, n_test) for a, c in zip(sw["alphas"], sw["global_coverages"])]
        for alpha, coverage, n_test in rows:
            lo, hi = beta_binomial_band(n_cal, n_test, alpha, COVERAGE_TAIL)
            self.check(f"{what} global coverage at alpha={alpha:g}",
                       lo <= coverage <= hi,
                       f"{coverage:.4f} outside [{lo:.4f}, {hi:.4f}] "
                       f"(n_cal={n_cal}, n_test={n_test})")

    def check_predict_line(self, line: str, name: str) -> bool:
        m = PREDICT_RE.match(line.strip())
        ok = m is not None and all(math.isfinite(float(m.group(i))) for i in (1, 2)) \
            and (m.group(4) == "inf" or float(m.group(4)) > 0)
        return self.check(name, ok, f"output {line.strip()[:200]!r} is not (x, y, region, radius)")

    def record_determinism(self, key_suffix: str, values: dict) -> None:
        """Same seed at the same code -> same artifacts and counts, across runs."""
        path = OUT / "determinism.json"
        key = (f"{self.workload}|seed={self.seed}|smoke={int(self.smoke)}|"
               f"code={source_digest()}|{key_suffix}")
        try:
            store = json.loads(path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            store = {}
        previous = store.get(key)
        if previous is None:
            store[key] = values
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(json.dumps(store, indent=1, sort_keys=True), encoding="utf-8")
            os.replace(tmp, path)
            self.notes.append("determinism: first run of this seed at this code, recorded")
            return
        diff = sorted(k for k in set(previous) | set(values) if previous.get(k) != values.get(k))
        self.check("determinism", not diff, f"differs from an earlier run of this seed: {diff}")
        if not diff:
            self.notes.append(f"determinism: {len(values)} values match an earlier run")

    # -- end-to-end run ------------------------------------------------------------

    def end_to_end(self) -> None:
        """Cycles of train, read rounds and one more setup, for `seconds`.

        On a shared VM the CPU runs at one of a few speed levels, up to 1.7x
        apart, for seconds at a time, so one contiguous window mostly
        measures which level it hit. Every metric therefore samples the
        whole run: trains, read stages, warm blocks and setups are
        interleaved, and stage times are means over the run (trimmed when
        there are five or more), since the median of a mix of two levels
        jumps between them as the mix shifts. Every repeat must write the
        same bytes as the first.
        """
        w = spec.WORKLOADS[self.workload]
        rounds = SMOKE["rounds_per_cycle"] if self.smoke else w["rounds_per_cycle"]
        block_scans = SMOKE["warm_block_scans"] if self.smoke else w["warm_block_scans"]
        min_scans = SMOKE["warm_min_scans"] if self.smoke else WARM_MIN_SCANS
        wall, config, data, out = self.setup("s0")
        setup_walls, inputs = [wall], snapshot(data)
        scans = self.test_scans(data)
        walls: dict[str, list[float]] = {s: [] for s in ("train", *READ_STAGES)}
        stage_files: dict[str, str] = {}
        cold_lines = []
        warm = None
        started, cycles = time.monotonic(), 0
        try:
            while True:
                self.train_stage(config, out, walls, stage_files)
                for _ in range(rounds):
                    r = len(walls["predict"])
                    for stage in READ_STAGES:
                        cold_lines += self.read_stage(config, out, stage, r, scans,
                                                      stage_files, walls)
                        if warm is None:
                            warm = WarmLoop(self, config)
                        else:
                            warm.block(block_scans)
                cycles += 1
                wall, _, data_c, _ = self.setup(f"s{cycles}")
                setup_walls.append(wall)
                self.check("synth is deterministic", snapshot(data_c) == inputs,
                           f"setup {cycles} wrote different inputs than setup 0")
                shutil.rmtree(data_c.parent / f"out-s{cycles}", ignore_errors=True)
                shutil.rmtree(data_c, ignore_errors=True)
                elapsed = time.monotonic() - started
                if cycles >= spec.MIN_CYCLES and elapsed * (cycles + 1) / cycles > self.seconds:
                    break
        finally:
            if warm is not None:
                warm.close()
        self.samples["setup_s"] = setup_walls
        self.metrics["setup_s"] = statistics.median(setup_walls)
        for stage, values in walls.items():
            name = "predict_cold_s" if stage == "predict" else f"{stage}_s"
            self.metrics[name] = centre(values)
            self.samples[name] = values

        lat = warm.merged["latencies_ms"]
        self.samples["predict_ms"] = lat
        # p50 is time-averaged: the mean over the blocks of each block's
        # median, for the reason above.
        self.metrics["predict_p50_ms"] = statistics.mean(warm.block_medians)
        self.metrics["predict_p95_ms"] = percentile(lat, 0.95)
        self.check(f"warm loop ran at least {min_scans} scans", len(lat) >= min_scans,
                   f"only {len(lat)} scans")
        self.notes.append(f"{cycles} cycles, {len(walls['train'])} trains, "
                          f"{len(walls['predict'])} read rounds, {len(setup_walls)} setups")
        self.notes.append(f"warm predict: {len(lat)} scans in {len(warm.block_medians)} blocks, "
                          f"{len(lat) - math.ceil(0.95 * len(lat))} beyond p95, "
                          f"pooled median {statistics.median(lat):.4f} ms")
        first_pass = warm.merged["first_pass"]
        n_cold = len(cold_lines)
        self.check("cold predict matches warm predict", cold_lines == first_pass[:n_cold],
                   f"{cold_lines} vs {first_pass[:n_cold]}")
        mismatch = [i for i, e in enumerate(warm.merged["errors_m"])
                    if not abs(e - self.error_map[i]) <= ERROR_MAP_TOL_M]
        if mismatch:
            self.failures.append(
                f"check single-scan predict matches batched evaluate: {len(mismatch)} scans "
                f"differ by more than {ERROR_MAP_TOL_M} m, first {mismatch[:5]}")
        self.warm_scans([warm.merged], set(mismatch))

        self.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        self.artifacts = stage_files
        self.record_determinism("e2e", {**stage_files, "test_mae_l1_m": self.test_mae})

    def train_stage(self, config: Path, out: Path, walls: dict[str, list[float]],
                    stage_files: dict[str, str]) -> None:
        """One `sacloc train`; a retrain must write the first train's bytes."""
        wall, _ = self.cli(config, "train")
        walls["train"].append(wall)
        after = snapshot(out)
        if len(walls["train"]) == 1:
            stage_files.update({f"train:{k}": v for k, v in after.items()})
            self.checkpoint_checks(out)
            return
        changed = sorted(k for k, v in stage_files.items()
                         if k.startswith("train:") and after.get(k.split(":", 1)[1]) != v)
        self.check(f"train {len(walls['train'])} writes the same artifacts", not changed,
                   f"{changed} differ from the first train")

    def read_stage(self, config: Path, out: Path, stage: str, r: int, scans: list,
                   stage_files: dict[str, str], walls: dict[str, list[float]]) -> list[str]:
        """One read-phase stage of round r; returns the cold predict line, if any."""
        extra = ()
        if stage == "predict":
            rssi = self.dir / f"scan{r}.txt"
            rssi.write_text(",".join(scans[r]), encoding="utf-8")
            extra = ("--rssi-file", str(rssi))
        before = snapshot(out)
        wall, stdout = self.cli(config, stage, *extra, required=stage != "predict")
        walls[stage].append(wall)
        after = snapshot(out)
        if stage == "predict":
            line = stdout.strip().splitlines()[-1] if stdout.strip() else ""
            self.check_predict_line(line, f"predict scan {r}")
            return [line]
        if r == 0:
            stage_files.update({f"{stage}:{k}": v for k, v in after.items()
                                if before.get(k) != v})
            self.read_phase_checks(stage, out)
        else:
            mine = {k.split(":", 1)[1]: v for k, v in stage_files.items()
                    if k.startswith(f"{stage}:")}
            changed = sorted(k for k, v in mine.items() if after.get(k) != v)
            self.check(f"{stage} round {r} rewrites the same artifacts", not changed,
                       f"{changed} differ from round 0")
        return []

    def read_phase_checks(self, stage: str, out: Path) -> None:
        """Coverage band, finite predictions, and the quality figures to record."""
        if stage == "calibrate":
            cal = json.loads((out / "calibration.json").read_text(encoding="utf-8"))
            self.n_cal = cal["global"]["count"]
            return
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        self.check_report_coverage(report, self.n_cal, stage)
        if stage != "evaluate":
            return
        self.test_mae = report["point_metrics"]["mae_l1"]
        coverage = report["coverage"]["global"]["coverage"]
        self.notes.append(f"evaluate: test MAE(L1) {self.test_mae:.3f} m, "
                          f"global coverage {100 * coverage:.2f}%")
        with open(out / "fig_error_map.csv", newline="", encoding="utf-8") as fh:
            self.error_map = [float(row["error_m"]) for row in csv.DictReader(fh)]
        bad = [i for i, e in enumerate(self.error_map) if not math.isfinite(e)]
        self.check("every evaluate prediction is finite", not bad,
                   f"{len(bad)} non-finite errors, first scans {bad[:5]}")

    def checkpoint_checks(self, out: Path) -> None:
        files = [p for p in out.iterdir() if p.name.startswith("checkpoint")]
        self.check("train wrote a checkpoint", bool(files), f"no checkpoint* in {out}")
        self.checkpoint_bytes = sum(p.stat().st_size for p in files)

    # -- traced run ------------------------------------------------------------------

    def traced(self) -> None:
        from tracer import Spans, per_layer_metrics, step_sum_error, train_step_breakdown

        spans_dir = self.dir / "spans"
        spans_dir.mkdir(parents=True)
        overhead: dict[str, float] = {}
        stages: dict[str, Spans] = {}

        wall_u, config, data, out = self.setup("u")
        wall_t, config_t, data_t, _ = self.setup("t", traced_spans=spans_dir / "synth.json.gz")
        overhead["synth"] = wall_t - wall_u
        stages["synth"] = Spans.load(str(spans_dir / "synth.json.gz"))
        self.check("traced synth writes the same inputs", snapshot(data) == snapshot(data_t),
                   "tracing changed synth output")

        scans = self.test_scans(data)
        rssi = self.dir / "scan0.txt"
        rssi.write_text(",".join(scans[0]), encoding="utf-8")
        for stage in ("train", "calibrate", "evaluate", "sweep", "predict"):
            extra = ("--rssi-file", str(rssi)) if stage == "predict" else ()
            before = snapshot(out) if out.exists() else {}
            wall_u, stdout_u = self.cli(config, stage, *extra)
            untraced = snapshot(out)
            spans_path = spans_dir / f"{stage}.json.gz"
            wall_t, stdout_t = self.cli(config, stage, *extra, traced_spans=spans_path)
            overhead[stage] = wall_t - wall_u
            stages[stage] = Spans.load(str(spans_path))
            changed = sorted(k for k in untraced if untraced[k] != snapshot(out).get(k))
            self.check(f"traced {stage} writes the same artifacts", not changed,
                       f"tracing changed {changed}")
            if stage == "evaluate":
                report = json.loads((out / "report.json").read_text(encoding="utf-8"))
                test_mae = report["point_metrics"]["mae_l1"]
            if stage == "predict":
                self.check("traced predict prints the same result",
                           stdout_u.strip() == stdout_t.strip().splitlines()[0],
                           f"{stdout_u.strip()!r} vs {stdout_t.strip()!r}")
            self.artifacts.update({f"{stage}:{k}": v for k, v in untraced.items()
                                   if before.get(k) != v})
        self.checkpoint_checks(out)
        # 4-5 s at h=500: too slow for the end-to-end run's time budget
        roundtrip = self.worker("roundtrip", "--config", str(config))
        self.check("checkpoint load->save round trip", roundtrip["ok"], roundtrip["detail"])

        n = min(TRACE_WARM_SCANS, len(scans))
        warm_spans = spans_dir / "predict_warm.json.gz"
        warm_runs = []
        for spans in (None, warm_spans):
            t0 = time.perf_counter()
            warm = WarmLoop(self, config, spans)
            try:
                warm.block(n)
            finally:
                warm.close()
            warm_runs.append((time.perf_counter() - t0, warm.merged))
        (wall_u, warm_u), (wall_t, warm_t) = warm_runs
        overhead["predict_warm"] = wall_t - wall_u
        stages["predict_warm"] = Spans.load(str(warm_spans))
        self.warm_scans([warm_u, warm_t], set())
        self.check("traced warm predict gives the same results",
                   warm_u["first_pass"] == warm_t["first_pass"], "tracing changed predictions")

        extra = {"autodiff.checkpoint_bytes": float(self.checkpoint_bytes),
                 "evalreport.test_mae_l1_m": test_mae}
        extra.update({f"trace.{s}.overhead_s": v for s, v in overhead.items()})
        extra["trace.overhead_s"] = sum(overhead.values())
        metrics, absent = per_layer_metrics(stages, extra)
        try:
            b = train_step_breakdown(stages["train"])
            err, allowed = step_sum_error(b)
            self.notes.append(
                "step phases (ms/step): " + ", ".join(
                    f"{k} {v:.3f}" for k, v in b.items() if k != "steps")
                + f"; |sum - step| = {err:.4f} ms (allowed {allowed:.4f})")
            if err > allowed:
                for name in ("gtmodel.step_ms", "gtmodel.step_self_ms"):
                    metrics.pop(name, None)
                    absent[name] = (f"step phases overlap: |sum - step| = {err:.3f} ms "
                                    f"> {allowed:.3f} ms")
            self.step_sum = {"error_ms": err, "allowed_ms": allowed}
        except Exception as exc:  # reported, the per-module metrics stand alone
            self.notes.append(f"step breakdown unavailable: {exc!r}")
        for sp in stages.values():
            self.notes += [f"tracer hook error: {e}" for e in sp.hook_errors]
        self.metrics = metrics
        self.absent = absent
        self.record_determinism("trace", {
            **self.artifacts,
            **{k: metrics[k] for k in spec.DETERMINISTIC if k in metrics}})
        shutil.copytree(spans_dir, OUT / f"spans-{self.workload}-seed{self.seed}",
                        dirs_exist_ok=True)


class WarmLoop:
    """A `worker.py warm` process: loads the model once, then times blocks of
    single-scan predicts on request, idle (blocked on stdin) in between."""

    def __init__(self, run: Run, config: Path, spans: Path | None = None):
        self.run = run
        argv = [sys.executable, str(BENCH / "worker.py"), "warm", "--config", str(config)]
        if spans is not None:
            argv += ["--spans", str(spans)]
        self.stderr_path = run.dir / f"warm-{len(list(run.dir.glob('warm-*')))}.err"
        self.stderr = open(self.stderr_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(argv, env=run.env, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.stderr, text=True)
        self.merged: dict[str, list] = {"latencies_ms": [], "first_pass": [],
                                        "errors_m": [], "failures": []}
        self.block_medians: list[float] = []
        self._read()  # the ready line: loading is not timed

    def _read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], self.run.remaining())
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close()
            raise StageFailed("warm loop died or timed out: "
                              + self.stderr_path.read_text(encoding="utf-8")[-1500:])
        return json.loads(line)

    def block(self, scans: int) -> None:
        self.proc.stdin.write(f"{scans}\n")
        self.proc.stdin.flush()
        block = self._read()
        for key, values in block.items():
            self.merged[key] += values
        self.block_medians.append(statistics.median(block["latencies_ms"]))

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=self.run.remaining())
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


def provenance(run: Run, worker_info: dict) -> dict:
    return {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
        "smoke": run.smoke,
        "default_seed": spec.DEFAULT_SEED, "held_out_seed": spec.HELD_OUT_SEED,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "python": worker_info["python"], "numpy": worker_info["numpy"],
        "blas": {**worker_info["blas"], "pinned_threads": BLAS_THREADS},
        "git_commit": git_commit(), "source_digest": source_digest(),
        "closed_loop": "one process, one client, train.workers=1",
    }


def execute(run: Run, trace: bool) -> dict:
    info = run.worker("provenance")
    expected = (ROOT / "src" / "sacloc").resolve()
    if Path(info["sacloc_file"]).resolve().parent != expected:
        raise StageFailed(f"sacloc imported from {info['sacloc_file']}, not {expected}")
    prov = provenance(run, info)
    run.absent = {}
    run.step_sum = None
    try:
        if trace:
            run.traced()
        else:
            run.end_to_end()
        completed = True
    except StageFailed as exc:
        run.failures.append(str(exc))
        completed = False
    units = ({n: u for n, (u, _, _) in spec.END_TO_END.items()} if not trace
             else {n: s[0] for n, s in spec.PER_LAYER.items()})
    return {
        "provenance": prov,
        "completed": completed,
        "failures": run.failures,
        "notes": run.notes,
        "absent": run.absent,
        "step_sum": run.step_sum,
        "samples": run.samples,
        "artifacts": run.artifacts,
        "result": {
            "correct": completed and not run.failures,
            "attempted": max(run.attempted, 1),
            "failed": min(run.failed, max(run.attempted, 1)),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in run.metrics.items()
                        if k in units},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*spec.WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long smoke profile (tiny n, h and epochs)")
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="regenerate BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.benchmark_json(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        # one process per workload, so peak_rss_mb covers that workload only
        flags = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), *(["--smoke"] if args.smoke else [])]
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, *flags]).returncode
                 for w in spec.WORKLOADS]
        return max(codes)
    if not (ROOT / "src" / "sacloc" / "__init__.py").is_file():
        print(f"error: no sacloc sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, args.smoke)
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        report = execute(run, bool(args.trace))
    except StageFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1), encoding="utf-8")
    prov = report["provenance"]
    print(f"# sacloc benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    print(f"# machine: nproc {prov['nproc']}, loadavg {prov['loadavg_start']}, "
          f"python {prov['python']}, numpy {prov['numpy']}, "
          f"BLAS {prov['blas']['name']} {prov['blas']['version']} "
          f"({prov['blas']['pinned_threads']} thread), commit {prov['git_commit']}, "
          f"code {prov['source_digest']}")
    for note in report["notes"]:
        print(f"# {note}")
    for failure in report["failures"]:
        print(f"# FAILED {failure}")
    for k, m in report["result"]["metrics"].items():
        print(f"{k:<40} {m['value']:>14.6g} {m['unit']}")
    if report["absent"]:
        print("absent: " + json.dumps(report["absent"], sort_keys=True))
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
