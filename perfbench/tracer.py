"""Span tracing of sacloc from the outside, and the per-module metrics.

`Tracer.install` replaces the attributes that sacloc's own callers look up
(`sacloc.cli.train`, `sacloc.gtmodel.adam_step`, the `Tape` primitives on
the class, ...) with timing wrappers. Nothing under `src/` changes. Spans
live in memory as parallel arrays (name, start, end, parent, tag) and are
written out once, when the traced process ends.

A target that a later version renames or removes is recorded as absent
with the reason; the metrics that need it are then reported absent instead
of the traced run failing. This module does not import sacloc at module
level, so run.py can use the analysis half without it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Optional

# (module, attribute path, span name). Patch the name the caller looks up:
# `from .x import f` binds f in the importing module, so each importing
# module is listed. One call goes through exactly one of these names.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("sacloc.cli", "train", "gtmodel.train"),
    ("sacloc.cli", "save_model", "gtmodel.save_model"),
    ("sacloc.cli", "load_model", "gtmodel.load_model"),
    ("sacloc.cli", "predict_positions", "gtmodel.predict_positions"),
    ("sacloc.cli", "load_inventory", "dataset.load_inventory"),
    ("sacloc.cli", "load_fingerprints", "dataset.load_fingerprints"),
    ("sacloc.cli", "save_fingerprints", "dataset.save_fingerprints"),
    ("sacloc.cli", "generate_synthetic", "dataset.generate_synthetic"),
    ("sacloc.cli", "synthesize_scans", "dataset.synthesize_scans"),
    ("sacloc.cli", "calibrate", "conformal.calibrate"),
    ("sacloc.cli", "save_calibration", "conformal.save_calibration"),
    ("sacloc.cli", "load_calibration", "conformal.load_calibration"),
    ("sacloc.cli", "predict_set", "conformal.predict_set"),
    ("sacloc.cli", "build_sample_graph", "graphbuild.build_sample_graph"),
    ("sacloc.cli", "assign_regions", "regions.assign_regions"),
    ("sacloc.cli", "alpha_sweep", "evalreport.alpha_sweep"),
    ("sacloc.cli", "coverage_by_region", "evalreport.coverage_by_region"),
    ("sacloc.cli", "emit_report", "evalreport.emit_report"),
    ("sacloc.cli", "baseline_positions", "evalreport.baseline_positions"),
    ("sacloc.gtmodel", "forward_batch", "gtmodel.forward_batch"),
    ("sacloc.gtmodel", "adam_step", "autodiff.adam_step"),
    ("sacloc.gtmodel", "dropout_mask", "autodiff.dropout_mask"),
    ("sacloc.gtmodel", "save_checkpoint", "autodiff.save_checkpoint"),
    ("sacloc.gtmodel", "load_checkpoint", "autodiff.load_checkpoint"),
    ("sacloc.gtmodel", "user_edge_mask", "graphbuild.user_edge_mask"),
    ("sacloc.graphbuild", "user_edge_mask", "graphbuild.user_edge_mask"),
    ("sacloc.graphbuild", "build_sample_graph", "graphbuild.build_sample_graph"),
    ("sacloc.conformal", "forward_graph", "gtmodel.forward_graph"),
    ("sacloc.conformal", "predict_set", "conformal.predict_set"),
    ("sacloc.conformal", "kmeans_fit", "regions.kmeans_fit"),
    ("sacloc.conformal", "assign_regions", "regions.assign_regions"),
    ("sacloc.regions", "assign_regions", "regions.assign_regions"),
    ("sacloc.evalreport", "kmeans_fit", "regions.kmeans_fit"),
    ("sacloc.evalreport", "calibrate", "conformal.calibrate"),
    ("sacloc.evalreport", "coverage_by_region", "evalreport.coverage_by_region"),
    ("sacloc.evalreport", "assign_regions", "regions.assign_regions"),
    *(("sacloc.autodiff", f"Tape.{op}", f"Tape.{op}") for op in (
        "matmul", "transpose", "add", "add_bias", "mul", "scale", "relu", "abs",
        "masked_row_softmax", "select_rows", "concat_rows", "sum_all", "mean_all",
        "gradients")),
)

SPANS_FORMAT = "perfbench-spans-1"


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.tag = array("i")
        self._stack = [-1]
        self.current_tag = 0
        self.absent: dict[str, str] = {}  # span name -> why it was not traced
        self.hook_errors: list[str] = []
        self.facts: dict[str, list] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(self._stack[-1])
        self.tag.append(self.current_tag)
        self._stack.append(i)
        return i

    @contextmanager
    def span(self, name: str):
        i = self._open(self._name_id(name))
        self.start[i] = time.perf_counter_ns()
        try:
            yield
        finally:
            self.end[i] = time.perf_counter_ns()
            self._stack.pop()

    def fact(self, key: str, value) -> None:
        self.facts.setdefault(key, []).append(value)

    def _hook(self, hook: Callable, *args) -> None:
        try:
            hook(self, *args)
        except Exception as exc:  # a hook must never break the traced program
            self.hook_errors.append(f"{getattr(hook, '__name__', hook)}: {exc!r}")

    def wrap(self, fn: Callable, name: str) -> Callable:
        nid = self._name_id(name)
        on_call = _ON_CALL.get(name)
        on_result = _ON_RESULT.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                self._hook(on_call, args, kwargs)
            i = self._open(nid)
            self.start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()
            if on_result is not None:
                self._hook(on_result, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every reachable target; record the others as absent."""
        for module_name, path, name in targets:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.absent.setdefault(name, f"{module_name}.{path} not found ({exc})")
                continue
            setattr(owner, attr, self.wrap(fn, name))

    def dump(self, path: str) -> None:
        doc = {
            "format": SPANS_FORMAT,
            "names": self.names,
            "name": self.name.tolist(), "start": self.start.tolist(),
            "end": self.end.tolist(), "parent": self.parent.tolist(),
            "tag": self.tag.tolist(),
            "absent": self.absent, "hook_errors": self.hook_errors, "facts": self.facts,
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)


# -- hooks: counts taken where the work happens ---------------------------------


def _train_call(tr: Tracer, args, kwargs) -> None:
    samples = kwargs.get("train_samples", args[1] if len(args) > 1 else None)
    tr.fact("train_samples", len(samples))


def _train_result(tr: Tracer, history) -> None:
    tr.fact("epochs", len(history))


def _predict_positions_call(tr: Tracer, args, kwargs) -> None:
    samples = kwargs.get("samples", args[1] if len(args) > 1 else None)
    tr.fact("predict_positions_scans", len(samples))


def _rows_result(tr: Tracer, samples) -> None:
    tr.fact("load_fingerprints_rows", len(samples))


def _kmeans_result(tr: Tracer, region_model) -> None:
    # one objective per Lloyd iteration plus the final one
    tr.fact("kmeans_iterations", len(region_model.objective_history) - 1)


def _gradients_call(tr: Tracer, args, kwargs) -> None:
    if "tape" in tr.facts:
        return
    tape, loss = args[0], kwargs.get("loss", args[1] if len(args) > 1 else None)
    tr.fact("tape", analyze_tape(tape, loss))


_ON_CALL = {
    "gtmodel.train": _train_call,
    "gtmodel.predict_positions": _predict_positions_call,
    "Tape.gradients": _gradients_call,
}
_ON_RESULT = {
    "gtmodel.train": _train_result,
    "dataset.load_fingerprints": _rows_result,
    "regions.kmeans_fit": _kmeans_result,
}


def analyze_tape(tape, loss) -> dict:
    """Recorded nodes and forward matmul flops the reverse sweep never reaches.

    Walks the tape record `(output, inputs, backward)` from the loss, the way
    the reverse sweep does: a node is live when its output feeds the loss.
    Matmul nodes are recognised by their backward rule's qualified name.
    """
    nodes = tape._nodes
    live_ids = {id(loss)}
    nodes_live = 0
    flops = dead_flops = 0
    for out, inputs, backward in reversed(nodes):
        live = id(out) in live_ids
        if live:
            nodes_live += 1
            live_ids.update(id(t) for t in inputs)
        if backward.__qualname__.startswith("Tape.matmul."):
            a, b = inputs
            f = 2 * a.shape[0] * a.shape[1] * b.shape[1]
            flops += f
            dead_flops += 0 if live else f
    if flops == 0:
        raise ValueError("no matmul node recognised on the tape record")
    return {"nodes": len(nodes), "dead_nodes": len(nodes) - nodes_live,
            "matmul_flops": flops, "dead_matmul_flops": dead_flops}


# -- analysis -------------------------------------------------------------------


class Spans:
    """Spans of one traced process, loaded from `Tracer.dump` output."""

    def __init__(self, doc: dict):
        if doc.get("format") != SPANS_FORMAT:
            raise ValueError(f"unknown span file format {doc.get('format')!r}")
        self.names = doc["names"]
        self.name, self.start, self.end = doc["name"], doc["start"], doc["end"]
        self.parent, self.tag = doc["parent"], doc["tag"]
        self.absent: dict[str, str] = doc["absent"]
        self.hook_errors: list[str] = doc["hook_errors"]
        self.facts: dict[str, list] = doc["facts"]
        self._by_name: dict[int, list[int]] = {}
        for i, n in enumerate(self.name):
            self._by_name.setdefault(n, []).append(i)
        self._ids = {n: i for i, n in enumerate(self.names)}

    @classmethod
    def load(cls, path: str) -> "Spans":
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            return cls(json.load(fh))

    def of(self, name: str, within: Optional[tuple[int, int]] = None) -> list[int]:
        """Indices of the spans called `name`, optionally inside [t0, t1]."""
        if name in self.absent:
            raise Absent(self.absent[name])
        nid = self._ids.get(name)
        if nid is None:
            return []
        idx = self._by_name.get(nid, [])
        if within is not None:
            t0, t1 = within
            idx = [i for i in idx if self.start[i] >= t0 and self.end[i] <= t1]
        return idx

    def dur_s(self, i: int) -> float:
        return (self.end[i] - self.start[i]) * 1e-9

    def total_s(self, name: str, within=None) -> float:
        return sum(self.dur_s(i) for i in self.of(name, within))

    def one(self, name: str) -> int:
        idx = self.of(name)
        if len(idx) != 1:
            raise ValueError(f"expected one {name} span, found {len(idx)}")
        return idx[0]

    def interval(self, i: int) -> tuple[int, int]:
        return self.start[i], self.end[i]

    def self_s(self, i: int) -> float:
        """Duration minus what direct children cover (children never overlap)."""
        kids = sum(self.end[j] - self.start[j] for j, p in enumerate(self.parent) if p == i)
        return (self.end[i] - self.start[i] - kids) * 1e-9

    def fact(self, key: str) -> list:
        if key not in self.facts:
            raise Absent(f"no {key} recorded" + (
                f"; hook errors: {self.hook_errors}" if self.hook_errors else ""))
        return self.facts[key]


class Absent(Exception):
    """A metric whose inputs were not traced; the message says why."""


STEP_PHASES = ("gtmodel.forward_batch", "Tape.gradients", "autodiff.adam_step",
               "autodiff.dropout_mask")
# Step phases plus step self time must add up to the step within this share
# of the step (or 0.05 ms, whichever is larger). A larger gap means phase
# spans overlap, i.e. one phase is counted twice.
STEP_SUM_TOLERANCE = 0.02


def train_step_breakdown(sp: Spans) -> dict[str, float]:
    """Per-step milliseconds of each phase, the step and the step's self time.

    The step window runs from the first phase span inside `gtmodel.train` to
    the end of its last `adam_step`; its length over the number of Adam
    steps is `step_ms`. Self time is the window minus the union of the phase
    spans: loss, gradient accumulation and zero_grad.
    """
    train = sp.interval(sp.one("gtmodel.train"))
    steps = len(sp.of("autodiff.adam_step", train))
    if steps == 0:
        raise Absent("no autodiff.adam_step inside gtmodel.train")
    phase_idx = {p: sp.of(p, train) for p in STEP_PHASES}
    all_idx = sorted((i for idx in phase_idx.values() for i in idx), key=sp.start.__getitem__)
    window_start = sp.start[all_idx[0]]
    window_end = max(sp.end[i] for i in phase_idx["autodiff.adam_step"])
    covered, reach = 0, window_start
    for i in all_idx:  # union of the phase intervals
        s, e = max(sp.start[i], reach), sp.end[i]
        if e > s:
            covered += e - s
            reach = e
    out = {p: sum(sp.end[i] - sp.start[i] for i in idx) * 1e-6 / steps
           for p, idx in phase_idx.items()}
    out["step"] = (window_end - window_start) * 1e-6 / steps
    out["self"] = (window_end - window_start - covered) * 1e-6 / steps
    out["steps"] = steps
    return out


def step_sum_error(b: dict[str, float]) -> tuple[float, float]:
    """(|phases + self - step| in ms, allowed error in ms)."""
    total = sum(b[p] for p in STEP_PHASES) + b["self"]
    return abs(total - b["step"]), max(STEP_SUM_TOLERANCE * b["step"], 0.05)


def _median_over(stages: dict[str, Spans], fn: Callable[[Spans], float],
                 names: tuple[str, ...]) -> float:
    return statistics.median(fn(stages[s]) for s in names if s in stages)


def per_layer_metrics(stages: dict[str, Spans], extra: dict[str, float]) -> tuple[dict, dict]:
    """(metrics name -> value, absent name -> reason) from per-stage spans.

    `stages` maps "synth", "train", "calibrate", "evaluate", "sweep",
    "predict" and "predict_warm" to their spans; `extra` carries metrics the
    caller measured itself (checkpoint bytes, test MAE, trace overheads).
    """
    read = ("calibrate", "evaluate", "sweep", "predict")
    cli = ("train", "calibrate", "evaluate", "sweep", "predict")
    tr = stages["train"]
    warm = stages["predict_warm"]

    def tape(key):
        return tr.fact("tape")[0][key]

    def per_step(name):
        return lambda: tr.total_s(name) * 1e3 / len(tr.of("autodiff.adam_step"))

    def total_over(name, names=cli):
        return lambda: sum(stages[s].total_s(name) for s in names)

    def count_over(name, names=cli):
        return lambda: sum(len(stages[s].of(name)) for s in names)

    def warm_median_ms(name):
        return lambda: statistics.median(warm.dur_s(i) for i in warm.of(name)) * 1e3

    def load_model_self(sp: Spans) -> float:
        i = sp.one("gtmodel.load_model")
        inner = sp.of("autodiff.load_checkpoint", sp.interval(i))
        return sp.dur_s(i) - sum(sp.dur_s(j) for j in inner)

    def scans_per_s():
        scans = sum(sum(stages[s].fact("predict_positions_scans")) for s in read[:3])
        return scans / total_over("gtmodel.predict_positions", read[:3])()

    def train_s():
        return tr.dur_s(tr.one("gtmodel.train"))

    breakdown: dict = {}

    def step(key):
        def get():
            if not breakdown:
                breakdown.update(train_step_breakdown(tr))
            return breakdown[key]
        return get

    getters: dict[str, Callable[[], float]] = {
        "autodiff.tape_ops_per_step": lambda: tape("nodes"),
        "autodiff.dead_node_share": lambda: tape("dead_nodes") / tape("nodes"),
        "autodiff.dead_matmul_flop_share":
            lambda: tape("dead_matmul_flops") / tape("matmul_flops"),
        "autodiff.matmul_gflop_per_step": lambda: tape("matmul_flops") * 1e-9,
        "autodiff.matmul_ms_per_step": per_step("Tape.matmul"),
        "autodiff.softmax_ms_per_step": per_step("Tape.masked_row_softmax"),
        "autodiff.gradients_ms_per_step": per_step("Tape.gradients"),
        "autodiff.adam_ms_per_step": per_step("autodiff.adam_step"),
        "autodiff.dropout_mask_ms_per_step": per_step("autodiff.dropout_mask"),
        "autodiff.save_checkpoint_s": lambda: tr.total_s("autodiff.save_checkpoint"),
        "autodiff.load_checkpoint_s": lambda: _median_over(
            stages, lambda sp: sp.total_s("autodiff.load_checkpoint"), read),
        "gtmodel.epoch_s": lambda: train_s() / tr.fact("epochs")[0],
        "gtmodel.train_scans_per_s":
            lambda: tr.fact("train_samples")[0] * tr.fact("epochs")[0] / train_s(),
        "gtmodel.step_ms": step("step"),
        "gtmodel.step_self_ms": step("self"),
        "gtmodel.forward_batch_train_ms": lambda: statistics.mean(
            tr.dur_s(i) for i in tr.of("gtmodel.forward_batch")) * 1e3,
        "gtmodel.predict_positions_scans_per_s": scans_per_s,
        "gtmodel.forward_graph_ms": warm_median_ms("gtmodel.forward_graph"),
        "gtmodel.load_model_self_s": lambda: _median_over(stages, load_model_self, read),
        "dataset.load_fingerprints_s": total_over("dataset.load_fingerprints"),
        "dataset.load_fingerprints_rows": lambda: sum(
            sum(stages[s].fact("load_fingerprints_rows")) for s in cli
            if stages[s].of("dataset.load_fingerprints")),
        "dataset.save_fingerprints_s": total_over("dataset.save_fingerprints", ("synth",)),
        "graphbuild.user_edge_mask_calls": count_over("graphbuild.user_edge_mask"),
        "graphbuild.user_edge_mask_s": total_over("graphbuild.user_edge_mask"),
        "graphbuild.build_sample_graph_ms": warm_median_ms("graphbuild.build_sample_graph"),
        "regions.kmeans_fit_s": total_over("regions.kmeans_fit"),
        "regions.kmeans_iterations": lambda: sum(
            sum(stages[s].fact("kmeans_iterations")) for s in ("calibrate", "sweep")),
        "regions.assign_regions_s": total_over("regions.assign_regions"),
        "conformal.calibrate_s": total_over("conformal.calibrate"),
        "conformal.predict_set_ms": warm_median_ms("conformal.predict_set"),
        "conformal.load_calibration_s": lambda: _median_over(
            stages, lambda sp: sp.total_s("conformal.load_calibration"),
            ("evaluate", "predict")),
        "evalreport.alpha_sweep_s": total_over("evalreport.alpha_sweep", ("sweep",)),
        "evalreport.emit_report_s": total_over("evalreport.emit_report"),
        "evalreport.baseline_positions_s": total_over("evalreport.baseline_positions"),
    }
    for s in ("synth", *cli):
        getters[f"cli.{s}.self_s"] = (
            lambda s=s: stages[s].self_s(stages[s].one(f"cli.{s}")))
    getters.update({key: (lambda value=value: value) for key, value in extra.items()})

    metrics, absent = {}, {}
    for name, get in getters.items():
        try:
            metrics[name] = float(get())
        except Absent as exc:
            absent[name] = str(exc)
        except (KeyError, IndexError, ValueError, ZeroDivisionError,
                statistics.StatisticsError) as exc:
            absent[name] = f"{type(exc).__name__}: {exc}"
    return metrics, absent
