"""Dense float64 tensors with reverse-mode automatic differentiation.

A `Tape` records every primitive application in execution order; `backward`
walks the records in reverse and accumulates gradients into the `grad`
buffer of every `requires_grad` tensor that was touched. Constants
(`requires_grad=False` leaves) never receive gradients and their partials
are not computed.

Also houses the optimizer pieces the trainer needs: bias-corrected Adam
with decoupled weight decay, a cosine learning-rate schedule, inverted
dropout masks, and a versioned binary checkpoint format (a JSON header
line plus one raw float64 blob).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BadCheckpoint, NonScalarLoss, ShapeMismatch, StepOutOfRange

CHECKPOINT_MAGIC = "sacloc-checkpoint"
CHECKPOINT_VERSION = 2
CHECKPOINT_DTYPE = "<f8"


class Tensor:
    """A float64 array plus an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.data.shape}, requires_grad={self.requires_grad})"


def _check(cond: bool, what: str, *shapes: tuple[int, ...]) -> None:
    if not cond:
        raise ShapeMismatch(f"{what}: " + " vs ".join(str(s) for s in shapes))


class Tape:
    """Execution record for one forward pass.

    Primitives are methods; each computes the forward value and, when
    recording, appends a backward rule. A non-recording tape evaluates
    forward only (used for inference).
    """

    def __init__(self, record: bool = True):
        self.record = record
        # (output, inputs, backward) with backward(g) -> per-input grads or None
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._on_tape: set[int] = set()
        self._leaves: dict[int, Tensor] = {}

    def _needs(self, t: Tensor) -> bool:
        return t.requires_grad or id(t) in self._on_tape

    def _push(self, out: Tensor, inputs: tuple[Tensor, ...], backward: Callable) -> Tensor:
        if self.record and any(self._needs(t) for t in inputs):
            self._nodes.append((out, inputs, backward))
            self._on_tape.add(id(out))
            for t in inputs:
                if t.requires_grad:
                    self._leaves[id(t)] = t
        return out

    # -- primitives ------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        _check(a.data.ndim == 2 and b.data.ndim == 2 and a.shape[1] == b.shape[0],
               "matmul", a.shape, b.shape)
        out = Tensor(a.data @ b.data)
        need_a, need_b = self._needs(a), self._needs(b)

        def backward(g):
            return (g @ b.data.T if need_a else None,
                    a.data.T @ g if need_b else None)

        return self._push(out, (a, b), backward)

    def transpose(self, a: Tensor) -> Tensor:
        _check(a.data.ndim == 2, "transpose", a.shape)
        out = Tensor(np.ascontiguousarray(a.data.T))
        return self._push(out, (a,), lambda g: (np.ascontiguousarray(g.T),))

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        _check(a.shape == b.shape, "add", a.shape, b.shape)
        out = Tensor(a.data + b.data)
        return self._push(out, (a, b), lambda g: (g, g))

    def add_bias(self, x: Tensor, b: Tensor) -> Tensor:
        """Row-broadcast bias: (n, h) + (h,)."""
        _check(x.data.ndim == 2 and b.data.ndim == 1 and x.shape[1] == b.shape[0],
               "add_bias", x.shape, b.shape)
        out = Tensor(x.data + b.data[None, :])
        return self._push(out, (x, b), lambda g: (g, g.sum(axis=0)))

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        _check(a.shape == b.shape, "mul", a.shape, b.shape)
        out = Tensor(a.data * b.data)
        need_a, need_b = self._needs(a), self._needs(b)

        def backward(g):
            return (g * b.data if need_a else None,
                    g * a.data if need_b else None)

        return self._push(out, (a, b), backward)

    def scale(self, a: Tensor, c: float) -> Tensor:
        out = Tensor(a.data * c)
        return self._push(out, (a,), lambda g: (g * c,))

    def relu(self, a: Tensor) -> Tensor:
        out = Tensor(np.maximum(a.data, 0.0))
        active = a.data > 0.0
        return self._push(out, (a,), lambda g: (g * active,))

    def abs(self, a: Tensor) -> Tensor:
        out = Tensor(np.abs(a.data))
        sign = np.sign(a.data)
        return self._push(out, (a,), lambda g: (g * sign,))

    def masked_row_softmax(self, logits: Tensor, mask: np.ndarray) -> Tensor:
        """Softmax over the True entries of each row; all-False rows -> zeros."""
        _check(logits.data.ndim == 2 and mask.shape == logits.shape,
               "masked_row_softmax", logits.shape, mask.shape)
        mask = mask.astype(bool)
        masked = np.where(mask, logits.data, -np.inf)
        rowmax = np.max(masked, axis=1, keepdims=True)
        rowmax = np.where(np.isfinite(rowmax), rowmax, 0.0)
        e = np.exp(masked - rowmax)
        denom = e.sum(axis=1, keepdims=True)
        p = np.divide(e, denom, out=np.zeros_like(e), where=denom > 0.0)
        out = Tensor(p)

        def backward(g):
            inner = (g * p).sum(axis=1, keepdims=True)
            return (p * (g - inner),)

        return self._push(out, (logits,), backward)

    def select_rows(self, x: Tensor, idx: np.ndarray) -> Tensor:
        _check(x.data.ndim == 2, "select_rows", x.shape)
        idx = np.asarray(idx, dtype=np.intp)
        out = Tensor(x.data[idx])

        def backward(g):
            dx = np.zeros_like(x.data)
            np.add.at(dx, idx, g)
            return (dx,)

        return self._push(out, (x,), backward)

    def concat_rows(self, parts: Sequence[Tensor]) -> Tensor:
        if not parts:
            raise ShapeMismatch("concat_rows: empty input")
        cols = parts[0].shape[1]
        for p in parts:
            _check(p.data.ndim == 2 and p.shape[1] == cols, "concat_rows", p.shape)
        out = Tensor(np.vstack([p.data for p in parts]))
        sizes = [p.shape[0] for p in parts]
        offsets = np.cumsum([0] + sizes)

        def backward(g):
            return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

        return self._push(out, tuple(parts), backward)

    def sum_all(self, a: Tensor) -> Tensor:
        out = Tensor(a.data.sum())
        return self._push(out, (a,), lambda g: (np.full_like(a.data, float(g)),))

    def mean_all(self, a: Tensor) -> Tensor:
        out = Tensor(a.data.mean())
        return self._push(out, (a,), lambda g: (np.full_like(a.data, float(g) / a.data.size),))

    # -- reverse pass ------------------------------------------------------

    def gradients(self, loss: Tensor) -> dict[int, np.ndarray]:
        """Reverse sweep; returns grads keyed by id() of requires_grad leaves."""
        if loss.data.size != 1:
            raise NonScalarLoss(f"loss has shape {loss.shape}")
        flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for out, inputs, backward in reversed(self._nodes):
            g = flowing.pop(id(out), None)
            if g is None:
                continue
            for t, gt in zip(inputs, backward(g)):
                if gt is None or not self._needs(t):
                    continue
                key = id(t)
                if key in flowing:
                    flowing[key] = flowing[key] + gt
                else:
                    flowing[key] = gt
        return {k: v for k, v in flowing.items() if k in self._leaves}

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into each touched leaf's grad buffer."""
        grads = self.gradients(loss)
        for key, leaf in self._leaves.items():
            if leaf.grad is None:
                leaf.grad = np.zeros_like(leaf.data)
            g = grads.get(key)
            if g is not None:
                leaf.grad += g


# -- optimizer ------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment buffers per parameter name, plus the step counter."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One bias-corrected Adam update with decoupled weight decay."""
    if lr < 0:
        raise ValueError("lr must be nonnegative")
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ShapeMismatch(f"adam_step {name}: {g.shape} vs {p.data.shape}")
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        p.data -= lr * (m_hat / (np.sqrt(v_hat) + state.eps) + state.weight_decay * p.data)


@dataclass(frozen=True)
class CosineSchedule:
    """Half-cosine decay from base_lr to min_lr over total_steps."""

    base_lr: float
    total_steps: int
    min_lr: float = 0.0

    def __post_init__(self):
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if not 0.0 <= self.min_lr <= self.base_lr:
            raise ValueError("need 0 <= min_lr <= base_lr")


def cosine_lr(schedule: CosineSchedule, step: int) -> float:
    if not 0 <= step <= schedule.total_steps:
        raise StepOutOfRange(f"step {step} outside [0, {schedule.total_steps}]")
    span = schedule.base_lr - schedule.min_lr
    return schedule.min_lr + 0.5 * span * (1.0 + math.cos(math.pi * step / schedule.total_steps))


def dropout_mask(
    shape: tuple[int, ...],
    rate: float,
    rng: np.random.Generator,
    training: bool = True,
) -> Tensor:
    """Inverted dropout: Bernoulli(1-rate)/(1-rate) when training, else ones."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return Tensor(np.ones(shape))
    keep = rng.random(shape) >= rate
    return Tensor(keep / (1.0 - rate))


# -- checkpoints ----------------------------------------------------------
#
# Layout (version 2): the magic line, one sorted-keys JSON header line, then
# one raw little-endian float64 blob. The blob holds the parameters in
# `params` order, then, when the header carries `adam`, the first and the
# second moments in the same order. The header's `params` lists
# `[name, shape, offset]`, offsets counting float64 elements into the blob.


def save_checkpoint(
    path: str | Path,
    params: dict[str, Tensor],
    adam: Optional[AdamState] = None,
    step: int = 0,
    extra: Optional[dict] = None,
) -> None:
    """Write parameters (+ optional Adam state) as a header plus a float64 blob.

    A parameter without Adam moments is written with zero moments, which is
    the state `adam_step` starts from.
    """
    layout, offset = [], 0
    for name, p in params.items():
        layout.append([name, list(p.data.shape), offset])
        offset += p.data.size
    header: dict = {
        "version": CHECKPOINT_VERSION,
        "step": step,
        "extra": extra or {},
        "dtype": CHECKPOINT_DTYPE,
        "params": layout,
    }
    arrays = [p.data for p in params.values()]
    if adam is not None:
        header["adam"] = {
            "beta1": adam.beta1,
            "beta2": adam.beta2,
            "eps": adam.eps,
            "weight_decay": adam.weight_decay,
            "t": adam.t,
        }
        for moments in (adam.m, adam.v):
            arrays += [moments[name] if name in moments else np.zeros_like(p.data)
                       for name, p in params.items()]
    with open(path, "wb") as fh:
        fh.write(f"{CHECKPOINT_MAGIC}\n{json.dumps(header, sort_keys=True)}\n".encode())
        for a in arrays:
            np.ascontiguousarray(a, dtype=CHECKPOINT_DTYPE).tofile(fh)


def load_checkpoint(path: str | Path) -> tuple[dict[str, Tensor], Optional[AdamState], int, dict]:
    """Inverse of save_checkpoint.

    Reads the blob with one read; every returned array is a view into it.
    Raises BadCheckpoint for a foreign file, an older version or a blob
    whose length disagrees with the header.
    """
    magic = f"{CHECKPOINT_MAGIC}\n".encode()
    with open(path, "rb") as fh:
        if fh.readline(len(magic)) != magic:
            fh.seek(0)
            raise BadCheckpoint(path, _foreign_reason(fh))
        try:
            header = json.loads(fh.readline())
        except ValueError as exc:
            raise BadCheckpoint(path, f"unreadable header: {exc}") from exc
        if header.get("version") != CHECKPOINT_VERSION:
            raise BadCheckpoint(path, f"unsupported checkpoint version {header.get('version')}")
        if header.get("dtype") != CHECKPOINT_DTYPE:
            raise BadCheckpoint(path, f"unsupported dtype {header.get('dtype')}")
        n = 0
        for name, shape, offset in header["params"]:
            if offset != n:
                raise BadCheckpoint(path, f"parameter {name} at offset {offset}, expected {n}")
            n += math.prod(shape)
        count = 3 * n if "adam" in header else n
        nbytes = os.fstat(fh.fileno()).st_size - fh.tell()
        if nbytes != 8 * count:
            raise BadCheckpoint(
                path, f"truncated or padded blob: {nbytes} bytes, header needs {8 * count}")
        blob = np.fromfile(fh, dtype=CHECKPOINT_DTYPE, count=count)

    def views(base: int) -> dict[str, np.ndarray]:
        return {
            name: blob[base + off:base + off + math.prod(shape)].reshape(shape)
            for name, shape, off in header["params"]
        }

    params = {
        name: Tensor(data, requires_grad=True, name=name) for name, data in views(0).items()
    }
    adam = None
    if "adam" in header:
        a = header["adam"]
        adam = AdamState(
            beta1=a["beta1"], beta2=a["beta2"], eps=a["eps"],
            weight_decay=a["weight_decay"], t=a["t"], m=views(n), v=views(2 * n),
        )
    return params, adam, header["step"], header["extra"]


def _foreign_reason(fh) -> str:
    """Why a file without the magic line is not read: an old version or foreign."""
    if fh.read(1) == b"{":
        fh.seek(0)
        try:
            doc = json.load(fh)
        except ValueError:
            doc = None
        if isinstance(doc, dict) and doc.get("magic") == CHECKPOINT_MAGIC:
            return (f"checkpoint version {doc.get('version')} is no longer read; "
                    "rerun `sacloc train`")
    return "not a sacloc checkpoint"
