"""Dense float32/float64 tensors with reverse-mode automatic differentiation.

A `Tape` records every primitive application in execution order; its one
reverse sweep, `gradients` (alias `backward`), walks the records in reverse
and writes each recorded `requires_grad` leaf's gradient into `Tensor.grad`,
which gets a zeroed array if it has none. A leaf's first contribution in a
sweep lands there (a weight's matmul partial through `out=`), later ones are
added in place in arrival order, and a leaf the sweep does not reach is
zero-filled: every sweep overwrites, nothing accumulates across sweeps. The
trainer binds each `grad` to its view of one flat buffer. Constants
(`requires_grad=False` leaves) never receive gradients and their partials
are not computed.

Primitives keep their inputs' dtype. Training records its tape in float32
(weights, inputs, masks and gradients alike; only the loss sums in
float64), while evaluation, calibration and prediction run in float64.

Besides the 2-D algebra, two primitives serve multi-head layers whose heads
sit side by side in the columns: `multi_head_attention` (per-head masked
softmax attention as one batched matmul, with a hand-written backward) and
`head_mean`. The masked softmax and its backward are shared with
`masked_row_softmax`.

Also houses the optimizer pieces the trainer needs: bias-corrected Adam
with decoupled weight decay over one flat float64 master buffer (updated in
place, block by block, with moments in the gradients' dtype and a float32
working copy of the parameters rewritten in the same pass; the model that
owns the buffer cuts its weights from it with `flat_views`), a cosine
learning-rate schedule, float32 inverted dropout masks, and a versioned
binary checkpoint format (a JSON header line plus one raw float64 blob,
written one parameter array at a time).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import BadCheckpoint, NonScalarLoss, ShapeMismatch, StepOutOfRange

CHECKPOINT_MAGIC = "sacloc-checkpoint"
CHECKPOINT_VERSION = 2
CHECKPOINT_DTYPE = "<f8"


class Tensor:
    """A float32 or float64 array plus the gradient array a reverse sweep
    writes. float32 and float64 arrays are kept as they are; anything else
    (ints, lists, float16) becomes float64."""

    __slots__ = ("data", "requires_grad", "grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        data = np.asarray(data)
        self.data = data if data.dtype.char in "fd" else data.astype(np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.data.shape}, requires_grad={self.requires_grad})"


def _check(cond: bool, what: str, *shapes: tuple[int, ...]) -> None:
    if not cond:
        raise ShapeMismatch(f"{what}: " + " vs ".join(str(s) for s in shapes))


def _masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax along the last axis over the True entries of the boolean `mask`
    (broadcast against `logits`); rows without a True entry are zeros."""
    masked = np.where(mask, logits, -np.inf)
    rowmax = np.max(masked, axis=-1, keepdims=True)
    rowmax = np.where(np.isfinite(rowmax), rowmax, 0.0)
    e = np.exp(masked - rowmax)
    denom = e.sum(axis=-1, keepdims=True)
    return np.divide(e, denom, out=np.zeros_like(e), where=denom > 0.0)


def _softmax_backward(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """d(loss)/d(logits) of `_masked_softmax`, given its output and d(loss)/d(p)."""
    inner = (g * p).sum(axis=-1, keepdims=True)
    return p * (g - inner)


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
        # the leaves whose grad the current sweep has written
        self._filled: set[Tensor] = set()

    def _needs(self, t: Tensor) -> bool:
        return t.requires_grad or id(t) in self._on_tape

    def _push(self, out: Tensor, inputs: tuple[Tensor, ...], backward: Callable) -> Tensor:
        if not self.record:
            return out
        # `_needs` inlined here and in `gradients`: both run for every input
        # of every primitive, and the call costs show at desk scale
        on_tape = self._on_tape
        for t in inputs:
            if t.requires_grad or id(t) in on_tape:
                break
        else:
            return out
        self._nodes.append((out, inputs, backward))
        on_tape.add(id(out))
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
        # closed over instead of the tape: a closure holding `self` would make
        # a reference cycle that keeps every dead tape's activations alive
        filled = self._filled

        def backward(g):
            ga = g @ b.data.T if need_a else None
            if not b.requires_grad or b in filled:
                return ga, (a.data.T @ g if need_b else None)
            np.matmul(a.data.T, g, out=b.grad)
            filled.add(b)
            return ga, None

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
        p = _masked_softmax(logits.data, mask.astype(bool))
        return self._push(Tensor(p), (logits,), lambda g: (_softmax_backward(p, g),))

    def multi_head_attention(
        self, q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray, n_heads: int
    ) -> Tensor:
        """Per-head masked scaled dot-product attention -> (B, H*d).

        `q` is (B, H*d), `k` and `v` are (n, H*d); head i owns columns
        [i*d, (i+1)*d) of each. Row b of head i is softmax(q_i k_iᵀ/√d) over
        the True entries of `mask[b]` (an all-False row gives zeros), times
        v_i. The heads run as one batched matmul over (H, ·, d) views.
        """
        _check(q.data.ndim == 2 and k.data.ndim == 2 and k.shape == v.shape
               and q.shape[1] == k.shape[1] and q.shape[1] % n_heads == 0
               and mask.shape == (q.shape[0], k.shape[0]),
               "multi_head_attention", q.shape, k.shape, v.shape, mask.shape)
        width = q.shape[1]
        d = width // n_heads
        inv_sqrt = 1.0 / math.sqrt(d)

        def heads(x: np.ndarray) -> np.ndarray:  # (rows, H*d) -> (H, rows, d) view
            return x.reshape(len(x), n_heads, d).transpose(1, 0, 2)

        def merged(x: np.ndarray) -> np.ndarray:  # (H, rows, d) -> (rows, H*d)
            return np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(x.shape[1], width)

        qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
        p = _masked_softmax(np.matmul(qh, kh.transpose(0, 2, 1)) * inv_sqrt,
                            mask.astype(bool))
        out = Tensor(merged(np.matmul(p, vh)))
        need_q, need_k, need_v = self._needs(q), self._needs(k), self._needs(v)

        def backward(g):
            gh = heads(g)
            dlogits = _softmax_backward(p, np.matmul(gh, vh.transpose(0, 2, 1))) * inv_sqrt
            return (merged(np.matmul(dlogits, kh)) if need_q else None,
                    merged(np.matmul(dlogits.transpose(0, 2, 1), qh)) if need_k else None,
                    merged(np.matmul(p.transpose(0, 2, 1), gh)) if need_v else None)

        return self._push(out, (q, k, v), backward)

    def head_mean(self, x: Tensor, n_heads: int) -> Tensor:
        """(B, H*d) -> (B, d): the heads summed in order, then scaled by 1/H."""
        _check(x.data.ndim == 2 and x.shape[1] % n_heads == 0, "head_mean", x.shape)
        d = x.shape[1] // n_heads
        total = x.data[:, :d].copy()
        for i in range(1, n_heads):
            total += x.data[:, i * d:(i + 1) * d]
        inv = 1.0 / n_heads
        return self._push(Tensor(total * inv), (x,), lambda g: (np.tile(g * inv, n_heads),))

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
        """The sum of every entry, accumulated in float64."""
        out = Tensor(a.data.sum(dtype=np.float64))
        return self._push(out, (a,), lambda g: (np.full_like(a.data, float(g)),))

    def mean_all(self, a: Tensor) -> Tensor:
        out = Tensor(a.data.mean())
        return self._push(out, (a,), lambda g: (np.full_like(a.data, float(g) / a.data.size),))

    # -- reverse pass ------------------------------------------------------

    def gradients(self, loss: Tensor) -> None:
        """Reverse sweep: d(loss)/d(leaf) into the `grad` of each recorded leaf."""
        if loss.data.size != 1:
            raise NonScalarLoss(f"loss has shape {loss.shape}")
        leaves = self._leaves.values()
        for leaf in leaves:
            if leaf.grad is None:
                leaf.grad = np.zeros_like(leaf.data)
        flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        on_tape, filled = self._on_tape, self._filled
        filled.clear()
        for out, inputs, backward in reversed(self._nodes):
            g = flowing.pop(id(out), None)
            if g is None:
                continue
            for t, gt in zip(inputs, backward(g)):
                if gt is None:
                    continue
                if t.requires_grad:
                    # copied, never bound: `add` hands one array to both inputs
                    if t in filled:
                        t.grad += gt
                    else:
                        np.copyto(t.grad, gt)
                        filled.add(t)
                elif id(t) in on_tape:
                    key = id(t)
                    flowing[key] = flowing[key] + gt if key in flowing else gt
        for leaf in leaves:
            if leaf not in filled:
                leaf.grad.fill(0.0)

    backward = gradients


# -- optimizer ------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment buffers, flat like the parameters and in the
    gradients' dtype (allocated by the first `adam_step`), plus the step
    counter. `working` is the float32 copy of the parameters that every
    `adam_step` rewrites (a float32 tape trains on it); `scratch` holds
    `adam_step`'s block temporaries. Neither is written to checkpoints."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    t: int = 0
    m: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    working: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    scratch: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)


# Elements per block of `adam_step`: a block's two scratch rows (at most
# 512 KB) stay in cache, where whole-array temporaries of a 2 MB weight do not.
ADAM_BLOCK = 32768


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
) -> None:
    """One bias-corrected Adam update with decoupled weight decay (AdamW).

    `params` (the master copy) and `grads` are (P,) buffers, every parameter
    at once (Adam is elementwise). The moments and the block temporaries
    take the gradients' dtype, so float32 gradients keep float32 moments.
    Both bias corrections are folded into the step size and epsilon
    (Kingma & Ba, arXiv 1412.6980, §2), which leaves one divide and one
    sqrt per element. In place, block by block, in the operation order of
    the whole-array expression

        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        p = p*(1 - lr*wd) - (m/(sqrt(v) + eps*sqrt(bc2))) * (lr*sqrt(bc2)/bc1)

    so the result is bit for bit the one that expression gives. Each block
    then writes its slice of `state.working`, the float32 copy of `params`.
    """
    if lr < 0:
        raise ValueError("lr must be nonnegative")
    if params.ndim != 1 or grads.shape != params.shape:
        raise ShapeMismatch(f"adam_step: grads {grads.shape} vs params {params.shape}")
    if state.m is None:  # zero moments on the first step only
        state.m, state.v = np.zeros_like(grads), np.zeros_like(grads)
    elif state.m.shape != params.shape or state.v.shape != params.shape:
        raise ShapeMismatch(f"adam_step: moments {state.m.shape} vs params {params.shape}")
    if state.working is None:
        state.working = np.empty(params.shape, dtype=np.float32)
    elif state.working.shape != params.shape:
        raise ShapeMismatch(
            f"adam_step: working copy {state.working.shape} vs params {params.shape}")
    if state.scratch is None:
        state.scratch = np.empty((2, ADAM_BLOCK), dtype=grads.dtype)
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    root_bc2 = math.sqrt(1.0 - b2 ** state.t)
    step = lr * root_bc2 / (1.0 - b1 ** state.t)
    eps = state.eps * root_bc2
    decay = 1.0 - lr * state.weight_decay
    scratch, working = state.scratch, state.working
    for lo in range(0, params.size, ADAM_BLOCK):
        s = slice(lo, lo + ADAM_BLOCK)
        pb, gb, mb, vb = params[s], grads[s], state.m[s], state.v[s]
        t1, t2 = scratch[0, :pb.size], scratch[1, :pb.size]
        mb *= b1
        mb += np.multiply(1.0 - b1, gb, out=t1)
        vb *= b2
        np.multiply(1.0 - b2, gb, out=t1)
        vb += np.multiply(t1, gb, out=t1)
        np.sqrt(vb, out=t2)
        t2 += eps
        np.divide(mb, t2, out=t1)
        t1 *= step
        pb *= decay
        pb -= t1
        working[s] = pb


# -- flat parameter views ---------------------------------------------------


def flat_views(buffer: np.ndarray, shapes: Iterable[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive slices of the 1-D `buffer`, from its start, reshaped to `shapes`."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buffer[offset:offset + size].reshape(shape))
        offset += size
    return views


@dataclass(frozen=True)
class CosineSchedule:
    """Half-cosine decay from base_lr to 0 over total_steps."""

    base_lr: float
    total_steps: int

    def __post_init__(self):
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if self.base_lr < 0.0:
            raise ValueError("base_lr must be nonnegative")


def cosine_lr(schedule: CosineSchedule, step: int) -> float:
    if not 0 <= step <= schedule.total_steps:
        raise StepOutOfRange(f"step {step} outside [0, {schedule.total_steps}]")
    return 0.5 * schedule.base_lr * (1.0 + math.cos(math.pi * step / schedule.total_steps))


def dropout_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout in float32, the dtype of the rows it multiplies in
    training: Bernoulli(1-rate) times 1/(1-rate) rounded to float32, all
    ones at rate 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return Tensor(np.ones(shape, dtype=np.float32))
    keep = rng.random(shape) >= rate
    return Tensor(np.multiply(keep, 1.0 / (1.0 - rate), dtype=np.float32))


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

    The blob is each parameter array in `params` order, then the two (P,)
    moment buffers: the same bytes as one buffer holding the parameters
    back to back. A state before its first step is written with zero
    moments, the state `adam_step` starts from.
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
        moments = (adam.m, adam.v) if adam.m is not None else (np.zeros(offset),) * 2
        _check(all(a.shape == (offset,) for a in moments),
               "save_checkpoint moments", *(a.shape for a in moments), (offset,))
        arrays += moments
    with open(path, "wb") as fh:
        fh.write(f"{CHECKPOINT_MAGIC}\n{json.dumps(header, sort_keys=True)}\n".encode())
        for a in arrays:
            np.ascontiguousarray(a, dtype=CHECKPOINT_DTYPE).tofile(fh)


def read_checkpoint(path: str | Path) -> tuple[dict, np.ndarray, int]:
    """The header, the whole blob (one read) and the parameter count P of a
    checkpoint file.

    Raises BadCheckpoint for a foreign file, an older version, parameters
    that are not back to back in header order, or a blob whose length
    disagrees with the header.
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
        return header, np.fromfile(fh, dtype=CHECKPOINT_DTYPE, count=count), n


def load_checkpoint(path: str | Path) -> tuple[dict[str, Tensor], Optional[AdamState], int, dict]:
    """Inverse of save_checkpoint, through `read_checkpoint`.

    Every returned array is a view into the blob: the parameters in header
    order, then the moments as two (P,) buffers.
    """
    header, blob, n = read_checkpoint(path)
    views = flat_views(blob, [shape for _, shape, _ in header["params"]])
    params = {
        name: Tensor(data, requires_grad=True, name=name)
        for (name, _, _), data in zip(header["params"], views)
    }
    adam = None
    if "adam" in header:
        a = header["adam"]
        adam = AdamState(
            beta1=a["beta1"], beta2=a["beta2"], eps=a["eps"],
            weight_decay=a["weight_decay"], t=a["t"], m=blob[n:2 * n], v=blob[2 * n:],
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
