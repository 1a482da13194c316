"""Dense float32/float64 tensors with reverse-mode automatic differentiation.

A `Tape` records every primitive application in execution order; its one
reverse sweep, `gradients` (alias `backward`), walks the records in reverse
and writes each recorded `requires_grad` leaf's gradient into `Tensor.grad`,
which gets a zeroed array if it has none. A leaf's first contribution in a
sweep lands there: a weight's `matmul` or `head_products` partial is written
into it through `out=`, any other is copied. Later ones are added in place in
arrival order, and a leaf the sweep does not reach is zero-filled: every
sweep overwrites, nothing accumulates across sweeps. The trainer binds each
`grad` to its view of one flat buffer. Constants
(`requires_grad=False` leaves) never receive gradients and their partials
are not computed.

Primitives keep their inputs' dtype. Training records its tape in float32
(weights, inputs, masks and gradients alike; only the loss sums in
float64), while evaluation, calibration and prediction run in float64.

Besides the 2-D algebra, three primitives serve multi-head layers whose
heads sit side by side in the columns: `multi_head_attention` (per-head
masked softmax attention as one batched matmul, with a hand-written
backward; the key width may differ from the value width), `head_products`
(each head's product of two operands' column blocks) and `head_mean`. The
masked softmax and its backward are shared with `masked_row_softmax`. Their
per-head results are written through the head view of one (rows, H*w)
buffer, never merged by a copy. `affine` is the output map x * scale +
offset as one node, its constant (c,) scale and offset broadcast over the
rows.

A warm single-scan forward is mostly per-call glue around small arrays, so
the primitives keep it small without changing a bit of any result. Only
arrays a primitive has just made are written in place: the masked
softmax's one buffer (the subtract, exp and divide after the masking
`where`), the attention's logits (scaled) and its backward's logit
gradient (the product with p, then the scale), and `head_mean`'s sum of
the first two heads (the later heads, then 1/H). `relu` forms its mask in
the backward, and the primitives that work out which partials they need
(`matmul`, `mul`, `multi_head_attention`, `head_products`) skip that on a
no-record tape. Shape checks read the shapes only to report a failure.

Also houses the optimizer pieces the trainer needs: bias-corrected Adam
with decoupled weight decay over one flat parameter buffer, updated in
place, block by block, in the buffer's own dtype, with moments in the
gradients' dtype (the trainer steps the float32 buffer its tape reads; the
model that owns the buffer cuts its weights from it with `flat_views`), a
cosine learning rate, float32 inverted dropout masks, and a versioned binary
checkpoint format holding the weights only (a JSON header line plus one raw
float64 blob, written one parameter array at a time). Optimizer state lives
only inside one training run and is never written.
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


def _check(cond: bool, what: str, *operands) -> None:
    """ShapeMismatch naming `what` and the shapes of `operands` (Tensors or
    arrays) unless `cond`; the shapes are read only when it fails."""
    if not cond:
        raise ShapeMismatch(f"{what}: " + " vs ".join(str(x.shape) for x in operands))


def _masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax along the last axis over the True entries of the boolean `mask`
    (broadcast against `logits`); rows without a True entry are zeros.

    Bit for bit the expression

        masked = where(mask, logits, -inf);  rowmax = max(masked)
        e = exp(masked - where(isfinite(rowmax), rowmax, 0))
        e / where(sum(e) > 0, sum(e), 1)

    evaluated in one fresh buffer: after the `where`, the subtract, the exp
    and the divide run in place, the same elementwise operations in the same
    order, so NaN, ±inf and signed zeros come out as that expression gives
    them. `logits` is not written."""
    out = np.where(mask, logits, -np.inf)
    rowmax = out.max(axis=-1, keepdims=True)
    np.copyto(rowmax, 0.0, where=~np.isfinite(rowmax))
    out -= rowmax
    np.exp(out, out=out)
    denom = out.sum(axis=-1, keepdims=True)
    # an all-False row is zero throughout, so dividing it by 1 keeps it zero;
    # `~(denom > 0)`, not `denom <= 0`, also sends a NaN sum to 1
    np.copyto(denom, 1.0, where=~(denom > 0.0))
    out /= denom
    return out


def _softmax_backward(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """d(loss)/d(logits) of `_masked_softmax`, given its output and d(loss)/d(p)."""
    inner = (g * p).sum(axis=-1, keepdims=True)
    out = g - inner
    out *= p
    return out


def _heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(rows, H*w) -> the (H, rows, w) view, head i from columns [i*w, (i+1)*w)."""
    return x.reshape(len(x), n_heads, x.shape[1] // n_heads).transpose(1, 0, 2)


def _head_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (H, rows, w) stack `a @ b` as (rows, H*w), head i in columns
    [i*w, (i+1)*w): written through the `_heads` view of a fresh buffer, so
    no (H, rows, w) result is copied into place."""
    n_heads, rows, _ = a.shape
    out = np.empty((rows, n_heads * b.shape[2]), dtype=np.result_type(a, b))
    np.matmul(a, b, out=_heads(out, n_heads))
    return out


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
        ad, bd = a.data, b.data
        _check(ad.ndim == 2 and bd.ndim == 2 and ad.shape[1] == bd.shape[0], "matmul", a, b)
        out = Tensor(ad @ bd)
        if not self.record:
            return out
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
        _check(a.data.ndim == 2, "transpose", a)
        out = Tensor(np.ascontiguousarray(a.data.T))
        return self._push(out, (a,), lambda g: (np.ascontiguousarray(g.T),))

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        _check(a.data.shape == b.data.shape, "add", a, b)
        out = Tensor(a.data + b.data)
        return self._push(out, (a, b), lambda g: (g, g))

    def add_bias(self, x: Tensor, b: Tensor) -> Tensor:
        """Row-broadcast bias: (n, h) + (h,)."""
        xd, bd = x.data, b.data
        _check(xd.ndim == 2 and bd.ndim == 1 and xd.shape[1] == bd.shape[0], "add_bias", x, b)
        out = Tensor(xd + bd[None, :])
        return self._push(out, (x, b), lambda g: (g, g.sum(axis=0)))

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        _check(a.data.shape == b.data.shape, "mul", a, b)
        out = Tensor(a.data * b.data)
        if not self.record:
            return out
        need_a, need_b = self._needs(a), self._needs(b)

        def backward(g):
            return (g * b.data if need_a else None,
                    g * a.data if need_b else None)

        return self._push(out, (a, b), backward)

    def scale(self, a: Tensor, c: float) -> Tensor:
        out = Tensor(a.data * c)
        return self._push(out, (a,), lambda g: (g * c,))

    def relu(self, a: Tensor) -> Tensor:
        out = np.maximum(a.data, 0.0)
        # the mask is made by the backward: a no-record tape never needs it
        return self._push(Tensor(out), (a,), lambda g: (g * (out > 0.0),))

    def abs(self, a: Tensor) -> Tensor:
        out = Tensor(np.abs(a.data))
        sign = np.sign(a.data)
        return self._push(out, (a,), lambda g: (g * sign,))

    def masked_row_softmax(self, logits: Tensor, mask: np.ndarray) -> Tensor:
        """Softmax over the True entries of each row; all-False rows -> zeros."""
        _check(logits.data.ndim == 2 and mask.shape == logits.data.shape,
               "masked_row_softmax", logits, mask)
        p = _masked_softmax(logits.data, mask.astype(bool))
        return self._push(Tensor(p), (logits,), lambda g: (_softmax_backward(p, g),))

    def multi_head_attention(
        self, q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray, n_heads: int
    ) -> Tensor:
        """Per-head masked scaled dot-product attention -> (B, H*d).

        `q` is (B, H*w) and `k` (n, H*w), head i in columns [i*w, (i+1)*w);
        `v` is (n, H*d), head i in columns [i*d, (i+1)*d). The key width w
        may differ from the value width d; the scale follows d, so keys of
        width 3 keep a width-d model's 1/√d. Row b of head i is
        softmax(q_i k_iᵀ/√d) over the True entries of `mask[b]` (an
        all-False row gives zeros), times v_i. The heads run as one batched
        matmul over (H, ·, ·) views.
        """
        qd, kd, vd = q.data, k.data, v.data
        _check(qd.ndim == 2 and kd.ndim == 2 and vd.ndim == 2
               and qd.shape[1] == kd.shape[1] and kd.shape[0] == vd.shape[0]
               and qd.shape[1] % n_heads == 0 and vd.shape[1] % n_heads == 0
               and mask.shape == (qd.shape[0], kd.shape[0]),
               "multi_head_attention", q, k, v, mask)
        scale = 1.0 / math.sqrt(vd.shape[1] // n_heads)
        qh, kh, vh = _heads(qd, n_heads), _heads(kd, n_heads), _heads(vd, n_heads)
        logits = np.matmul(qh, kh.transpose(0, 2, 1))
        logits *= scale
        p = _masked_softmax(logits, np.asarray(mask, dtype=bool))
        out = Tensor(_head_matmul(p, vh))
        if not self.record:
            return out
        need_q, need_k, need_v = self._needs(q), self._needs(k), self._needs(v)

        def backward(g):
            gh = _heads(g, n_heads)
            dlogits = _softmax_backward(p, np.matmul(gh, vh.transpose(0, 2, 1)))
            dlogits *= scale
            return (_head_matmul(dlogits, kh) if need_q else None,
                    _head_matmul(dlogits.transpose(0, 2, 1), qh) if need_k else None,
                    _head_matmul(p.transpose(0, 2, 1), gh) if need_v else None)

        return self._push(out, (q, k, v), backward)

    def head_products(self, a: Tensor, b: Tensor, n_heads: int) -> Tensor:
        """Each head's a_i b_iᵀ side by side -> (n, H*k).

        `a` is (n, H*d) and `b` (k, H*d), head i in columns [i*d, (i+1)*d);
        head i of the result is the (n, k) product in columns [i*k, (i+1)*k),
        one batched matmul over (H, ·, d) views. As in `matmul`, a weight's
        first partial of a sweep is written straight into its `grad`.
        """
        ad, bd = a.data, b.data
        _check(ad.ndim == 2 and bd.ndim == 2 and ad.shape[1] == bd.shape[1]
               and ad.shape[1] % n_heads == 0, "head_products", a, b)
        ah, bh = _heads(ad, n_heads), _heads(bd, n_heads)
        out = Tensor(_head_matmul(ah, bh.transpose(0, 2, 1)))
        if not self.record:
            return out
        need_a, need_b = self._needs(a), self._needs(b)
        filled = self._filled

        def partial(x, gh, other):
            """x's partial, the heads' gh @ other: into `x.grad` if it is the
            first of the sweep for a weight, else returned to the sweep."""
            if not x.requires_grad or x in filled:
                return _head_matmul(gh, other)
            np.matmul(gh, other, out=_heads(x.grad, n_heads))
            filled.add(x)
            return None

        def backward(g):
            gh = _heads(g, n_heads)
            return (partial(a, gh, bh) if need_a else None,
                    partial(b, gh.transpose(0, 2, 1), ah) if need_b else None)

        return self._push(out, (a, b), backward)

    def head_mean(self, x: Tensor, n_heads: int) -> Tensor:
        """(B, H*d) -> (B, d): the heads summed in order, then scaled by 1/H.

        Bit for bit ((x_0 + x_1) + x_2 + ...) * (1/H), in one fresh buffer.
        Not a `reshape(B, H, d).sum(axis=1)`: that reduction starts from
        +0.0, so a column that is -0.0 in every head comes out +0.0, and
        from 8 heads on numpy sums pairwise, in another order."""
        data = x.data
        _check(data.ndim == 2 and data.shape[1] % n_heads == 0, "head_mean", x)
        d = data.shape[1] // n_heads
        total = data[:, :d] + data[:, d:2 * d] if n_heads > 1 else data.copy()
        for i in range(2, n_heads):
            total += data[:, i * d:(i + 1) * d]
        inv = 1.0 / n_heads
        total *= inv
        return self._push(Tensor(total), (x,), lambda g: (np.tile(g * inv, n_heads),))

    def affine(self, x: Tensor, scale: np.ndarray, offset: np.ndarray) -> Tensor:
        """(B, c) * scale + offset, with the constant (c,) `scale` and
        `offset` broadcast over the rows: one node, whose backward is g * scale."""
        data = x.data
        _check(data.ndim == 2 and scale.shape == offset.shape == (data.shape[1],),
               "affine", x, scale, offset)
        out = data * scale
        out += offset
        return self._push(Tensor(out), (x,), lambda g: (g * scale,))

    def select_rows(self, x: Tensor, idx: np.ndarray) -> Tensor:
        _check(x.data.ndim == 2, "select_rows", x)
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
            _check(p.data.ndim == 2 and p.shape[1] == cols, "concat_rows", p)
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


# Adam's betas and epsilon (Kingma & Ba, arXiv 1412.6980, §2).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """AdamW's state for one training run: the decoupled `weight_decay`,
    with the betas and epsilon the constants `ADAM_BETA1`, `ADAM_BETA2` and
    `ADAM_EPS`. `m` and `v` are the first/second moment buffers, flat like
    the parameters and in the gradients' dtype (allocated by the first
    `adam_step`), and `t` the step counter; `scratch` holds `adam_step`'s
    block temporaries."""

    weight_decay: float = 0.0
    t: int = field(default=0, init=False)
    m: Optional[np.ndarray] = field(default=None, init=False)
    v: Optional[np.ndarray] = field(default=None, init=False)
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

    `params` and `grads` are (P,) buffers, every parameter at once (Adam is
    elementwise). `params` is updated in its own dtype: a float32 buffer
    stays float32, rounded once per step. The moments and the block
    temporaries take the gradients' dtype, so float32 gradients keep
    float32 moments.
    Both bias corrections are folded into the step size and epsilon
    (Kingma & Ba, arXiv 1412.6980, §2), which leaves one divide and one
    sqrt per element. In place, block by block, in the operation order of
    the whole-array expression

        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        p = p*(1 - lr*wd) - (m/(sqrt(v) + eps*sqrt(bc2))) * (lr*sqrt(bc2)/bc1)

    so the result is bit for bit the one that expression gives.
    """
    if lr < 0:
        raise ValueError("lr must be nonnegative")
    if params.ndim != 1 or grads.shape != params.shape:
        raise ShapeMismatch(f"adam_step: grads {grads.shape} vs params {params.shape}")
    if state.m is None:  # zero moments on the first step only
        state.m, state.v = np.zeros_like(grads), np.zeros_like(grads)
    elif state.m.shape != params.shape or state.v.shape != params.shape:
        raise ShapeMismatch(f"adam_step: moments {state.m.shape} vs params {params.shape}")
    if state.scratch is None:
        state.scratch = np.empty((2, ADAM_BLOCK), dtype=grads.dtype)
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    root_bc2 = math.sqrt(1.0 - b2 ** state.t)
    step = lr * root_bc2 / (1.0 - b1 ** state.t)
    eps = ADAM_EPS * root_bc2
    decay = 1.0 - lr * state.weight_decay
    scratch = state.scratch
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


# -- flat parameter views ---------------------------------------------------


def flat_views(buffer: np.ndarray, shapes: Iterable[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive slices of the 1-D `buffer`, from its start, reshaped to `shapes`."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buffer[offset:offset + size].reshape(shape))
        offset += size
    return views


def cosine_lr(base_lr: float, total_steps: int, step: int) -> float:
    """Half-cosine decay from base_lr at step 0 to 0 at total_steps."""
    if not 0 <= step <= total_steps:
        raise StepOutOfRange(f"step {step} outside [0, {total_steps}]")
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * step / total_steps))


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
# one raw little-endian float64 blob holding the parameters in `params`
# order. The header's `params` lists `[name, shape, offset]`, offsets
# counting float64 elements into the blob.


def save_checkpoint(
    path: str | Path,
    params: dict[str, Tensor],
    step: int,
    extra: dict,
    adam: None = None,
) -> None:
    """Write the parameters as a header plus a float64 blob.

    The blob is each parameter array in `params` order: the same bytes as
    one buffer holding the parameters back to back. A checkpoint is the
    weights only, so `adam` must be None.
    """
    # perfbench's worker still passes `adam=`, the None `load_checkpoint` gives
    if adam is not None:
        raise TypeError("save_checkpoint writes no optimizer state; adam must be None")
    layout, offset = [], 0
    for name, p in params.items():
        layout.append([name, list(p.data.shape), offset])
        offset += p.data.size
    header: dict = {
        "version": CHECKPOINT_VERSION,
        "step": step,
        "extra": extra,
        "dtype": CHECKPOINT_DTYPE,
        "params": layout,
    }
    with open(path, "wb") as fh:
        fh.write(f"{CHECKPOINT_MAGIC}\n{json.dumps(header, sort_keys=True)}\n".encode())
        for p in params.values():
            np.ascontiguousarray(p.data, dtype=CHECKPOINT_DTYPE).tofile(fh)


def is_json_int(x, low: int) -> bool:
    """Whether the decoded JSON value `x` is an integer (not a boolean) >= low."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= low


def is_json_number(x) -> bool:
    """Whether the decoded JSON value `x` is a finite number (not a boolean)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def read_checkpoint(path: str | Path) -> tuple[dict, np.ndarray]:
    """The header and the blob (one read) of a checkpoint file; the blob
    holds exactly the P parameter values.

    Raises BadCheckpoint for a foreign file, an older version, a header
    that is not an object with `params`, `step` and `extra`, a `params`
    entry that is not `[name, shape, offset]`, a header with optimizer
    state (`adam`), parameters that are not back to back in header order,
    or a blob whose length disagrees with the header.
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
        if not isinstance(header, dict):
            raise BadCheckpoint(path, "header is not a JSON object")
        if header.get("version") != CHECKPOINT_VERSION:
            raise BadCheckpoint(path, f"unsupported checkpoint version {header.get('version')}")
        if header.get("dtype") != CHECKPOINT_DTYPE:
            raise BadCheckpoint(path, f"unsupported dtype {header.get('dtype')}")
        if "adam" in header:
            raise BadCheckpoint(path, "optimizer state is no longer read; rerun `sacloc train`")
        if not (isinstance(header.get("params"), list) and is_json_int(header.get("step"), 0)
                and isinstance(header.get("extra"), dict)):
            raise BadCheckpoint(
                path, "header needs a `params` list, an integer `step` and an `extra` object")
        n = 0
        for i, entry in enumerate(header["params"]):
            if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)
                    and isinstance(entry[1], list) and all(is_json_int(d, 0) for d in entry[1])
                    and is_json_int(entry[2], 0)):
                raise BadCheckpoint(path, f"params[{i}] is not [name, shape, offset]")
            name, shape, offset = entry
            if offset != n:
                raise BadCheckpoint(path, f"parameter {name} at offset {offset}, expected {n}")
            n += math.prod(shape)
        nbytes = os.fstat(fh.fileno()).st_size - fh.tell()
        if nbytes != 8 * n:
            raise BadCheckpoint(
                path, f"truncated or padded blob: {nbytes} bytes, header needs {8 * n}")
        return header, np.fromfile(fh, dtype=CHECKPOINT_DTYPE, count=n)


def load_checkpoint(path: str | Path) -> tuple[dict[str, Tensor], None, int, dict]:
    """Inverse of save_checkpoint, through `read_checkpoint`: the parameters
    (views into the blob, in header order), None, the step and `extra`."""
    header, blob = read_checkpoint(path)
    views = flat_views(blob, [shape for _, shape, _ in header["params"]])
    params = {
        name: Tensor(data, requires_grad=True, name=name)
        for (name, _, _), data in zip(header["params"], views)
    }
    # perfbench's worker and tracer still take this 4-tuple; the None slot
    # once held the optimizer state
    return params, None, header["step"], header["extra"]


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
