"""Two-layer multi-head graph-transformer regressor and its trainer.

Per layer and head, a node receives an attention-weighted sum of
transformed neighbor features; attention is scaled dot-product over the
neighbor set. The head outputs are averaged, a root transform of the
node's own features is added and the sum is mapped back to the layer
width:

    out = (X @ root + mean_i softmax(Q_i K_i^T / sqrt(d)) V_i) @ merge

A layer keeps one weight per projection. `query`, `key` and `value` fuse
every head, head i in columns [i*d, (i+1)*d), as in the TransformerConv of
Shi et al. (arXiv 2009.03509): each projection is one matmul, and the
heads' attention is one `Tape.multi_head_attention` call. `root` is one
(in, d) weight shared by the heads (PyG's `lin_skip`): per-head roots R_i
averaged over the heads give X @ mean_i R_i, so they would add parameters
and no expressiveness. Node features enter through
per-type linear encoders (user: RSSI vector, APs: 2D coordinates) since
the two node types carry different raw dimensions; the prediction is read
off the user node and mapped to coordinates by a final linear head.

One forward, `forward_batch`, serves training, calibration and single-scan
prediction, on the fields of a `graphbuild.LocGraph` (B user rows and the
AP blocks they share), in two halves. AP nodes never receive messages from the user,
so everything on the AP side is the same for every scan sharing an
inventory: the AP encoder, the layer-1 AP update and the keys and values
both layers attend over. `encode_inventory` computes that inventory
half; the scan half runs only the B user rows through both layers against
those keys and values. Layer-2 AP embeddings are never computed, since
nothing reads them. This equals the block-diagonal batched graph
evaluated without its redundancy, in training as in eval: dropout acts on
the user rows only, so the inventory half is the same in both.

The model owns its parameters: one (P,) float64 buffer, `GtModel.flat`,
whose consecutive slices, in the order and shapes of `_parameter_shapes`,
are the weights. `init_model` draws each weight into its slice of a new
buffer; `load_model` takes the parameter slice of the checkpoint's blob.
Checkpoints write the weights one array at a time, the same bytes as the
buffer.

Training is mixed precision (Micikevicius et al., arXiv 1710.03740): the
tape runs on a float32 model over `AdamState.working`, a float32 copy of
`flat`, with float32 scans, masks, affine and truths, and writes a float32
gradient buffer. Adam keeps float32 moments, updates the float64 `flat` in
one pass and rewrites the float32 copy in the same pass. Evaluation,
calibration, prediction and checkpoints use the float64 `flat`.

Training runs both halves on the tape every step. An eval forward on a
model whose buffer is read-only (what `load_model` returns) keeps
the inventory half on the model and reuses it while the AP features and
adjacency are unchanged, so warm single-scan prediction computes only the
user row. Writeable weights can change between calls without the model
knowing, so a writeable model never keeps it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .autodiff import (
    AdamState,
    CosineSchedule,
    Tape,
    Tensor,
    adam_step,
    cosine_lr,
    dropout_mask,
    flat_views,
    read_checkpoint,
    save_checkpoint,
)
# unused here; perfbench's tracer still patches this name
from .autodiff import load_checkpoint  # noqa: F401
from .dataset import ApInventory, ScanSet, coord_affine
from .errors import (
    BadCheckpoint,
    DimensionMismatch,
    EmptyBatch,
    TrainingDiverged,
)
from .graphbuild import GraphConfig, LocGraph, build_ap_adjacency, build_sample_graph
# unused here; perfbench's tracer still patches this name
from .graphbuild import user_edge_mask  # noqa: F401
from .rng import stream


# The weights of one layer, in checkpoint order.
LAYER_WEIGHTS = ("query", "key", "value", "root", "merge")


@dataclass
class TransformerConvLayer:
    """One layer: every head fused into one weight per attention projection.

    `query`, `key` and `value` are (in_dim, n_heads * head_dim); head i owns
    columns [i * head_dim, (i + 1) * head_dim) of each. `root` is
    (in_dim, head_dim), shared by the heads.
    """

    query: Tensor
    key: Tensor
    value: Tensor  # the message transform
    root: Tensor  # added after the head mean
    merge: Tensor  # (head_dim, out_dim), restores width after head averaging
    n_heads: int

    @property
    def head_dim(self) -> int:
        return self.query.shape[1] // self.n_heads


@dataclass
class NodeEncoders:
    user_w: Tensor  # (m, h)
    user_b: Tensor  # (h,)
    ap_w: Tensor  # (2, h)
    ap_b: Tensor  # (h,)


@dataclass
class GtModel:
    """The model; `_assemble` builds it. `flat` is the (P,) buffer that owns
    every weight: the weights are views of its consecutive slices, in
    `_parameter_shapes` order."""

    encoders: NodeEncoders
    layer1: TransformerConvLayer
    layer2: TransformerConvLayer
    head_w: Tensor  # (h, 2)
    head_b: Tensor  # (2,)
    ap_count: int
    hidden: int
    n_heads: int
    affine_offset: np.ndarray  # (2,) meters
    affine_scale: np.ndarray  # (2,) meters
    flat: np.ndarray = field(repr=False)
    _parameters: dict[str, Tensor] = field(repr=False)
    # (ap_feats_norm, ap_adj, encode_inventory result) of the last eval
    # forward, kept only while `flat` is read-only
    inventory_memo: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False)

    def parameters(self) -> dict[str, Tensor]:
        """Named parameters in buffer order (drives Adam and checkpoints)."""
        return self._parameters


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 64
    base_lr: float = 0.001
    weight_decay: float = 1e-4
    dropout: float = 0.4
    seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.batch_size) < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.base_lr < 0:
            raise ValueError("base_lr must be nonnegative")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


def _parameter_shapes(ap_count: int, hidden: int, n_heads: int) -> dict[str, tuple[int, ...]]:
    """The parameters by checkpoint name, in buffer order, with their shapes:
    the one table of the layout."""
    head_dim = hidden // n_heads
    layer = {"query": (hidden, hidden), "key": (hidden, hidden), "value": (hidden, hidden),
             "root": (hidden, head_dim), "merge": (head_dim, hidden)}
    return {
        "enc.user.w": (ap_count, hidden), "enc.user.b": (hidden,),
        "enc.ap.w": (2, hidden), "enc.ap.b": (hidden,),
        **{f"layer{li}.{wn}": layer[wn] for li in (1, 2) for wn in LAYER_WEIGHTS},
        "head.w": (hidden, 2), "head.b": (2,),
    }


PARAMETER_NAMES = tuple(_parameter_shapes(1, 1, 1))


def _xavier(out: np.ndarray, rng: np.random.Generator) -> None:
    """Fill the contiguous 2-D `out` with the Xavier-uniform draws
    `rng.uniform(-limit, limit, out.shape)` gives, bit for bit."""
    limit = math.sqrt(6.0 / sum(out.shape))
    rng.random(out=out)
    out *= 2.0 * limit
    out -= limit


def _init_layer(layer: TransformerConvLayer, seed: int, tag: str) -> None:
    """Draw a layer's weights in place. Each head's block of a projection is
    drawn from its own stream into its columns; the shared root is the mean
    of the per-head root draws, so a fresh layer computes what per-head
    roots averaged over the heads would."""
    n, d = layer.n_heads, layer.head_dim
    block = np.empty_like(layer.root.data)  # one head's (in_dim, head_dim) draw
    for wn, stream_tag in (("query", "w3"), ("key", "w4"), ("value", "w2")):
        for hi in range(n):
            _xavier(block, stream(seed, "init", tag, hi, stream_tag))
            getattr(layer, wn).data[:, hi * d:(hi + 1) * d] = block
    root = layer.root.data  # summed in head order, then divided: np.mean's bits
    _xavier(root, stream(seed, "init", tag, 0, "w1"))
    for hi in range(1, n):
        _xavier(block, stream(seed, "init", tag, hi, "w1"))
        root += block
    root /= n
    _xavier(layer.merge.data, stream(seed, "init", tag, "merge"))


def init_model(
    ap_count: int,
    inventory_affine: tuple[np.ndarray, np.ndarray],
    hidden: int,
    n_heads: int,
    seed: int,
) -> GtModel:
    """Fresh model with Xavier-uniform weights and zero biases, each weight
    drawn into its view of a new zeroed buffer."""
    if hidden % n_heads != 0:
        raise ValueError(f"head count {n_heads} must divide hidden dim {hidden}")
    size = sum(math.prod(s) for s in _parameter_shapes(ap_count, hidden, n_heads).values())
    model = _assemble(np.zeros(size), ap_count, hidden, n_heads, *inventory_affine)
    for w, tag in ((model.encoders.user_w, "enc.user"), (model.encoders.ap_w, "enc.ap"),
                   (model.head_w, "head")):
        _xavier(w.data, stream(seed, "init", tag))
    _init_layer(model.layer1, seed, "layer1")
    _init_layer(model.layer2, seed, "layer2")
    return model


def _assemble(flat: np.ndarray, ap_count: int, hidden: int, n_heads: int,
              affine_offset, affine_scale) -> GtModel:
    """The model whose parameters are the views of the (P,) `flat`, cut by
    `_parameter_shapes`; its affine takes `flat`'s dtype."""
    shapes = _parameter_shapes(ap_count, hidden, n_heads)
    params = {name: Tensor(view, requires_grad=True, name=name)
              for name, view in zip(shapes, flat_views(flat, shapes.values()))}

    def layer(tag: str) -> TransformerConvLayer:
        return TransformerConvLayer(*(params[f"{tag}.{wn}"] for wn in LAYER_WEIGHTS),
                                    n_heads=n_heads)

    return GtModel(
        encoders=NodeEncoders(
            user_w=params["enc.user.w"], user_b=params["enc.user.b"],
            ap_w=params["enc.ap.w"], ap_b=params["enc.ap.b"],
        ),
        layer1=layer("layer1"),
        layer2=layer("layer2"),
        head_w=params["head.w"],
        head_b=params["head.b"],
        ap_count=ap_count,
        hidden=hidden,
        n_heads=n_heads,
        affine_offset=np.asarray(affine_offset, dtype=flat.dtype),
        affine_scale=np.asarray(affine_scale, dtype=flat.dtype),
        flat=flat,
        _parameters=params,
    )


def model_for_inventory(inventory: ApInventory, hidden: int, n_heads: int, seed: int) -> GtModel:
    return init_model(inventory.count, coord_affine(inventory), hidden, n_heads, seed)


# -- forward passes --------------------------------------------------------


# The keys and the values (n, n_heads * head_dim) of a layer's source rows.
KeysValues = tuple[Tensor, Tensor]


def _keys_values(tape: Tape, layer: TransformerConvLayer, sources: Tensor) -> KeysValues:
    """Keys and values of `sources`, every head at once; they do not depend
    on the targets."""
    return tape.matmul(sources, layer.key), tape.matmul(sources, layer.value)


def _attend(
    tape: Tape,
    layer: TransformerConvLayer,
    targets: Tensor,
    kv: KeysValues,
    adjacency: np.ndarray,
) -> Tensor:
    """Attention aggregation of the sources behind `kv` into `targets` along
    `adjacency` rows, averaged over the heads, plus the root transform;
    rows whose adjacency is empty receive their root transform only."""
    keys, values = kv
    messages = tape.multi_head_attention(
        tape.matmul(targets, layer.query), keys, values, adjacency, layer.n_heads)
    z = tape.add(tape.matmul(targets, layer.root), tape.head_mean(messages, layer.n_heads))
    return tape.matmul(z, layer.merge)


def _dropout(tape: Tape, x: Tensor, mask: Optional[Tensor]) -> Tensor:
    return x if mask is None else tape.mul(x, mask)


def encode_inventory(
    tape: Tape, model: GtModel, ap_feats_norm: np.ndarray, ap_adj: np.ndarray
) -> tuple[KeysValues, KeysValues]:
    """The inventory half of the forward: the keys and values of layers 1 and 2.

    Encodes the AP rows, updates them by layer-1 attention over themselves
    (then relu) and returns the layer-1 keys and values of the encoded rows
    and the layer-2 ones of the updated rows. Dropout never touches them,
    so this is the same function of the weights in training and in eval.
    """
    enc = model.encoders
    aps = tape.add_bias(tape.matmul(Tensor(ap_feats_norm), enc.ap_w), enc.ap_b)
    kv1 = _keys_values(tape, model.layer1, aps)
    aps = tape.relu(_attend(tape, model.layer1, aps, kv1, ap_adj))
    return kv1, _keys_values(tape, model.layer2, aps)


def _pinned(a: np.ndarray) -> np.ndarray:
    """`a` itself when nothing can write to it (read-only and owning its
    data, as the inventory's AP features and `build_ap_adjacency` give it),
    else a read-only copy."""
    if a.flags.writeable or a.base is not None:
        a = np.array(a)
        a.flags.writeable = False
    return a


def _same(pinned: np.ndarray, a: np.ndarray) -> bool:
    return pinned is a or np.array_equal(pinned, a)


def _inventory(
    tape: Tape, model: GtModel, ap_feats_norm: np.ndarray, ap_adj: np.ndarray
) -> tuple[KeysValues, KeysValues]:
    """`encode_inventory`, reused from the model's memo in eval mode when
    every weight is read-only and the AP features and adjacency match: the
    very arrays the memo pinned, or equal ones."""
    if tape.record or model.flat.flags.writeable:
        return encode_inventory(tape, model, ap_feats_norm, ap_adj)
    memo = model.inventory_memo
    if memo is not None and _same(memo[0], ap_feats_norm) and _same(memo[1], ap_adj):
        return memo[2]
    kv = encode_inventory(tape, model, ap_feats_norm, ap_adj)
    model.inventory_memo = (_pinned(ap_feats_norm), _pinned(ap_adj), kv)
    return kv


def forward_batch(
    tape: Tape,
    model: GtModel,
    rssi_norm: np.ndarray,
    user_adj: np.ndarray,
    ap_feats_norm: np.ndarray,
    ap_adj: np.ndarray,
    masks: Optional[Sequence[Tensor]] = None,
) -> Tensor:
    """Batched forward pass on a `LocGraph`'s fields -> (B, 2) normalized predictions.

    `masks` are the dropout masks (user1, user2) of the user rows, or None
    for no dropout. The inventory half comes from `encode_inventory` (or
    the model's memo); the B user rows then attend over its keys and values
    in both layers. A graph for another AP count raises DimensionMismatch.
    """
    if ap_feats_norm.shape[0] != model.ap_count:
        raise DimensionMismatch(
            f"graph has {ap_feats_norm.shape[0]} APs, model expects {model.ap_count}")
    user_mask1, user_mask2 = masks if masks is not None else (None, None)
    kv1, kv2 = _inventory(tape, model, ap_feats_norm, ap_adj)
    enc = model.encoders
    users = tape.add_bias(tape.matmul(Tensor(rssi_norm), enc.user_w), enc.user_b)
    users = _dropout(tape, tape.relu(_attend(tape, model.layer1, users, kv1, user_adj)),
                     user_mask1)
    users = _dropout(tape, tape.relu(_attend(tape, model.layer2, users, kv2, user_adj)),
                     user_mask2)
    return tape.add_bias(tape.matmul(users, model.head_w), model.head_b)


def forward_graph(tape: Tape, model: GtModel, graph: LocGraph) -> Tensor:
    """`forward_batch` on all of a graph's user rows -> (B, 2)."""
    return forward_batch(tape, model, graph.user_features, graph.user_adjacency,
                         graph.ap_features, graph.ap_adjacency)


def denormalize_pred(tape: Tape, pred_norm: Tensor, model: GtModel) -> Tensor:
    """Map normalized (B, 2) predictions to meters through the stored affine."""
    n = pred_norm.shape[0]
    scale = Tensor(np.tile(model.affine_scale, (n, 1)))
    offset = Tensor(np.tile(model.affine_offset, (n, 1)))
    return tape.add(tape.mul(pred_norm, scale), offset)


def mae_loss(tape: Tape, pred_m: Tensor, truth_m: np.ndarray) -> Tensor:
    """Mean over the batch of |dx| + |dy| in meters."""
    if pred_m.shape[0] == 0:
        raise EmptyBatch("loss over an empty batch")
    if pred_m.shape != truth_m.shape:
        raise DimensionMismatch(f"pred {pred_m.shape} vs truth {truth_m.shape}")
    diff = tape.add(pred_m, Tensor(-np.asarray(truth_m)))
    return tape.scale(tape.sum_all(tape.abs(diff)), 1.0 / pred_m.shape[0])


# -- training ----------------------------------------------------------------


def _batch_masks(
    model: GtModel, n_rows: int, dropout: float, rng: np.random.Generator
) -> tuple[Tensor, Tensor]:
    """Dropout masks for one batch: (user1, user2), one row per scan."""
    shape = (n_rows, model.hidden)
    return dropout_mask(shape, dropout, rng), dropout_mask(shape, dropout, rng)


def train(
    model: GtModel,
    train_samples: ScanSet,
    cfg: TrainConfig,
    graph_cfg: GraphConfig,
    inventory: ApInventory,
) -> list[dict[str, float]]:
    """Cosine-annealed Adam on shuffled mini-batches; returns per-epoch log.

    Mutates `model` in place. The log entries are {"epoch", "lr",
    "train_mae"} with the MAE in meters. Deterministic under cfg.seed.

    The tape runs in float32 on `work`, the model over Adam's float32
    working copy of `model.flat` (see the module docstring). One (P,)
    float32 gradient buffer serves every step: each parameter's `grad`, on
    `model` and on `work` alike, is its view, which a step's reverse sweep
    writes and Adam reads. After training, the `grad`s hold the last step's
    gradients.
    """
    if len(train_samples) == 0:
        raise EmptyBatch("no training samples")
    graph = build_sample_graph(
        train_samples, inventory, build_ap_adjacency(inventory, graph_cfg), graph_cfg)
    rssi_norm, user_adj = graph.user_features.astype(np.float32), graph.user_adjacency
    ap_feats, truth = graph.ap_features.astype(np.float32), train_samples.truth.astype(np.float32)
    adam = AdamState(weight_decay=cfg.weight_decay)
    adam.working = model.flat.astype(np.float32)
    work = _assemble(adam.working, model.ap_count, model.hidden, model.n_heads,
                     model.affine_offset, model.affine_scale)
    params, work_params = model.parameters().values(), work.parameters().values()
    grad = np.empty_like(adam.working)
    for p, w, view in zip(params, work_params, flat_views(grad, [p.shape for p in params])):
        p.grad = w.grad = view
    schedule = CosineSchedule(cfg.base_lr, cfg.epochs)
    n = len(train_samples)
    history: list[dict[str, float]] = []
    for epoch in range(cfg.epochs):
        lr = cosine_lr(schedule, epoch)
        order = stream(cfg.seed, "shuffle", epoch).permutation(n)
        loss_sum = 0.0
        for batch_i, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            masks = None
            if cfg.dropout > 0.0:
                drop_rng = stream(cfg.seed, "dropout", epoch, batch_i)
                masks = _batch_masks(model, len(idx), cfg.dropout, drop_rng)
            tape = Tape()
            pred = forward_batch(tape, work, rssi_norm[idx], user_adj[idx],
                                 ap_feats, graph.ap_adjacency, masks)
            loss = mae_loss(tape, denormalize_pred(tape, pred, work), truth[idx])
            if not np.isfinite(loss.data):
                raise TrainingDiverged(epoch, batch_i)
            tape.gradients(loss)
            loss_sum += float(loss.data) * len(idx)
            adam_step(model.flat, grad, adam, lr)
        history.append({"epoch": float(epoch), "lr": lr, "train_mae": loss_sum / n})
    return history


# Scans per eval forward in `predict_positions`.
PREDICT_BATCH = 512


def predict_positions(
    model: GtModel,
    samples: ScanSet,
    inventory: ApInventory,
    graph_cfg: GraphConfig,
) -> np.ndarray:
    """Eval-mode predictions in meters, (N, 2)."""
    graph = build_sample_graph(
        samples, inventory, build_ap_adjacency(inventory, graph_cfg), graph_cfg)
    rssi_norm, user_adj = graph.user_features, graph.user_adjacency
    out = np.empty((len(samples), 2))
    tape = Tape(record=False)
    for start in range(0, len(samples), PREDICT_BATCH):
        sl = slice(start, start + PREDICT_BATCH)
        pred = forward_batch(tape, model, rssi_norm[sl], user_adj[sl],
                             graph.ap_features, graph.ap_adjacency)
        out[sl] = denormalize_pred(tape, pred, model).data
    return out


def write_loss_log(path: str | Path, history: Sequence[dict[str, float]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,lr,train_mae\n")
        for row in history:
            fh.write(f"{int(row['epoch'])},{row['lr']:.10g},{row['train_mae']:.10g}\n")


# -- checkpoints -------------------------------------------------------------


def save_model(path: str | Path, model: GtModel, step: int = 0) -> None:
    extra = {
        "model": {
            "ap_count": model.ap_count,
            "hidden": model.hidden,
            "n_heads": model.n_heads,
            "affine_offset": model.affine_offset.tolist(),
            "affine_scale": model.affine_scale.tolist(),
        }
    }
    save_checkpoint(path, model.parameters(), step=step, extra=extra)


def load_model(path: str | Path) -> GtModel:
    """The model a checkpoint holds, its buffer the read-only parameter slice
    of the loaded blob.

    Read-only weights let eval forwards reuse the inventory half (see the
    module docstring); an in-place write raises. A checkpoint without
    the model metadata, without one of `PARAMETER_NAMES` (such as one
    written with per-head weights, `layer1.head0.w1`), with a parameter
    of another shape than `init_model` gives for its metadata (such as a
    `layer1.root` with one block per head) or with its parameters in
    another order than `_parameter_shapes` raises BadCheckpoint.
    """
    header, blob, size = read_checkpoint(path)
    blob.flags.writeable = False
    layout = {name: tuple(shape) for name, shape, _ in header["params"]}
    try:
        meta = header["extra"]["model"]
        missing = [name for name in PARAMETER_NAMES if name not in layout]
        if missing:
            raise BadCheckpoint(
                path, f"no parameter {missing[0]}: the weights are in a layout this "
                      "version no longer reads (per head, as in layer1.head0.w1); "
                      "rerun `sacloc train`")
        shapes = _parameter_shapes(meta["ap_count"], meta["hidden"], meta["n_heads"])
        for name, shape in shapes.items():
            if layout[name] != shape:
                raise BadCheckpoint(
                    path, f"parameter {name} has shape {layout[name]}, but the "
                          f"header's ap_count {meta['ap_count']}, hidden {meta['hidden']} "
                          f"and n_heads {meta['n_heads']} need {shape} (a checkpoint "
                          "written before the heads shared one root has one root block "
                          "per head); rerun `sacloc train`")
        if [name for name, _, _ in header["params"]] != list(shapes):
            raise BadCheckpoint(
                path, "parameters in another order than this version writes; "
                      "rerun `sacloc train`")
        return _assemble(blob[:size], meta["ap_count"], meta["hidden"], meta["n_heads"],
                         meta["affine_offset"], meta["affine_scale"])
    except KeyError as exc:
        raise BadCheckpoint(path, f"not a model checkpoint: no {exc}") from exc
