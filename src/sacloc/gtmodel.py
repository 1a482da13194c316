"""Two-layer multi-head graph-transformer regressor and its trainer.

Per layer and head, a node's update is a root transform of its own features
plus an attention-weighted sum of transformed neighbor features; attention
is scaled dot-product over the neighbor set. Head outputs are averaged and
mapped back to the layer width. A layer keeps one weight per projection
(query, key, value, root) with every head fused into it, head i in columns
[i*d, (i+1)*d), as in the TransformerConv of Shi et al. (arXiv 2009.03509):
each projection is one matmul, and the heads' attention is one
`Tape.multi_head_attention` call. Node features enter through per-type
linear encoders (user: RSSI vector, APs: 2D coordinates) since the two
node types carry different raw dimensions; the prediction is read off the
user node and mapped to coordinates by a final linear head.

One forward, `forward_batch`, serves training, calibration and single-scan
prediction, on the fields of a `graphbuild.LocGraph` (B user rows and the
AP blocks they share), in two halves. AP nodes never receive messages from the user,
so everything on the AP side is the same for every scan sharing an
inventory: the AP encoder, the layer-1 AP update and the keys and values
both layers attend over. `encode_inventory` computes that inventory
half; the scan half runs only the B user rows through both layers against
those keys and values. Layer-2 AP embeddings are never computed, since
nothing reads them. In eval mode this equals the block-diagonal batched
graph evaluated without its redundancy.

Training runs both halves on the tape every step. An eval forward on a
model whose weights are all read-only (what `load_model` returns) keeps
the inventory half on the model and reuses it while the AP features and
adjacency are unchanged, so warm single-scan prediction computes only the
user row. Writeable weights can change between calls without the model
knowing, so a writeable model never keeps it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
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
    load_checkpoint,
    save_checkpoint,
)
from .dataset import ApInventory, ScanSet, coord_affine
from .errors import (
    BadCheckpoint,
    DimensionMismatch,
    EmptyBatch,
    EmptyNeighborhood,
    TrainingDiverged,
)
from .graphbuild import GraphConfig, LocGraph, build_ap_adjacency, build_sample_graph
# unused here; perfbench's tracer still patches this name
from .graphbuild import user_edge_mask  # noqa: F401
from .rng import stream


# The fused projections of one layer, in checkpoint order.
LAYER_WEIGHTS = ("query", "key", "value", "root", "merge")


@dataclass
class TransformerConvLayer:
    """One layer, every head fused into one weight per projection.

    `query`, `key`, `value` and `root` are (in_dim, n_heads * head_dim);
    head i owns columns [i * head_dim, (i + 1) * head_dim) of each.
    """

    query: Tensor
    key: Tensor
    value: Tensor  # the message transform
    root: Tensor
    merge: Tensor  # (head_dim, out_dim), restores width after head averaging
    n_heads: int

    @property
    def head_dim(self) -> int:
        return self.query.shape[1] // self.n_heads

    @property
    def in_dim(self) -> int:
        return self.query.shape[0]

    @property
    def out_dim(self) -> int:
        return self.merge.shape[1]


@dataclass
class NodeEncoders:
    user_w: Tensor  # (m, h)
    user_b: Tensor  # (h,)
    ap_w: Tensor  # (2, h)
    ap_b: Tensor  # (h,)


@dataclass
class GtModel:
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
    # (ap_feats_norm, ap_adj, encode_inventory result) of the last eval
    # forward, kept only while every weight is read-only
    inventory_memo: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False)

    def parameters(self) -> dict[str, Tensor]:
        """Named parameters in a stable order (drives Adam and checkpoints)."""
        return dict(zip(PARAMETER_NAMES, _parameter_tensors(self)))


# (checkpoint name, GtModel attribute path) of every parameter, in order
_PARAMETERS = (
    ("enc.user.w", "encoders.user_w"),
    ("enc.user.b", "encoders.user_b"),
    ("enc.ap.w", "encoders.ap_w"),
    ("enc.ap.b", "encoders.ap_b"),
    *((f"layer{li}.{wn}",) * 2 for li in (1, 2) for wn in LAYER_WEIGHTS),
    ("head.w", "head_w"),
    ("head.b", "head_b"),
)
PARAMETER_NAMES = tuple(name for name, _ in _PARAMETERS)
_parameter_tensors = attrgetter(*(path for _, path in _PARAMETERS))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 64
    base_lr: float = 0.001
    weight_decay: float = 1e-4
    dropout: float = 0.4
    seed: int = 0
    min_lr: float = 0.0

    def __post_init__(self):
        if min(self.epochs, self.batch_size) < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.base_lr < 0 or self.min_lr < 0:
            raise ValueError("learning rates must be nonnegative")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


def _xavier(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    fan_in = shape[0] if len(shape) > 1 else shape[0]
    fan_out = shape[1] if len(shape) > 1 else shape[0]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


def _init_layer(in_dim: int, out_dim: int, n_heads: int, head_dim: int,
                seed: int, tag: str) -> TransformerConvLayer:
    """Each head's block drawn from its own stream, the blocks side by side."""

    def fused(name: str, stream_tag: str) -> Tensor:
        blocks = [_xavier((in_dim, head_dim), stream(seed, "init", tag, hi, stream_tag))
                  for hi in range(n_heads)]
        return Tensor(np.hstack(blocks), requires_grad=True, name=f"{tag}.{name}")

    merge = Tensor(_xavier((head_dim, out_dim), stream(seed, "init", tag, "merge")),
                   requires_grad=True, name=f"{tag}.merge")
    return TransformerConvLayer(
        query=fused("query", "w3"), key=fused("key", "w4"), value=fused("value", "w2"),
        root=fused("root", "w1"), merge=merge, n_heads=n_heads)


def init_model(
    ap_count: int,
    inventory_affine: tuple[np.ndarray, np.ndarray],
    hidden: int = 500,
    n_heads: int = 4,
    seed: int = 0,
) -> GtModel:
    """Fresh model with Xavier-uniform weights and zero biases."""
    if hidden % n_heads != 0:
        raise ValueError(f"head count {n_heads} must divide hidden dim {hidden}")
    head_dim = hidden // n_heads
    encoders = NodeEncoders(
        user_w=Tensor(_xavier((ap_count, hidden), stream(seed, "init", "enc.user")),
                      requires_grad=True, name="enc.user.w"),
        user_b=Tensor(np.zeros(hidden), requires_grad=True, name="enc.user.b"),
        ap_w=Tensor(_xavier((2, hidden), stream(seed, "init", "enc.ap")),
                    requires_grad=True, name="enc.ap.w"),
        ap_b=Tensor(np.zeros(hidden), requires_grad=True, name="enc.ap.b"),
    )
    offset, scale = inventory_affine
    return GtModel(
        encoders=encoders,
        layer1=_init_layer(hidden, hidden, n_heads, head_dim, seed, "layer1"),
        layer2=_init_layer(hidden, hidden, n_heads, head_dim, seed, "layer2"),
        head_w=Tensor(_xavier((hidden, 2), stream(seed, "init", "head")),
                      requires_grad=True, name="head.w"),
        head_b=Tensor(np.zeros(2), requires_grad=True, name="head.b"),
        ap_count=ap_count,
        hidden=hidden,
        n_heads=n_heads,
        affine_offset=np.asarray(offset, dtype=np.float64),
        affine_scale=np.asarray(scale, dtype=np.float64),
    )


def model_for_inventory(
    inventory: ApInventory, hidden: int = 500, n_heads: int = 4, seed: int = 0
) -> GtModel:
    return init_model(inventory.count, coord_affine(inventory), hidden, n_heads, seed)


# -- forward passes --------------------------------------------------------


def attention_coefficients(
    layer: TransformerConvLayer,
    head_index: int,
    features: np.ndarray,
    node: int,
    neighbors: Sequence[int],
) -> np.ndarray:
    """Reference attention row for one node: softmax of scaled query-key dots."""
    if len(neighbors) == 0:
        raise EmptyNeighborhood(f"node {node} has no neighbors")
    cols = slice(head_index * layer.head_dim, (head_index + 1) * layer.head_dim)
    q = features[node] @ layer.query.data[:, cols]
    k = features[list(neighbors)] @ layer.key.data[:, cols]
    logits = (k @ q) / math.sqrt(layer.head_dim)
    e = np.exp(logits - logits.max())
    return e / e.sum()


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
    `adjacency` rows; rows whose adjacency is empty receive their root
    transform only."""
    keys, values = kv
    messages = tape.multi_head_attention(
        tape.matmul(targets, layer.query), keys, values, adjacency, layer.n_heads)
    z = tape.add(tape.matmul(targets, layer.root), messages)
    return tape.matmul(tape.head_mean(z, layer.n_heads), layer.merge)


def transformer_conv(
    tape: Tape, layer: TransformerConvLayer, features: Tensor, adjacency: np.ndarray
) -> Tensor:
    """Dense layer application over an (n, h) feature matrix and (n, n) adjacency."""
    return _attend(tape, layer, features, _keys_values(tape, layer, features), adjacency)


def _dropout(tape: Tape, x: Tensor, mask: Optional[Tensor]) -> Tensor:
    return x if mask is None else tape.mul(x, mask)


def encode_inventory(
    tape: Tape,
    model: GtModel,
    ap_feats_norm: np.ndarray,
    ap_adj: np.ndarray,
    ap_mask: Optional[Tensor] = None,
) -> tuple[KeysValues, KeysValues]:
    """The inventory half of the forward: the keys and values of layers 1 and 2.

    Encodes the AP rows, updates them by layer-1 attention over themselves
    (relu, then `ap_mask` when training) and returns the layer-1 keys and
    values of the encoded rows and the layer-2 ones of the updated rows.
    """
    enc = model.encoders
    aps = tape.add_bias(tape.matmul(Tensor(ap_feats_norm), enc.ap_w), enc.ap_b)
    kv1 = _keys_values(tape, model.layer1, aps)
    aps = _dropout(tape, tape.relu(_attend(tape, model.layer1, aps, kv1, ap_adj)), ap_mask)
    return kv1, _keys_values(tape, model.layer2, aps)


def _read_only(model: GtModel) -> bool:
    return not any(t.data.flags.writeable for t in _parameter_tensors(model))


def _inventory(
    tape: Tape,
    model: GtModel,
    ap_feats_norm: np.ndarray,
    ap_adj: np.ndarray,
    ap_mask: Optional[Tensor],
) -> tuple[KeysValues, KeysValues]:
    """`encode_inventory`, reused from the model's memo in eval mode when
    every weight is read-only and the AP features and adjacency match."""
    if tape.record or ap_mask is not None or not _read_only(model):
        return encode_inventory(tape, model, ap_feats_norm, ap_adj, ap_mask)
    memo = model.inventory_memo
    if (memo is not None and np.array_equal(memo[0], ap_feats_norm)
            and np.array_equal(memo[1], ap_adj)):
        return memo[2]
    kv = encode_inventory(tape, model, ap_feats_norm, ap_adj)
    model.inventory_memo = (np.array(ap_feats_norm), np.array(ap_adj), kv)
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

    `masks` are the dropout masks (user1, ap1, user2), or None for no
    dropout. The inventory half comes from `encode_inventory` (or the
    model's memo); the B user rows then attend over its keys and values in
    both layers. A graph for another AP count raises DimensionMismatch.
    """
    if ap_feats_norm.shape[0] != model.ap_count:
        raise DimensionMismatch(
            f"graph has {ap_feats_norm.shape[0]} APs, model expects {model.ap_count}")
    user_mask1, ap_mask1, user_mask2 = masks if masks is not None else (None,) * 3
    kv1, kv2 = _inventory(tape, model, ap_feats_norm, ap_adj, ap_mask1)
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
) -> tuple[Tensor, Tensor, Tensor]:
    """Dropout masks for one batch: (user1, ap1, user2).

    The AP mask is drawn once per batch and shared by every scan in it.
    """
    h, m = model.hidden, model.ap_count
    return (
        dropout_mask((n_rows, h), dropout, rng),
        dropout_mask((m, h), dropout, rng),
        dropout_mask((n_rows, h), dropout, rng),
    )


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
    """
    if len(train_samples) == 0:
        raise EmptyBatch("no training samples")
    graph = build_sample_graph(
        train_samples, inventory, build_ap_adjacency(inventory, graph_cfg), graph_cfg)
    rssi_norm, user_adj = graph.user_features, graph.user_adjacency
    params = model.parameters()
    schedule = CosineSchedule(cfg.base_lr, cfg.epochs, cfg.min_lr)
    adam = AdamState(weight_decay=cfg.weight_decay)
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
            pred = forward_batch(tape, model, rssi_norm[idx], user_adj[idx],
                                 graph.ap_features, graph.ap_adjacency, masks)
            loss = mae_loss(tape, denormalize_pred(tape, pred, model),
                            train_samples.truth[idx])
            if not np.isfinite(loss.data):
                raise TrainingDiverged(epoch, batch_i)
            tape.backward(loss)
            loss_sum += float(loss.data) * len(idx)
            adam_step(params, {name: p.grad for name, p in params.items()}, adam, lr)
            for p in params.values():
                p.zero_grad()
        history.append({"epoch": float(epoch), "lr": lr, "train_mae": loss_sum / n})
    return history


def predict_positions(
    model: GtModel,
    samples: ScanSet,
    inventory: ApInventory,
    graph_cfg: GraphConfig,
    batch_size: int = 512,
) -> np.ndarray:
    """Eval-mode predictions in meters, (N, 2)."""
    graph = build_sample_graph(
        samples, inventory, build_ap_adjacency(inventory, graph_cfg), graph_cfg)
    rssi_norm, user_adj = graph.user_features, graph.user_adjacency
    out = np.empty((len(samples), 2))
    tape = Tape(record=False)
    for start in range(0, len(samples), batch_size):
        sl = slice(start, start + batch_size)
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


def save_model(
    path: str | Path, model: GtModel, adam: Optional[AdamState] = None, step: int = 0
) -> None:
    extra = {
        "model": {
            "ap_count": model.ap_count,
            "hidden": model.hidden,
            "n_heads": model.n_heads,
            "affine_offset": model.affine_offset.tolist(),
            "affine_scale": model.affine_scale.tolist(),
        }
    }
    save_checkpoint(path, model.parameters(), adam=adam, step=step, extra=extra)


def load_model(path: str | Path) -> GtModel:
    """The model a checkpoint holds, its weights read-only views into the loaded blob.

    Read-only weights let eval forwards reuse the inventory half (see the
    module docstring); an in-place write raises. To fine-tune, start from
    `load_checkpoint`, whose tensors are writeable. A checkpoint without
    the model metadata or without one of `PARAMETER_NAMES` (such as one
    written with per-head weights, `layer1.head0.w1`) raises BadCheckpoint.
    """
    params, _, _, extra = load_checkpoint(path)
    for p in params.values():
        p.data.flags.writeable = False
    try:
        meta = extra["model"]
        missing = [name for name in PARAMETER_NAMES if name not in params]
        if missing:
            raise BadCheckpoint(
                path, f"no parameter {missing[0]}: the weights are in a layout this "
                      "version no longer reads (per head, as in layer1.head0.w1); "
                      "rerun `sacloc train`")

        def layer(tag: str) -> TransformerConvLayer:
            return TransformerConvLayer(*(params[f"{tag}.{wn}"] for wn in LAYER_WEIGHTS),
                                        n_heads=meta["n_heads"])

        return GtModel(
            encoders=NodeEncoders(
                user_w=params["enc.user.w"], user_b=params["enc.user.b"],
                ap_w=params["enc.ap.w"], ap_b=params["enc.ap.b"],
            ),
            layer1=layer("layer1"),
            layer2=layer("layer2"),
            head_w=params["head.w"],
            head_b=params["head.b"],
            ap_count=meta["ap_count"],
            hidden=meta["hidden"],
            n_heads=meta["n_heads"],
            affine_offset=np.array(meta["affine_offset"], dtype=np.float64),
            affine_scale=np.array(meta["affine_scale"], dtype=np.float64),
        )
    except KeyError as exc:
        raise BadCheckpoint(path, f"not a model checkpoint: no {exc}") from exc
