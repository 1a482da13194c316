"""Two-layer multi-head graph-transformer regressor and its trainer.

Per layer and head, a node's update is a root transform of its own features
plus an attention-weighted sum of transformed neighbor features; attention
is scaled dot-product over the neighbor set. Head outputs are averaged and
mapped back to the layer width. Node features enter through per-type
linear encoders (user: RSSI vector, APs: 2D coordinates) since the two
node types carry different raw dimensions; the prediction is read off the
user node and mapped to coordinates by a final linear head.

One forward, `forward_batch`, serves training, calibration and single-scan
prediction. It exploits the graph structure: AP nodes never receive
messages from the user, so their embeddings are identical for every scan
sharing an inventory. Layer 1 therefore updates the m AP rows and the B
user rows in one stacked attention pass over the AP sources, and layer 2
updates the user rows only, since nothing reads layer-2 AP embeddings. In
eval mode this equals the block-diagonal batched graph evaluated without
its redundancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .dataset import (
    ApInventory,
    FingerprintSample,
    coord_affine,
    normalize_coords,
    normalize_rssi,
    rssi_matrix,
    truth_matrix,
)
from .errors import (
    BadCheckpoint,
    DimensionMismatch,
    EmptyBatch,
    EmptyNeighborhood,
    TrainingDiverged,
)
from .graphbuild import GraphConfig, LocGraph, build_ap_adjacency, user_edge_mask
from .rng import stream


@dataclass
class HeadWeights:
    """One attention head: root (w1), message (w2), query (w3), key (w4)."""

    w1: Tensor
    w2: Tensor
    w3: Tensor
    w4: Tensor


@dataclass
class TransformerConvLayer:
    heads: tuple[HeadWeights, ...]
    merge: Tensor  # (head_dim, out_dim), restores width after head averaging

    @property
    def head_dim(self) -> int:
        return self.heads[0].w1.shape[1]

    @property
    def in_dim(self) -> int:
        return self.heads[0].w1.shape[0]

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

    def parameters(self) -> dict[str, Tensor]:
        """Named parameters in a stable order (drives Adam and checkpoints)."""
        params: dict[str, Tensor] = {
            "enc.user.w": self.encoders.user_w,
            "enc.user.b": self.encoders.user_b,
            "enc.ap.w": self.encoders.ap_w,
            "enc.ap.b": self.encoders.ap_b,
        }
        for li, layer in ((1, self.layer1), (2, self.layer2)):
            for hi, head in enumerate(layer.heads):
                for wn in ("w1", "w2", "w3", "w4"):
                    params[f"layer{li}.head{hi}.{wn}"] = getattr(head, wn)
            params[f"layer{li}.merge"] = layer.merge
        params["head.w"] = self.head_w
        params["head.b"] = self.head_b
        return params


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
    heads = []
    for hi in range(n_heads):
        heads.append(HeadWeights(*[
            Tensor(_xavier((in_dim, head_dim), stream(seed, "init", tag, hi, wn)),
                   requires_grad=True, name=f"{tag}.head{hi}.{wn}")
            for wn in ("w1", "w2", "w3", "w4")
        ]))
    merge = Tensor(_xavier((head_dim, out_dim), stream(seed, "init", tag, "merge")),
                   requires_grad=True, name=f"{tag}.merge")
    return TransformerConvLayer(heads=tuple(heads), merge=merge)


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
    head = layer.heads[head_index]
    q = features[node] @ head.w3.data
    k = features[list(neighbors)] @ head.w4.data
    logits = (k @ q) / math.sqrt(layer.head_dim)
    e = np.exp(logits - logits.max())
    return e / e.sum()


def _conv_pair(
    tape: Tape,
    layer: TransformerConvLayer,
    targets: Tensor,
    sources: Tensor,
    adjacency: np.ndarray,
) -> Tensor:
    """Attention aggregation of `sources` into `targets` along `adjacency` rows.

    With targets == sources this is the full graph-transformer layer; rows
    whose adjacency is empty receive their root transform only.
    """
    inv_sqrt = 1.0 / math.sqrt(layer.head_dim)
    total: Optional[Tensor] = None
    for head in layer.heads:
        q = tape.matmul(targets, head.w3)
        k = tape.matmul(sources, head.w4)
        logits = tape.scale(tape.matmul(q, tape.transpose(k)), inv_sqrt)
        attn = tape.masked_row_softmax(logits, adjacency)
        msg = tape.matmul(attn, tape.matmul(sources, head.w2))
        z = tape.add(tape.matmul(targets, head.w1), msg)
        total = z if total is None else tape.add(total, z)
    mean = tape.scale(total, 1.0 / len(layer.heads))
    return tape.matmul(mean, layer.merge)


def transformer_conv(
    tape: Tape, layer: TransformerConvLayer, features: Tensor, adjacency: np.ndarray
) -> Tensor:
    """Dense layer application over an (n, h) feature matrix and (n, n) adjacency."""
    return _conv_pair(tape, layer, features, features, adjacency)


def forward_batch(
    tape: Tape,
    model: GtModel,
    rssi_norm: np.ndarray,
    user_adj: np.ndarray,
    ap_feats_norm: np.ndarray,
    ap_adj: np.ndarray,
    masks: Optional[Sequence[Tensor]] = None,
) -> Tensor:
    """Batched forward pass -> (B, 2) normalized predictions.

    `masks` are the dropout masks (user1, ap1, user2), or None for no
    dropout. Layer 1 updates the AP and user rows in one stacked pass, so
    each AP projection is computed once; layer 2 updates the user rows only.
    """
    enc = model.encoders
    users = tape.add_bias(tape.matmul(Tensor(rssi_norm), enc.user_w), enc.user_b)
    aps = tape.add_bias(tape.matmul(Tensor(ap_feats_norm), enc.ap_w), enc.ap_b)
    m = aps.shape[0]

    nodes = tape.relu(_conv_pair(
        tape, model.layer1, tape.concat_rows([aps, users]), aps,
        np.vstack([ap_adj, user_adj])))
    if masks is not None:
        user_mask1, ap_mask1, user_mask2 = masks
        nodes = tape.mul(nodes, Tensor(np.vstack([ap_mask1.data, user_mask1.data])))
    aps = tape.select_rows(nodes, np.arange(m))
    users = tape.select_rows(nodes, np.arange(m, nodes.shape[0]))

    users = tape.relu(_conv_pair(tape, model.layer2, users, aps, user_adj))
    if masks is not None:
        users = tape.mul(users, user_mask2)
    return tape.add_bias(tape.matmul(users, model.head_w), model.head_b)


def forward_graph(tape: Tape, model: GtModel, graph: LocGraph) -> Tensor:
    """Single-scan forward: `forward_batch` with B=1 on the graph's blocks -> (1, 2)."""
    if graph.ap_count != model.ap_count:
        raise DimensionMismatch(
            f"graph has {graph.ap_count} APs, model expects {model.ap_count}")
    if graph.user_index != graph.ap_count:
        raise DimensionMismatch("graphs must place the user node last")
    m = graph.ap_count
    return forward_batch(
        tape, model, graph.user_features[None, :], graph.adjacency[m:, :m],
        graph.ap_features, graph.adjacency[:m, :m])


def model_forward(model: GtModel, graph: LocGraph) -> np.ndarray:
    """Eval-mode prediction for one graph, normalized coordinates (2,)."""
    tape = Tape(record=False)
    return forward_graph(tape, model, graph).data[0]


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


def _prepare_arrays(
    samples: Sequence[FingerprintSample],
    inventory: ApInventory,
    graph_cfg: GraphConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(rssi_norm, user_adj, truth_m, ap_feats_norm, ap_adj) for a sample list."""
    raw = rssi_matrix(samples)
    rssi_norm = normalize_rssi(raw)
    user_adj = user_edge_mask(raw, graph_cfg.tau)
    affine = coord_affine(inventory)
    ap_feats = normalize_coords(inventory.coordinates, affine)
    ap_adj = build_ap_adjacency(inventory, graph_cfg)
    return rssi_norm, user_adj, truth_matrix(samples), ap_feats, ap_adj


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
    train_samples: Sequence[FingerprintSample],
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
    rssi_norm, user_adj, truth, ap_feats, ap_adj = _prepare_arrays(
        train_samples, inventory, graph_cfg)
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
            pred = forward_batch(
                tape, model, rssi_norm[idx], user_adj[idx], ap_feats, ap_adj, masks)
            loss = mae_loss(tape, denormalize_pred(tape, pred, model), truth[idx])
            if not np.isfinite(loss.data):
                raise TrainingDiverged(epoch)
            tape.backward(loss)
            loss_sum += float(loss.data) * len(idx)
            adam_step(params, {name: p.grad for name, p in params.items()}, adam, lr)
            for p in params.values():
                p.zero_grad()
        history.append({"epoch": float(epoch), "lr": lr, "train_mae": loss_sum / n})
    return history


def predict_positions(
    model: GtModel,
    samples: Sequence[FingerprintSample],
    inventory: ApInventory,
    graph_cfg: GraphConfig,
    batch_size: int = 512,
) -> np.ndarray:
    """Eval-mode predictions in meters, (N, 2)."""
    if inventory.count != model.ap_count:
        raise DimensionMismatch(
            f"inventory has {inventory.count} APs, model expects {model.ap_count}")
    rssi_norm, user_adj, _, ap_feats, ap_adj = _prepare_arrays(
        samples, inventory, graph_cfg)
    out = np.empty((len(samples), 2))
    tape = Tape(record=False)
    for start in range(0, len(samples), batch_size):
        sl = slice(start, start + batch_size)
        pred = forward_batch(tape, model, rssi_norm[sl], user_adj[sl], ap_feats, ap_adj)
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
    """The model a checkpoint holds, its weights views into the loaded blob."""
    params, _, _, extra = load_checkpoint(path)
    try:
        meta = extra["model"]

        def layer(tag: str) -> TransformerConvLayer:
            heads = tuple(
                HeadWeights(*(params[f"{tag}.head{hi}.{wn}"] for wn in ("w1", "w2", "w3", "w4")))
                for hi in range(meta["n_heads"])
            )
            return TransformerConvLayer(heads=heads, merge=params[f"{tag}.merge"])

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
