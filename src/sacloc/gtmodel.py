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

Layer 1's keys and values act on the AP coordinates. Its sources are the
AP rows only, and the linear AP encoder makes them `[x, y, 1] @ [ap_w; ap_b]`,
so `key` and `value` reach the layer only through that (3, h) product:
layer 1 stores the product, a (3, h) map of `[x, y, 1]`, and the encoder
feeds only the layer-1 AP queries and roots. TransformerConv asks only that
the source keys and values be linear maps of the source features, and
these are.

Layer 1 also scores in `[x, y, 1]` space. Head i's logits are
targets @ query_i @ key_iᵀ @ [x, y, 1]ᵀ / sqrt(d), and the forward
multiplies in that order: it forms each head's (h, 3) query-key product
from the stored factors (`Tape.head_products`), so the targets meet an
(h, 3 * heads) map instead of the (h, h) query, and the keys are
`[x, y, 1]` itself, tiled once per head. `query` and `key` stay the
parameters Adam steps; only the order of the multiplications differs
from the textbook one.

Layer 2's keys act on the m encoded AP rows, so head i's logits are
targets @ query_i @ (aps @ key_i)ᵀ / sqrt(d), and its query-key product is
(h, m). When heads * m < h, that (h, heads * m) map is narrower than the
(h, h) query, and layer 2 scores the way layer 1 does: the forward forms
the map from `query` and the AP keys, and the keys are I_m, tiled once
per head. Nothing new is stored. At heads * m >= h the map would be as
wide as the query or wider, so layer 2 scores as written above: at h=500
and 4 heads, from m=125 on. There the map costs more than it saves: at
m=520, an UJIIndoorLoc-sized inventory, a folded warm forward is ~1.7x
as slow, where at m=20 it is ~25% faster.

The forward runs on the fields of a `graphbuild.LocGraph` (B user rows
and the AP blocks they share) in two halves. AP nodes never receive
messages from the user, so everything on the AP side is the same for
every scan sharing an inventory: the AP encoder, the layer-1 AP update
and what both layers attend over (each layer's query map or query, keys
and values). `encode_inventory` computes that inventory half, a value the
caller holds; `forward_batch`, the scan half, runs only the B user rows
through both layers against it. Layer-2 AP embeddings are never computed,
since nothing reads them. This equals the block-diagonal batched graph
evaluated without its redundancy, in training as in eval: dropout acts on
the user rows only, so the inventory half is the same in both.

The model owns its parameters: one (P,) buffer, `GtModel.flat`, whose
consecutive slices, in the order and shapes of `_parameter_shapes`, are
the weights. `init_model` draws each weight into its slice of a new
float64 buffer and stores it rounded to float32; `load_model` takes the
checkpoint's whole float64 blob. Checkpoints hold the weights only,
written one array at a time, the same bytes as the buffer.

Training runs in float32, in place: `train` rebinds the model's weights
and affine to a float32 copy of `flat` and drops the float64 buffer, so
the tape (with float32 scans, masks and truths) reads the very buffer
that Adam steps, with float32 moments and a float32 gradient buffer. The
compute is float32 throughout, so a float32 master is plain
full-precision training: no wider copy is kept. When training ends, as it
returns or raises, the model is rebound to the float64 widening of the
float32 weights, which evaluation, calibration, prediction and
checkpoints use. A fresh model's weights are float32 values, so training
at lr 0 leaves them bit for bit.

Training encodes the inventory half on the tape every step, and
`predict_positions` once per call, for all of its chunks. Only
`forward_graph`, the per-graph forward that `conformal.predict_set` runs
for each scan, keeps a half on the model and reuses it: when the tape does
not record, the model's buffer is read-only (what `load_model` returns)
and the graph's AP features and adjacency are the very arrays the half
was encoded from, read-only and owning their data. So warm single-scan
prediction computes only the user row. Writeable weights or AP arrays can
change between calls without the model knowing, so they never get a
memo.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .autodiff import (
    AdamState,
    Tape,
    Tensor,
    adam_step,
    cosine_lr,
    dropout_mask,
    flat_views,
    is_json_int,
    is_json_number,
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
    check_ranges,
)
from .graphbuild import GraphConfig, LocGraph, build_ap_adjacency, build_sample_graph
# unused here; perfbench's tracer still patches this name
from .graphbuild import user_edge_mask  # noqa: F401
from .rng import stream

log = logging.getLogger(__name__)

# The weights of one layer, in checkpoint order.
LAYER_WEIGHTS = ("query", "key", "value", "root", "merge")


@dataclass
class TransformerConvLayer:
    """One layer: every head fused into one weight per attention projection.

    `query`, `key` and `value` are (in_dim, n_heads * head_dim); head i owns
    columns [i * head_dim, (i + 1) * head_dim) of each. `key` and `value`
    have a row per source feature: in_dim in layer 2, three (the APs'
    `[x, y, 1]`) in layer 1. `root` is (in_dim, head_dim), shared by the
    heads.
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
    # (ap_feats_norm, ap_adj, encode_inventory result) that `forward_graph`
    # reuses; see there
    inventory_memo: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False)

    def parameters(self) -> dict[str, Tensor]:
        """Named parameters in buffer order (drives Adam and checkpoints)."""
        return self._parameters


@dataclass(frozen=True)
class ModelConfig:
    """The model's shape: hidden width h, split evenly over `heads` heads."""

    hidden: int = 500
    heads: int = 4

    def __post_init__(self):
        check_ranges((
            ("hidden", self.hidden, self.hidden >= 1, "at least 1"),
            ("heads", self.heads, self.heads >= 1 and self.hidden % self.heads == 0,
             f"a positive divisor of model.hidden ({self.hidden})"),
        ))


@dataclass(frozen=True)
class TrainConfig:
    """Training settings; `calibration_fraction` of the fingerprint pool is
    held out of training for calibration."""

    epochs: int = 100
    batch_size: int = 64
    lr: float = 0.001
    weight_decay: float = 1e-4
    dropout: float = 0.4
    calibration_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        check_ranges((
            ("epochs", self.epochs, self.epochs >= 1, "at least 1"),
            ("batch_size", self.batch_size, self.batch_size >= 1, "at least 1"),
            ("lr", self.lr, self.lr >= 0, "nonnegative"),
            ("weight_decay", self.weight_decay, self.weight_decay >= 0, "nonnegative"),
            ("dropout", self.dropout, 0.0 <= self.dropout < 1.0, "in [0, 1)"),
            ("calibration_fraction", self.calibration_fraction,
             0.0 < self.calibration_fraction < 1.0, "in (0, 1)"),
        ))


def _parameter_shapes(ap_count: int, hidden: int, n_heads: int) -> dict[str, tuple[int, ...]]:
    """The parameters by checkpoint name, in buffer order, with their shapes:
    the one table of the layout."""
    head_dim = hidden // n_heads

    def layer(tag: str, sources: int) -> dict[str, tuple[int, int]]:
        shapes = ((hidden, hidden), (sources, hidden), (sources, hidden),
                  (hidden, head_dim), (head_dim, hidden))
        return {f"{tag}.{wn}": shape for wn, shape in zip(LAYER_WEIGHTS, shapes)}

    return {
        "enc.user.w": (ap_count, hidden), "enc.user.b": (hidden,),
        "enc.ap.w": (2, hidden), "enc.ap.b": (hidden,),
        **layer("layer1", 3),  # its sources are the APs' [x, y, 1]
        **layer("layer2", hidden),
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


def _init_layer(layer: TransformerConvLayer, seed: int, tag: str,
                sources: Optional[np.ndarray] = None) -> None:
    """Draw a layer's weights in place. Each head's block of a projection is
    drawn from its own stream into its columns; the shared root is the mean
    of the per-head root draws, so a fresh layer computes what per-head
    roots averaged over the heads would.

    `sources` is layer 1's (3, in_dim) `[enc.ap.w; enc.ap.b]`: each head's
    key and value block is drawn at (in_dim, head_dim), as for keys and
    values of the encoded AP rows, and stored as `sources @ block`, so a
    fresh model computes what one encoding the AP rows first would."""
    n, d = layer.n_heads, layer.head_dim
    block = np.empty_like(layer.root.data)  # one head's (in_dim, head_dim) draw
    for wn, stream_tag in (("query", "w3"), ("key", "w4"), ("value", "w2")):
        on_sources = sources is not None and wn != "query"
        for hi in range(n):
            _xavier(block, stream(seed, "init", tag, hi, stream_tag))
            getattr(layer, wn).data[:, hi * d:(hi + 1) * d] = (
                sources @ block if on_sources else block)
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
    drawn into its view of a new zeroed float64 buffer and stored as its
    float32 rounding, the precision `train` steps it in. Layer 1's key and
    value are the rounded products of the stored `[enc.ap.w; enc.ap.b]`."""
    ModelConfig(hidden, n_heads)  # OutOfRange unless the heads divide hidden
    size = sum(math.prod(s) for s in _parameter_shapes(ap_count, hidden, n_heads).values())
    model = _assemble(np.zeros(size), ap_count, hidden, n_heads, *inventory_affine)
    for w, tag in ((model.encoders.user_w, "enc.user"), (model.encoders.ap_w, "enc.ap"),
                   (model.head_w, "head")):
        _xavier(w.data, stream(seed, "init", tag))
    enc = model.encoders
    sources = np.vstack([enc.ap_w.data, enc.ap_b.data]).astype(np.float32)
    _init_layer(model.layer1, seed, "layer1", sources)
    _init_layer(model.layer2, seed, "layer2")
    for p in model.parameters().values():  # one weight at a time: no copy of the buffer
        p.data[...] = p.data.astype(np.float32)
    return model


def _bind(model: GtModel, flat: np.ndarray, affine_offset: np.ndarray,
          affine_scale: np.ndarray) -> None:
    """Make `model`'s weights the views of the (P,) `flat` and its affine the
    given arrays, in place: the same `Tensor`s, new `data`. Drops the eval
    memo, which belonged to the old buffer."""
    params = model.parameters().values()
    for p, view in zip(params, flat_views(flat, [p.shape for p in params])):
        p.data = view
    model.flat, model.affine_offset, model.affine_scale = flat, affine_offset, affine_scale
    model.inventory_memo = None


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


# What target rows attend over in one layer: the query map (in_dim,
# n_heads * w) that takes target rows to per-head queries, and the keys
# (n, n_heads * w) and values (n, n_heads * head_dim) of the n source rows,
# w being the key width.
Sources = tuple[Tensor, Tensor, Tensor]


def _sources(tape: Tape, layer: TransformerConvLayer, rows: Tensor) -> Sources:
    """The query weight and the keys and values of `rows`, every head at
    once (w = head_dim); none of them depends on the targets."""
    return layer.query, tape.matmul(rows, layer.key), tape.matmul(rows, layer.value)


def _mapped_sources(
    tape: Tape, layer: TransformerConvLayer, key_rows: Tensor, basis: np.ndarray,
    rows: Tensor
) -> Sources:
    """The sources `rows`, whose head-i keys are `basis @ key_rows_i`, scored
    in `basis`'s column space (w = its width). Head i's logits are
    targets @ query_i @ key_rows_iᵀ @ basisᵀ, so its query map is the
    (in_dim, w) product query_i @ key_rows_iᵀ and its keys are `basis`
    itself, tiled once per head; the values are `rows @ value`."""
    return (tape.head_products(layer.query, key_rows, layer.n_heads),
            Tensor(np.tile(basis, layer.n_heads)), tape.matmul(rows, layer.value))


def _coordinate_sources(
    tape: Tape, layer: TransformerConvLayer, ap_feats_norm: np.ndarray
) -> Sources:
    """Layer 1's sources, scored in the APs' `[x, y, 1]` space (w = 3), in
    the features' dtype: the stored (3, h) `key` is its key rows."""
    ones = np.ones((len(ap_feats_norm), 1), dtype=ap_feats_norm.dtype)
    xy1 = np.hstack([ap_feats_norm, ones])
    return _mapped_sources(tape, layer, layer.key, xy1, Tensor(xy1))


def _ap_row_sources(tape: Tape, layer: TransformerConvLayer, aps: Tensor) -> Sources:
    """Layer 2's sources, the m encoded AP rows. When heads * m < h, they
    are scored against the AP rows themselves (w = m): the query map is
    each head's (h, m) query_i @ (aps @ key_i)ᵀ and the keys are I_m, so
    targets meet an (h, heads * m) map narrower than the (h, h) query.
    Otherwise the map would be as wide as the query or wider, and the
    targets meet the query and the (m, h) keys."""
    m = aps.shape[0]
    if layer.n_heads * m >= layer.query.shape[1]:
        return _sources(tape, layer, aps)
    return _mapped_sources(tape, layer, tape.matmul(aps, layer.key),
                           np.eye(m, dtype=aps.data.dtype), aps)


def _attend(
    tape: Tape,
    layer: TransformerConvLayer,
    targets: Tensor,
    sources: Sources,
    adjacency: np.ndarray,
) -> Tensor:
    """Attention aggregation of `sources` into `targets` along `adjacency`
    rows, averaged over the heads, plus the root transform; rows whose
    adjacency is empty receive their root transform only."""
    query_map, keys, values = sources
    messages = tape.multi_head_attention(
        tape.matmul(targets, query_map), keys, values, adjacency, layer.n_heads)
    z = tape.add(tape.matmul(targets, layer.root), tape.head_mean(messages, layer.n_heads))
    return tape.matmul(z, layer.merge)


def _dropout(tape: Tape, x: Tensor, mask: Optional[Tensor]) -> Tensor:
    return x if mask is None else tape.mul(x, mask)


def encode_inventory(
    tape: Tape, model: GtModel, ap_feats_norm: np.ndarray, ap_adj: np.ndarray
) -> tuple[Sources, Sources]:
    """The inventory half of the forward: what layers 1 and 2 attend over.

    Takes layer 1's sources in the APs' `[x, y, 1]` space, encodes the AP
    rows, updates them by layer-1 attention over the APs (then relu) and
    returns layer 1's sources and layer 2's, those of the updated rows.
    Dropout never touches them, so this is the same function of the
    weights in training and in eval. An inventory of another AP count
    raises DimensionMismatch.
    """
    if ap_feats_norm.shape[0] != model.ap_count:
        raise DimensionMismatch(
            f"graph has {ap_feats_norm.shape[0]} APs, model expects {model.ap_count}")
    src1 = _coordinate_sources(tape, model.layer1, ap_feats_norm)
    enc = model.encoders
    aps = tape.add_bias(tape.matmul(Tensor(ap_feats_norm), enc.ap_w), enc.ap_b)
    aps = tape.relu(_attend(tape, model.layer1, aps, src1, ap_adj))
    return src1, _ap_row_sources(tape, model.layer2, aps)


def forward_batch(
    tape: Tape,
    model: GtModel,
    rssi_norm: np.ndarray,
    user_adj: np.ndarray,
    inventory: tuple[Sources, Sources],
    masks: Optional[Sequence[Tensor]] = None,
) -> Tensor:
    """The scan half of the forward -> (B, 2) normalized predictions.

    The B user rows (normalized RSSI and user -> AP links) attend over
    `inventory`, the `encode_inventory` result, in both layers. `masks`
    are the dropout masks (user1, user2) of the user rows, or None for no
    dropout.
    """
    user_mask1, user_mask2 = masks if masks is not None else (None, None)
    src1, src2 = inventory
    enc = model.encoders
    users = tape.add_bias(tape.matmul(Tensor(rssi_norm), enc.user_w), enc.user_b)
    users = _dropout(tape, tape.relu(_attend(tape, model.layer1, users, src1, user_adj)),
                     user_mask1)
    users = _dropout(tape, tape.relu(_attend(tape, model.layer2, users, src2, user_adj)),
                     user_mask2)
    return tape.add_bias(tape.matmul(users, model.head_w), model.head_b)


def forward_graph(tape: Tape, model: GtModel, graph: LocGraph) -> Tensor:
    """The forward on all of a graph's user rows -> (B, 2).

    The one place that reuses an inventory half: the model's memo serves
    when the tape does not record, `model.flat` is read-only and the
    graph's AP features and adjacency are the very arrays the memo holds.
    A half is kept only for AP arrays that are read-only and own their
    data, which nothing can write through."""
    feats, adj = graph.ap_features, graph.ap_adjacency
    reusable = not (tape.record or model.flat.flags.writeable) and all(
        not a.flags.writeable and a.base is None for a in (feats, adj))
    memo = model.inventory_memo
    if reusable and memo is not None and memo[0] is feats and memo[1] is adj:
        inventory = memo[2]
    else:
        inventory = encode_inventory(tape, model, feats, adj)
        if reusable:
            model.inventory_memo = (feats, adj, inventory)
    return forward_batch(tape, model, graph.user_features, graph.user_adjacency, inventory)


def denormalize_pred(tape: Tape, pred_norm: Tensor, model: GtModel) -> Tensor:
    """Map normalized (B, 2) predictions to meters through the stored affine."""
    return tape.affine(pred_norm, model.affine_scale, model.affine_offset)


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
    Each epoch is also logged at INFO, with its seconds and scans/s.

    The model trains in float32 (see the module docstring): its weights and
    affine are rebound to a float32 copy of `model.flat`, which the tape
    reads and `adam_step` updates in place. One (P,) float32 gradient
    buffer serves every step: each parameter's `grad` is its view, which a
    step's reverse sweep writes and Adam reads. However training ends, the
    Adam moments are dropped first and the model is then rebound to the
    float64 widening of its weights; the `grad`s hold the last step's
    gradients.
    """
    if len(train_samples) == 0:
        raise EmptyBatch("no training samples")
    graph = build_sample_graph(
        train_samples, inventory, build_ap_adjacency(inventory, graph_cfg), graph_cfg)
    rssi_norm, user_adj = graph.user_features.astype(np.float32), graph.user_adjacency
    ap_feats, truth = graph.ap_features.astype(np.float32), train_samples.truth.astype(np.float32)
    affine = model.affine_offset, model.affine_scale
    # the model lets go of its float64 buffer: training holds no float64 copy
    _bind(model, model.flat.astype(np.float32), *(a.astype(np.float32) for a in affine))
    adam = AdamState(weight_decay=cfg.weight_decay)
    try:
        params = model.parameters().values()
        grad = np.empty_like(model.flat)
        for p, view in zip(params, flat_views(grad, [p.shape for p in params])):
            p.grad = view
        n = len(train_samples)
        history: list[dict[str, float]] = []
        for epoch in range(cfg.epochs):
            start_s = time.perf_counter()
            lr = cosine_lr(cfg.lr, cfg.epochs, epoch)
            order = stream(cfg.seed, "shuffle", epoch).permutation(n)
            loss_sum = 0.0
            for batch_i, start in enumerate(range(0, n, cfg.batch_size)):
                idx = order[start : start + cfg.batch_size]
                masks = None
                if cfg.dropout > 0.0:
                    drop_rng = stream(cfg.seed, "dropout", epoch, batch_i)
                    masks = _batch_masks(model, len(idx), cfg.dropout, drop_rng)
                tape = Tape()
                inventory_half = encode_inventory(tape, model, ap_feats, graph.ap_adjacency)
                pred = forward_batch(tape, model, rssi_norm[idx], user_adj[idx],
                                     inventory_half, masks)
                loss = mae_loss(tape, denormalize_pred(tape, pred, model), truth[idx])
                if not np.isfinite(loss.data):
                    raise TrainingDiverged(epoch, batch_i)
                tape.gradients(loss)
                loss_sum += float(loss.data) * len(idx)
                # the step's activations and backward rules go before Adam runs
                del tape, inventory_half, pred, loss
                adam_step(model.flat, grad, adam, lr)
            history.append({"epoch": float(epoch), "lr": lr, "train_mae": loss_sum / n})
            seconds = time.perf_counter() - start_s
            log.info("epoch %d: lr %.6g, train MAE %.4f m, %.3f s, %.1f scans/s",
                     epoch, lr, loss_sum / n, seconds, n / seconds)
        return history
    finally:
        adam.m = adam.v = None  # the moments go before the float64 copy is made
        _bind(model, model.flat.astype(np.float64), *affine)


# Scans per eval forward in `predict_positions`.
PREDICT_BATCH = 512


def predict_positions(
    model: GtModel,
    samples: ScanSet,
    inventory: ApInventory,
    graph_cfg: GraphConfig,
) -> np.ndarray:
    """Eval-mode predictions in meters, (N, 2). The inventory half is
    encoded once and serves every `PREDICT_BATCH` chunk."""
    graph = build_sample_graph(
        samples, inventory, build_ap_adjacency(inventory, graph_cfg), graph_cfg)
    rssi_norm, user_adj = graph.user_features, graph.user_adjacency
    out = np.empty((len(samples), 2))
    tape = Tape(record=False)
    inventory_half = encode_inventory(tape, model, graph.ap_features, graph.ap_adjacency)
    for start in range(0, len(samples), PREDICT_BATCH):
        sl = slice(start, start + PREDICT_BATCH)
        pred = forward_batch(tape, model, rssi_norm[sl], user_adj[sl], inventory_half)
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


def _old_layout(name: str, shape: tuple[int, ...], hidden: int) -> str:
    """Which earlier layout a parameter's shape is from, if a known one."""
    if name.endswith(".root") and shape == (hidden, hidden):
        return (" (a checkpoint written before the heads shared one root has one "
                "root block per head)")
    if name in ("layer1.key", "layer1.value") and shape == (hidden, hidden):
        return (" (a checkpoint written before layer 1's keys and values acted on "
                "the AP coordinates has them act on the encoded AP rows)")
    return ""


def load_model(path: str | Path) -> GtModel:
    """The model a checkpoint holds, its buffer the read-only loaded blob.

    Read-only weights let `forward_graph` reuse the inventory half (see
    the module docstring); an in-place write raises. A checkpoint without
    the model metadata, with an `ap_count`, `hidden` or `n_heads` that is
    not a positive integer (or `n_heads` not dividing `hidden`), with an
    affine that is not two finite numbers, without one of
    `PARAMETER_NAMES` (such as one written with per-head weights,
    `layer1.head0.w1`), with a parameter of another shape than
    `init_model` gives for its metadata (such as a `layer1.root` with one
    block per head, or the (hidden, hidden) `layer1.key` of the layout
    before layer 1's keys and values acted on the AP coordinates) or with
    its parameters in another order than `_parameter_shapes` raises
    BadCheckpoint.
    """
    header, blob = read_checkpoint(path)
    blob.flags.writeable = False
    layout = {name: tuple(shape) for name, shape, _ in header["params"]}
    meta = header["extra"].get("model")
    if not isinstance(meta, dict):
        raise BadCheckpoint(path, "not a model checkpoint: no 'model'")
    try:
        ap_count, hidden, n_heads = meta["ap_count"], meta["hidden"], meta["n_heads"]
        affine = meta["affine_offset"], meta["affine_scale"]
    except KeyError as exc:
        raise BadCheckpoint(path, f"not a model checkpoint: no {exc}") from exc
    try:
        if not all(is_json_int(x, 1) for x in (ap_count, hidden, n_heads)):
            raise ValueError("not positive integers")
        ModelConfig(hidden, n_heads)
    except ValueError as exc:  # OutOfRange is one
        raise BadCheckpoint(
            path, f"ap_count {ap_count!r}, hidden {hidden!r} and n_heads {n_heads!r} must be "
                  "positive integers, with n_heads dividing hidden") from exc
    for key, a in zip(("affine_offset", "affine_scale"), affine):
        if not (isinstance(a, list) and len(a) == 2 and all(map(is_json_number, a))):
            raise BadCheckpoint(path, f"{key} {a!r} is not two finite numbers")
    missing = [name for name in PARAMETER_NAMES if name not in layout]
    if missing:
        raise BadCheckpoint(
            path, f"no parameter {missing[0]}: the weights are in a layout this "
                  "version no longer reads (per head, as in layer1.head0.w1); "
                  "rerun `sacloc train`")
    shapes = _parameter_shapes(ap_count, hidden, n_heads)
    for name, shape in shapes.items():
        if layout[name] != shape:
            raise BadCheckpoint(
                path, f"parameter {name} has shape {layout[name]}, but the "
                      f"header's ap_count {ap_count}, hidden {hidden} "
                      f"and n_heads {n_heads} need {shape}"
                      f"{_old_layout(name, layout[name], hidden)}; rerun `sacloc train`")
    if [name for name, _, _ in header["params"]] != list(shapes):
        raise BadCheckpoint(
            path, "parameters in another order than this version writes; "
                  "rerun `sacloc train`")
    return _assemble(blob, ap_count, hidden, n_heads, *affine)
