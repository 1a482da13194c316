import gc
import json
import logging
import math
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from sacloc import gtmodel
from sacloc.autodiff import (
    ADAM_BLOCK,
    CHECKPOINT_DTYPE,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    AdamState,
    Tape,
    Tensor,
    adam_step,
    flat_views,
    load_checkpoint,
    save_checkpoint,
)
from sacloc.conformal import calibrate, predict_set
from sacloc.dataset import SENTINEL, ApInventory, ScanSet, SyntheticConfig, generate_synthetic
from sacloc.errors import (
    BadCheckpoint,
    DimensionMismatch,
    EmptyBatch,
    TrainingDiverged,
)
from sacloc.graphbuild import GraphConfig, build_ap_adjacency, build_sample_graph
from sacloc.gtmodel import (
    PARAMETER_NAMES,
    TrainConfig,
    TransformerConvLayer,
    denormalize_pred,
    encode_inventory,
    forward_batch,
    forward_graph,
    load_model,
    mae_loss,
    model_for_inventory,
    predict_positions,
    save_model,
    train,
)
from sacloc.rng import stream

from conftest import (
    rewrite_checkpoint_header,
    with_model,
    write_encoded_key_layout,
    write_fused_root_layout,
    write_per_head_layout,
)

# a float32 overflow or invalid value in a training step fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def random_blocks(in_dim, n_heads, head_dim, seed, w, scale=0.5):
    """One random (in_dim, head_dim) block per head of projection `w`."""
    return [stream(seed, "layer", h, w).normal(size=(in_dim, head_dim)) * scale
            for h in range(n_heads)]


def random_layer(in_dim, out_dim, n_heads, head_dim, seed, scale=0.5):
    """Random heads; the shared root is the mean of `random_roots`."""
    def fused(w):
        return Tensor(np.hstack(random_blocks(in_dim, n_heads, head_dim, seed, w, scale)),
                      requires_grad=True)

    root = np.mean(random_roots(in_dim, n_heads, head_dim, seed, scale), axis=0)
    merge = Tensor(stream(seed, "merge").normal(size=(head_dim, out_dim)) * scale,
                   requires_grad=True)
    return TransformerConvLayer(query=fused(2), key=fused(3), value=fused(1),
                                root=Tensor(root, requires_grad=True),
                                merge=merge, n_heads=n_heads)


def random_roots(in_dim, n_heads, head_dim, seed, scale=0.5):
    """The per-head root blocks behind `random_layer`'s shared root."""
    return random_blocks(in_dim, n_heads, head_dim, seed, 0, scale)


def head_blocks(layer, name):
    """The per-head (in_dim, head_dim) column blocks of one fused projection."""
    return np.hsplit(getattr(layer, name).data, layer.n_heads)


class EmptyNeighborhood(Exception):
    """The reference attention row was asked for a node with no neighbors."""


def attention_coefficients(layer, head_index, features, node, neighbors, sources=None):
    """Reference attention row for one node: softmax of scaled query-key
    dots. The keys act on the rows of `sources` (default `features`)."""
    if len(neighbors) == 0:
        raise EmptyNeighborhood(f"node {node} has no neighbors")
    sources = features if sources is None else sources
    cols = slice(head_index * layer.head_dim, (head_index + 1) * layer.head_dim)
    q = features[node] @ layer.query.data[:, cols]
    k = sources[list(neighbors)] @ layer.key.data[:, cols]
    logits = (k @ q) / math.sqrt(layer.head_dim)
    e = np.exp(logits - logits.max())
    return e / e.sum()


def transformer_conv(tape, layer, features, adjacency):
    """Dense layer application over an (n, h) feature matrix and (n, n) adjacency."""
    return gtmodel._attend(tape, layer, features, gtmodel._sources(tape, layer, features),
                           adjacency)


def dense_layer(layer, feats, adjacency, sources=None):
    """Reference layer application, head by head and node by node from the
    per-head value blocks, in plain numpy: the root transform plus the mean
    over heads of the attention-weighted values, then the merge. The keys
    and values act on the rows of `sources` (default `feats`)."""
    sources = feats if sources is None else sources
    total = np.zeros((feats.shape[0], layer.head_dim))
    for head, value in enumerate(head_blocks(layer, "value")):
        values = sources @ value
        for node in range(feats.shape[0]):
            neighbors = np.nonzero(adjacency[node])[0]
            if len(neighbors):
                beta = attention_coefficients(layer, head, feats, node, list(neighbors),
                                              sources)
                total[node] += beta @ values[neighbors]
    return (feats @ layer.root.data + total / layer.n_heads) @ layer.merge.data


def dense_forward(model, graph, masks=(None, None), encoded_kv=None):
    """Reference single-scan forward over the full (m+1)-node graph of a
    one-scan `LocGraph`, assembled here from its blocks with the user node
    last and no AP -> user link: both layers update every node, and the
    user row feeds the head -> (2,). Layer 1's keys and values act on the
    APs' `[x, y, 1]`, or, given `encoded_kv`, (h, h) key and value that act
    on the encoded AP rows replace them. `masks` are the (h,) dropout rows
    (user1, user2) that multiply the user row after each layer's relu, as
    in training; the AP rows take none."""
    m = graph.ap_features.shape[0]
    adjacency = np.zeros((m + 1, m + 1), dtype=bool)
    adjacency[:m, :m] = graph.ap_adjacency
    (adjacency[m, :m],) = graph.user_adjacency
    enc = model.encoders
    aps = graph.ap_features @ enc.ap_w.data + enc.ap_b.data
    user = graph.user_features @ enc.user_w.data + enc.user_b.data
    feats = np.vstack([aps, user])
    # the user node is no node's source: its NaN row would reach the output
    sources = np.vstack([np.hstack([graph.ap_features, np.ones((m, 1))]),
                         np.full((1, 3), np.nan)])
    layer1 = model.layer1
    if encoded_kv is not None:
        key, value = encoded_kv
        layer1, sources = replace(layer1, key=Tensor(key), value=Tensor(value)), None
    for layer, layer_sources, mask in zip((layer1, model.layer2), (sources, None), masks,
                                          strict=True):
        feats = np.maximum(dense_layer(layer, feats, adjacency, layer_sources), 0.0)
        if mask is not None:
            feats[m] *= mask
    return feats[m] @ model.head_w.data + model.head_b.data


def identity_merge_layer(dim, n_heads, seed):
    """Heads at full width with an identity merge, so the layer output is the
    plain head average."""
    layer = random_layer(dim, dim, n_heads, dim, seed)
    layer.merge = Tensor(np.eye(dim))
    return layer


class TestAttention:
    def test_singleton_neighbor(self):
        layer = random_layer(4, 4, 2, 2, seed=1)
        feats = stream(2, "feat").normal(size=(3, 4))
        beta = attention_coefficients(layer, 0, feats, node=0, neighbors=[2])
        assert np.allclose(beta, [1.0])

    def test_identical_neighbors_split_evenly(self):
        layer = random_layer(4, 4, 2, 2, seed=1)
        feats = stream(2, "feat").normal(size=(3, 4))
        feats[2] = feats[1]
        beta = attention_coefficients(layer, 0, feats, node=0, neighbors=[1, 2])
        assert np.allclose(beta, [0.5, 0.5], atol=1e-12)

    def test_scalar_softmax_oracle(self):
        # one-dimensional head with identity projections: logits are the raw
        # neighbor values, so beta = softmax([0, ln 2]) = [1/3, 2/3]
        layer = TransformerConvLayer(*[Tensor(np.eye(1)) for _ in range(5)], n_heads=1)
        feats = np.array([[1.0], [0.0], [math.log(2.0)]])
        beta = attention_coefficients(layer, 0, feats, node=0, neighbors=[1, 2])
        assert np.allclose(beta, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_empty_neighborhood(self):
        layer = random_layer(4, 4, 1, 4, seed=1)
        with pytest.raises(EmptyNeighborhood):
            attention_coefficients(layer, 0, np.zeros((2, 4)), node=0, neighbors=[])

    def test_rows_sum_to_one(self):
        layer = random_layer(6, 6, 3, 2, seed=4)
        feats = stream(5, "feat").normal(size=(8, 6))
        adj = stream(6, "adj").random((8, 8)) < 0.5
        for node in range(8):
            neighbors = np.nonzero(adj[node])[0]
            if len(neighbors) == 0:
                continue
            for head in range(3):
                beta = attention_coefficients(layer, head, feats, node, list(neighbors))
                assert abs(beta.sum() - 1.0) <= 1e-12
                assert np.all(beta > 0)


class TestTransformerConv:
    def test_singleton_neighbor_closed_form(self):
        layer = identity_merge_layer(5, 2, seed=3)
        feats_np = stream(7, "x").normal(size=(2, 5))
        adj = np.array([[False, True], [False, False]])
        out = transformer_conv(Tape(record=False), layer, Tensor(feats_np), adj).data
        expected = np.mean(
            [feats_np[0] @ root + feats_np[1] @ value for root, value in
             zip(random_roots(5, 2, 5, seed=3), head_blocks(layer, "value"))], axis=0)
        assert np.max(np.abs(out[0] - expected)) <= 1e-12

    def test_isolated_node_root_term_only(self):
        layer = identity_merge_layer(5, 2, seed=3)
        feats_np = stream(8, "x").normal(size=(3, 5))
        adj = np.zeros((3, 3), dtype=bool)
        out = transformer_conv(Tape(record=False), layer, Tensor(feats_np), adj).data
        expected = np.mean([feats_np @ root for root in random_roots(5, 2, 5, seed=3)], axis=0)
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_identity_configuration(self):
        # one head, root = identity, zero messages, identity merge
        layer = TransformerConvLayer(
            query=Tensor(np.eye(4)), key=Tensor(np.eye(4)), value=Tensor(np.zeros((4, 4))),
            root=Tensor(np.eye(4)), merge=Tensor(np.eye(4)), n_heads=1)
        feats_np = stream(9, "x").normal(size=(5, 4))
        adj = stream(10, "adj").random((5, 5)) < 0.5
        out = transformer_conv(Tape(record=False), layer, Tensor(feats_np), adj).data
        assert np.array_equal(out, feats_np)

    def test_duplicated_heads_match_single_head(self):
        single = random_layer(6, 6, 1, 3, seed=11)
        multi = TransformerConvLayer(
            *(Tensor(np.tile(getattr(single, wn).data, 4)) for wn in ("query", "key", "value")),
            root=single.root, merge=single.merge, n_heads=4)
        feats = Tensor(stream(12, "x").normal(size=(7, 6)))
        adj = stream(13, "adj").random((7, 7)) < 0.4
        t = Tape(record=False)
        out_single = transformer_conv(t, single, feats, adj).data
        out_multi = transformer_conv(t, multi, feats, adj).data
        assert np.array_equal(out_single, out_multi)

    def test_permutation_equivariance(self):
        layer1 = random_layer(6, 6, 2, 3, seed=14)
        layer2 = random_layer(6, 6, 2, 3, seed=15)
        n = 9
        feats_np = stream(16, "x").normal(size=(n, 6))
        adj = stream(17, "adj").random((n, n)) < 0.4
        np.fill_diagonal(adj, False)

        def run(f, a):
            t = Tape(record=False)
            h = t.relu(transformer_conv(t, layer1, Tensor(f), a))
            return transformer_conv(t, layer2, h, a).data

        base = run(feats_np, adj)
        perm = stream(18, "perm").permutation(n)
        permuted = run(feats_np[perm], adj[perm][:, perm])
        assert np.max(np.abs(permuted - base[perm])) <= 1e-9


class TestSharedRoot:
    """One root weight per layer, shared by the heads, added after the head mean."""

    def test_matches_per_head_roots(self):
        # the formula with one root block R_i per head, added to that head's
        # messages before the head mean, against the layer whose shared root
        # is mean_i R_i
        n_heads, dim, head_dim, n = 4, 6, 3, 7
        layer = random_layer(dim, dim, n_heads, head_dim, seed=19)
        roots = Tensor(np.hstack(random_roots(dim, n_heads, head_dim, seed=19)))
        feats = Tensor(stream(20, "x").normal(size=(n, dim)))
        adj = stream(21, "adj").random((n, n)) < 0.4
        adj[0] = False  # a row that receives its root transform only
        t = Tape(record=False)
        messages = t.multi_head_attention(
            t.matmul(feats, layer.query), t.matmul(feats, layer.key),
            t.matmul(feats, layer.value), adj, n_heads)
        per_head = t.matmul(t.head_mean(t.add(t.matmul(feats, roots), messages), n_heads),
                            layer.merge).data
        shared = transformer_conv(t, layer, feats, adj).data
        assert np.max(np.abs(shared - per_head)) <= 1e-12

    def test_init_root_is_mean_of_per_head_draws(self, line_inventory):
        # every weight, bit for bit: the float32 rounding of the Xavier draws
        # of its streams, the head blocks side by side, the root the mean of
        # the per-head draws
        seed = 7
        for hidden, n_heads in ((8, 2), (12, 4)):
            head_dim = hidden // n_heads
            model = model_for_inventory(line_inventory, hidden=hidden, n_heads=n_heads,
                                        seed=seed)

            def xavier(shape, *tag):
                limit = math.sqrt(6.0 / (shape[0] + shape[1]))
                return stream(seed, "init", *tag).uniform(-limit, limit, shape)

            def blocks(tag, w):
                return [xavier((hidden, head_dim), tag, hi, w) for hi in range(n_heads)]

            # layer 1's key and value blocks act on the encoded AP rows,
            # [x, y, 1] @ [enc.ap.w; enc.ap.b]: their product with the stored
            # encoder is stored
            sources = np.vstack([xavier((2, hidden), "enc.ap"), np.zeros(hidden)])
            sources = sources.astype(np.float32).astype(np.float64)
            want = {"enc.user.w": xavier((3, hidden), "enc.user"),
                    "enc.user.b": np.zeros(hidden),
                    "enc.ap.w": xavier((2, hidden), "enc.ap"), "enc.ap.b": np.zeros(hidden),
                    "head.w": xavier((hidden, 2), "head"), "head.b": np.zeros(2)}
            for tag in ("layer1", "layer2"):
                on = (lambda b: sources @ b) if tag == "layer1" else (lambda b: b)
                want |= {f"{tag}.query": np.hstack(blocks(tag, "w3")),
                         f"{tag}.key": np.hstack([on(b) for b in blocks(tag, "w4")]),
                         f"{tag}.value": np.hstack([on(b) for b in blocks(tag, "w2")]),
                         f"{tag}.root": np.mean(blocks(tag, "w1"), axis=0),
                         f"{tag}.merge": xavier((head_dim, hidden), tag, "merge")}
            params = model.parameters()
            assert sorted(params) == sorted(want)
            for name, p in params.items():
                stored = want[name].astype(np.float32).astype(np.float64)
                assert p.data.shape == want[name].shape, (n_heads, name)
                assert p.data.tobytes() == stored.tobytes(), (n_heads, name)

    @pytest.mark.parametrize("hidden, n_heads, ap_count", [(8, 2, 3), (64, 4, 20), (500, 4, 20)])
    def test_fresh_weights_are_float32_values(self, hidden, n_heads, ap_count):
        # what `train` steps in float32 and widens back loses nothing, so a
        # fresh model trained at lr 0 keeps its float64 weights bit for bit
        model = gtmodel.init_model(ap_count, (np.zeros(2), np.ones(2)), hidden=hidden,
                                   n_heads=n_heads, seed=3)
        assert model.flat.dtype == np.float64
        assert model.flat.astype(np.float32).astype(np.float64).tobytes() == \
            model.flat.tobytes()
        assert np.count_nonzero(model.flat) > model.flat.size // 2

    def test_init_draws_into_the_buffer(self):
        # each weight is drawn into its slice of the buffer, so the draws
        # never sit next to a full copy of the buffer
        tracemalloc.start()
        try:
            model = gtmodel.init_model(20, (np.zeros(2), np.ones(2)), hidden=256, n_heads=4,
                                       seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * model.flat.nbytes

    def test_reference_width_parameter_count(self):
        inventory = ApInventory(ap_ids=tuple(f"ap{i}" for i in range(20)),
                                coordinates=stream(22, "aps").uniform(0.0, 50.0, (20, 2)))
        params = model_for_inventory(inventory, hidden=500, n_heads=4, seed=11).parameters()
        assert sum(p.data.size for p in params.values()) == 1_266_002
        assert params["layer1.root"].shape == params["layer2.root"].shape == (500, 125)
        assert params["layer1.key"].shape == params["layer1.value"].shape == (3, 500)
        assert {name: p.shape for name, p in params.items()} == \
            gtmodel._parameter_shapes(20, 500, 4)


class TestModelForward:
    def test_eval_deterministic(self, small_world, graph_cfg):
        _, inventory, samples = small_world
        ap_adj = build_ap_adjacency(inventory, graph_cfg)
        graph = build_sample_graph(samples[0], inventory, ap_adj, graph_cfg)
        model = model_for_inventory(inventory, hidden=16, n_heads=2, seed=5)
        a = forward_graph(Tape(record=False), model, graph).data[0]
        b = forward_graph(Tape(record=False), model, graph).data[0]
        assert np.array_equal(a, b)

    def test_zero_weights_predict_origin(self, small_world, graph_cfg):
        _, inventory, samples = small_world
        ap_adj = build_ap_adjacency(inventory, graph_cfg)
        graph = build_sample_graph(samples[0], inventory, ap_adj, graph_cfg)
        model = model_for_inventory(inventory, hidden=16, n_heads=2, seed=5)
        for p in model.parameters().values():
            p.data[...] = 0.0
        pred = forward_graph(Tape(record=False), model, graph).data[0]
        assert np.array_equal(pred, [0.0, 0.0])

    def test_dimension_mismatch(self, small_world, graph_cfg, line_inventory):
        _, inventory, samples = small_world
        ap_adj = build_ap_adjacency(inventory, graph_cfg)
        graph = build_sample_graph(samples[0], inventory, ap_adj, graph_cfg)
        wrong = model_for_inventory(line_inventory, hidden=8, n_heads=2, seed=0)
        with pytest.raises(DimensionMismatch, match="graph has 6 APs, model expects 3"):
            forward_graph(Tape(record=False), wrong, graph)
        with pytest.raises(DimensionMismatch, match="graph has 6 APs, model expects 3"):
            predict_positions(wrong, samples, inventory, graph_cfg)
        with pytest.raises(DimensionMismatch, match="graph has 6 APs, model expects 3"):
            train(wrong, samples, TrainConfig(epochs=1, batch_size=16), graph_cfg, inventory)

    def test_messages_change_prediction(self, small_world):
        # identical user features, edges present vs filtered out by tau
        cfg, inventory, samples = small_world
        model = model_for_inventory(inventory, hidden=16, n_heads=2, seed=5)
        tc = TrainConfig(epochs=5, batch_size=16, base_lr=3e-3, dropout=0.0,
                         weight_decay=0.0, seed=5)
        train(model, samples, tc, GraphConfig(d_p=25.0, tau=-75.0), inventory)

        loose = GraphConfig(d_p=25.0, tau=-120.0)
        strict = GraphConfig(d_p=25.0, tau=-0.001)
        ap_adj = build_ap_adjacency(inventory, loose)
        sample = samples[0]
        with_edges = build_sample_graph(sample, inventory, ap_adj, loose)
        without = build_sample_graph(sample, inventory, ap_adj, strict)
        assert with_edges.user_adjacency.any()
        assert not without.user_adjacency.any()
        assert np.array_equal(with_edges.user_features, without.user_features)
        pa = forward_graph(Tape(record=False), model, with_edges).data[0]
        pb = forward_graph(Tape(record=False), model, without).data[0]
        assert not np.allclose(pa, pb)

    def test_dense_matches_factorized(self, small_world, graph_cfg, tmp_path):
        _, inventory, samples = small_world
        model = model_for_inventory(inventory, hidden=16, n_heads=2, seed=5)
        ap_adj = build_ap_adjacency(inventory, graph_cfg)
        whole = build_sample_graph(samples, inventory, ap_adj, graph_cfg)
        t = Tape(record=False)
        batched = forward_graph(t, model, whole).data
        graphs = [build_sample_graph(s, inventory, ap_adj, graph_cfg) for s in samples]
        dense = np.stack([dense_forward(model, g) for g in graphs])
        per_scan = np.stack([forward_graph(t, model, g).data[0] for g in graphs])
        assert np.max(np.abs(batched - dense)) <= 1e-12
        assert np.max(np.abs(per_scan - dense)) <= 1e-12

        # a loaded (read-only) copy: memo cold, memo warm, then batched
        save_model(tmp_path / "model.bin", model)
        loaded = load_model(tmp_path / "model.bin")
        cold = forward_graph(t, loaded, graphs[0]).data[0]
        assert loaded.inventory_memo is not None
        warm = np.stack([forward_graph(t, loaded, g).data[0] for g in graphs])
        batched = forward_graph(t, loaded, whole).data
        assert np.max(np.abs(cold - dense[0])) <= 1e-12
        assert np.max(np.abs(warm - dense)) <= 1e-12
        assert np.max(np.abs(batched - dense)) <= 1e-12
        assert np.array_equal(predict_positions(loaded, samples, inventory, graph_cfg),
                              predict_positions(model, samples, inventory, graph_cfg))

    def test_fresh_model_predicts_the_encoded_key_formula(self, small_world, graph_cfg):
        # layer 1's keys and values were (coords @ ap_w + ap_b) @ key, with an
        # (h, h) key drawn head block by head block; a fresh model stores the
        # rounded (3, h) product of the same draws, and the exact product
        # predicts what that formula does
        _, inventory, samples = small_world
        hidden, n_heads, seed = 64, 4, 5
        head_dim = hidden // n_heads
        model = model_for_inventory(inventory, hidden=hidden, n_heads=n_heads, seed=seed)
        limit = math.sqrt(6.0 / (hidden + head_dim))

        def drawn(w):
            return np.hstack([stream(seed, "init", "layer1", hi, w).uniform(
                -limit, limit, (hidden, head_dim)) for hi in range(n_heads)])

        # stored: the float32 rounding of the exact products with the stored
        # encoder, [enc.ap.w; enc.ap.b] @ the draws
        enc, layer1 = model.encoders, model.layer1
        sources = np.vstack([enc.ap_w.data, enc.ap_b.data])
        for weight, w in ((layer1.key, "w4"), (layer1.value, "w2")):
            exact = sources @ drawn(w)
            assert weight.data.tobytes() == \
                exact.astype(np.float32).astype(np.float64).tobytes(), w
            weight.data[...] = exact
        # the two formulas agree on the exact products
        ap_adj = build_ap_adjacency(inventory, graph_cfg)
        want = np.stack([
            dense_forward(model, build_sample_graph(s, inventory, ap_adj, graph_cfg),
                          encoded_kv=(drawn("w4"), drawn("w2")))
            for s in samples]) * model.affine_scale + model.affine_offset
        got = predict_positions(model, samples, inventory, graph_cfg)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("hidden", [64, 500])
    @pytest.mark.parametrize("ap_count", [20, 200, 520, 10, 125])
    def test_coordinate_scoring_matches_the_query_association(self, hidden, ap_count):
        # layer 1 scores targets @ (query_i key_iᵀ) against [x, y, 1], and
        # layer 2, when 4 * m < h, targets @ (query_i (aps key_i)ᵀ) against
        # the AP rows: at (64, 10), (500, 20) and (500, 10), not at the
        # boundary (500, 125); the dense reference forms each query
        # targets @ query_i first, as the textbook layer does
        cfg = SyntheticConfig(
            ap_count=ap_count, area=(100.0, 40.0), path_loss_exponent=2.2,
            ref_power_dbm=-40.0, noise_sigma_db=4.0, detection_floor_dbm=-95.0,
            sample_count=1, seed=ap_count)
        inventory, samples = generate_synthetic(cfg)
        graph_cfg = GraphConfig(d_p=20.0, tau=-75.0)
        model = model_for_inventory(inventory, hidden=hidden, n_heads=4, seed=hidden)
        graph = build_sample_graph(
            samples, inventory, build_ap_adjacency(inventory, graph_cfg), graph_cfg)
        assert graph.user_adjacency.any() and graph.ap_adjacency.any()
        want = dense_forward(model, graph) * model.affine_scale + model.affine_offset
        got = predict_positions(model, samples, inventory, graph_cfg)
        assert np.max(np.abs(got - want)) <= 1e-9

    def test_training_forward_matches_dense_per_scan(self, small_world, graph_cfg):
        # with dropout, the batched forward is still the block-diagonal graph:
        # each scan's prediction is its own dense forward with its mask rows
        _, inventory, samples = small_world
        model = model_for_inventory(inventory, hidden=16, n_heads=2, seed=5)
        ap_adj = build_ap_adjacency(inventory, graph_cfg)
        whole = build_sample_graph(samples, inventory, ap_adj, graph_cfg)
        masks = gtmodel._batch_masks(model, len(samples), 0.4, stream(5, "masks"))
        assert all((mask.data == 0.0).any() for mask in masks)
        tape = Tape()
        inventory_half = encode_inventory(tape, model, whole.ap_features, whole.ap_adjacency)
        batched = forward_batch(tape, model, whole.user_features, whole.user_adjacency,
                                inventory_half, masks).data
        for i, sample in enumerate(samples):
            graph = build_sample_graph(sample, inventory, ap_adj, graph_cfg)
            dense = dense_forward(model, graph, [mask.data[i] for mask in masks])
            assert np.max(np.abs(batched[i] - dense)) <= 1e-12, i


class TestNoWidthHLayer1Query:
    """`layer1.query` reaches the targets only through its query-key product."""

    @staticmethod
    def right_operands(monkeypatch):
        seen = []
        matmul = Tape.matmul
        monkeypatch.setattr(Tape, "matmul",
                            lambda tape, a, b: seen.append(b) or matmul(tape, a, b))
        return seen

    def test_training_step(self, small_world, graph_cfg, monkeypatch):
        _, inventory, samples = small_world
        seen = self.right_operands(monkeypatch)
        model = model_for_inventory(inventory, hidden=8, n_heads=2, seed=5)
        train(model, samples[:16], TrainConfig(epochs=1, batch_size=16, dropout=0.2, seed=5),
              graph_cfg, inventory)
        names = [b.name for b in seen]
        assert "layer2.query" in names and "layer1.value" in names
        assert "layer1.query" not in names and "layer1.key" not in names

    def test_warm_scan(self, small_world, graph_cfg, monkeypatch, tmp_path):
        _, inventory, samples = small_world
        save_model(tmp_path / "model.bin", model_for_inventory(inventory, hidden=8, n_heads=2,
                                                               seed=5))
        model = load_model(tmp_path / "model.bin")
        ap_adj = build_ap_adjacency(inventory, graph_cfg)
        graphs = [build_sample_graph(s, inventory, ap_adj, graph_cfg) for s in samples[:3]]
        forward_graph(Tape(record=False), model, graphs[0])
        seen = self.right_operands(monkeypatch)
        for graph in graphs[1:]:
            forward_graph(Tape(record=False), model, graph)
        assert seen and "layer1.query" not in [b.name for b in seen]
        # the memo holds layer 1's (h, 3 * heads) map, not (m, h) keys
        query_map, keys, values = model.inventory_memo[2][0]
        assert query_map.shape == (8, 6) and keys.shape == (6, 6) and values.shape == (6, 8)


class TestLayer2Fold:
    """When heads * m < h, layer 2 scores against the AP rows: `layer2.query`
    reaches the targets only through its (h, heads * m) product with the
    AP keys, which a warm scan reuses."""

    @pytest.mark.parametrize("ap_count, folded", [(20, True), (200, False)])
    def test_layer2_query_meets_no_targets(self, ap_count, folded, graph_cfg, monkeypatch,
                                           tmp_path):
        cfg = SyntheticConfig(
            ap_count=ap_count, area=(100.0, 40.0), path_loss_exponent=2.2,
            ref_power_dbm=-40.0, noise_sigma_db=4.0, detection_floor_dbm=-95.0,
            sample_count=8, seed=ap_count)
        inventory, samples = generate_synthetic(cfg)
        model = model_for_inventory(inventory, hidden=500, n_heads=4, seed=5)
        seen = TestNoWidthHLayer1Query.right_operands(monkeypatch)
        train(model, samples, TrainConfig(epochs=1, batch_size=8, seed=5), graph_cfg, inventory)
        assert len(seen) > 1 and ("layer2.query" in [b.name for b in seen]) is not folded

        save_model(tmp_path / "model.bin", model)
        loaded = load_model(tmp_path / "model.bin")
        ap_adj = build_ap_adjacency(inventory, graph_cfg)
        graphs = [build_sample_graph(s, inventory, ap_adj, graph_cfg) for s in samples[:3]]
        forward_graph(Tape(record=False), loaded, graphs[0])
        seen.clear()
        for graph in graphs[1:]:
            forward_graph(Tape(record=False), loaded, graph)
        assert seen and ("layer2.query" in [b.name for b in seen]) is not folded
        # the memo holds the (h, 4m) map in place of the (m, h) keys
        query_map, keys, _ = loaded.inventory_memo[2][1]
        if folded:
            assert query_map.shape == (500, 80) and keys.shape == (20, 80)
        else:
            assert query_map is loaded.layer2.query and keys.shape == (200, 500)

    def test_warm_scan_builds_no_map(self, small_world, graph_cfg, monkeypatch, tmp_path):
        _, inventory, samples = small_world
        save_model(tmp_path / "model.bin",
                   model_for_inventory(inventory, hidden=32, n_heads=2, seed=5))
        model = load_model(tmp_path / "model.bin")
        ap_adj = build_ap_adjacency(inventory, graph_cfg)
        graphs = [build_sample_graph(s, inventory, ap_adj, graph_cfg) for s in samples[:3]]
        forward_graph(Tape(record=False), model, graphs[0])
        calls = []
        products = Tape.head_products
        monkeypatch.setattr(Tape, "head_products",
                            lambda *a: calls.append(1) or products(*a))
        for graph in graphs[1:]:
            forward_graph(Tape(record=False), model, graph)
        assert calls == []
        # a cold forward builds layer 1's map and layer 2's
        forward_graph(Tape(record=False), load_model(tmp_path / "model.bin"), graphs[0])
        assert calls == [1, 1]

    def test_query_partials_skip_the_copy(self, small_world, graph_cfg, monkeypatch):
        # both queries' partials come from `head_products`, which writes
        # them into their grad views; the sweep copies other first partials
        _, inventory, samples = small_world
        model = model_for_inventory(inventory, hidden=32, n_heads=2, seed=5)
        params = model.parameters()
        targets = []
        copyto = np.copyto

        def spy(dst, src, *args, **kwargs):
            targets.append(dst)
            return copyto(dst, src, *args, **kwargs)

        monkeypatch.setattr(np, "copyto", spy)
        train(model, samples[:16], TrainConfig(epochs=1, batch_size=16, seed=5), graph_cfg,
              inventory)
        assert any(np.shares_memory(dst, params["head.b"].grad) for dst in targets)
        for name in ("layer1.query", "layer2.query"):
            assert not any(np.shares_memory(dst, params[name].grad) for dst in targets), name
            assert np.any(params[name].grad != 0.0), name


class TestInventoryMemo:
    """Eval forwards on a loaded model reuse the inventory half."""

    @pytest.fixture
    def loaded(self, small_world, graph_cfg, tmp_path):
        _, inventory, samples = small_world
        model = model_for_inventory(inventory, hidden=16, n_heads=2, seed=5)
        train(model, samples, TrainConfig(epochs=2, batch_size=16, seed=5),
              graph_cfg, inventory)
        save_model(tmp_path / "model.bin", model)
        return tmp_path / "model.bin", inventory, samples

    def test_other_adjacency_recomputes(self, loaded, graph_cfg):
        path, inventory, samples = loaded
        model = load_model(path)
        near = GraphConfig(d_p=5.0, tau=graph_cfg.tau)
        assert not np.array_equal(build_ap_adjacency(inventory, graph_cfg),
                                  build_ap_adjacency(inventory, near))
        predict_positions(model, samples, inventory, graph_cfg)
        reused = predict_positions(model, samples, inventory, near)
        fresh = predict_positions(load_model(path), samples, inventory, near)
        assert np.array_equal(reused, fresh)

    def test_loaded_weights_are_read_only(self, loaded):
        model = load_model(loaded[0])
        for p in model.parameters().values():
            with pytest.raises(ValueError, match="read-only"):
                p.data[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            model.head_w.data += 1.0

    @staticmethod
    def encode_calls(monkeypatch):
        calls = []
        encode = gtmodel.encode_inventory
        monkeypatch.setattr(gtmodel, "encode_inventory",
                            lambda *a, **k: calls.append(1) or encode(*a, **k))
        return calls

    def test_same_arrays_skip_the_compare(self, loaded, graph_cfg, monkeypatch):
        # graphs over one inventory and AP block share its arrays, so a warm
        # forward matches them by identity and compares no values; an equal
        # writeable copy is encoded afresh and leaves the memo as it was,
        # and an equal read-only copy is encoded and replaces it
        path, inventory, samples = loaded
        model = load_model(path)
        ap_adj = build_ap_adjacency(inventory, graph_cfg)
        first, second = (build_sample_graph(s, inventory, ap_adj, graph_cfg)
                         for s in samples[:2])
        assert second.ap_features is first.ap_features is inventory.normalized_coordinates
        assert not first.ap_features.flags.writeable and not ap_adj.flags.writeable
        forward_graph(Tape(record=False), model, first)
        memo = model.inventory_memo
        assert memo[0] is first.ap_features and memo[1] is ap_adj

        calls = self.encode_calls(monkeypatch)
        compares = []
        array_equal = np.array_equal
        monkeypatch.setattr(np, "array_equal",
                            lambda *a, **k: compares.append(1) or array_equal(*a, **k))
        warm = forward_graph(Tape(record=False), model, second).data
        assert calls == []
        copied = replace(second, ap_features=second.ap_features.copy(),
                         ap_adjacency=ap_adj.copy())
        assert np.array_equal(forward_graph(Tape(record=False), model, copied).data, warm)
        assert calls == [1] and model.inventory_memo is memo
        for a in (copied.ap_features, copied.ap_adjacency):
            a.flags.writeable = False
        assert np.array_equal(forward_graph(Tape(record=False), model, copied).data, warm)
        assert calls == [1, 1]
        assert model.inventory_memo[0] is copied.ap_features
        assert model.inventory_memo[1] is copied.ap_adjacency
        assert len(compares) == 2  # the two asserts above, none in the forwards

    def test_mutated_writeable_adjacency_is_not_reused(self, loaded, graph_cfg):
        # a read-only model keeps no half of AP arrays that can be written
        # in place, so a mutated adjacency predicts what a fresh load does
        path, inventory, samples = loaded
        model = load_model(path)
        ap_adj = np.array(build_ap_adjacency(inventory, graph_cfg))
        assert ap_adj.flags.writeable
        graph = build_sample_graph(samples, inventory, ap_adj, graph_cfg)
        before = forward_graph(Tape(record=False), model, graph).data
        assert model.inventory_memo is None
        ap_adj[...] = build_ap_adjacency(inventory, GraphConfig(d_p=5.0, tau=graph_cfg.tau))
        after = forward_graph(Tape(record=False), model, graph).data
        fresh = forward_graph(Tape(record=False), load_model(path), graph).data
        assert not np.array_equal(before, after)
        assert np.array_equal(after, fresh)

    def test_predict_positions_encodes_once(self, loaded, graph_cfg, monkeypatch):
        # every PREDICT_BATCH chunk shares one inventory half, read-only
        # model or not, and nothing is kept on the model
        path, inventory, samples = loaded
        many = samples[np.arange(gtmodel.PREDICT_BATCH + 100) % len(samples)]
        chunks = []
        batch = gtmodel.forward_batch
        monkeypatch.setattr(gtmodel, "forward_batch",
                            lambda *a, **k: chunks.append(1) or batch(*a, **k))
        calls = self.encode_calls(monkeypatch)
        for model in (load_model(path), model_for_inventory(inventory, 16, 2, 5)):
            calls.clear()
            chunks.clear()
            predict_positions(model, many, inventory, graph_cfg)
            assert calls == [1] and len(chunks) == 2
            assert model.inventory_memo is None

    def test_writeable_model_keeps_no_memo(self, small_world, graph_cfg):
        _, inventory, samples = small_world
        model = model_for_inventory(inventory, hidden=16, n_heads=2, seed=5)
        predict_positions(model, samples, inventory, graph_cfg)
        ap_adj = build_ap_adjacency(inventory, graph_cfg)
        graph = build_sample_graph(samples[0], inventory, ap_adj, graph_cfg)
        forward_graph(Tape(record=False), model, graph)
        assert model.inventory_memo is None

    def test_warm_predict_set_encodes_nothing(self, loaded, graph_cfg, monkeypatch):
        path, inventory, samples = loaded
        model = load_model(path)
        truths = np.stack([s.truth for s in samples])
        cal = calibrate(truths, truths, alpha=0.2, k=2, seed=5)
        ap_adj = build_ap_adjacency(inventory, graph_cfg)
        graphs = [build_sample_graph(s, inventory, ap_adj, graph_cfg) for s in samples]
        predict_set(model, cal, graphs[0])

        calls = []
        encode = gtmodel.encode_inventory
        monkeypatch.setattr(gtmodel, "encode_inventory",
                            lambda *a, **k: calls.append(1) or encode(*a, **k))
        for g in graphs[1:]:
            predict_set(model, cal, g)
        assert calls == []
        # the spy sees the calls a writeable model makes
        predict_set(model_for_inventory(inventory, hidden=16, n_heads=2, seed=5), cal, graphs[0])
        assert calls == [1]

    def test_warm_predict_set_tiles_nothing(self, loaded, graph_cfg, monkeypatch):
        # a warm scan runs the user rows and the output affine only: the
        # affine broadcasts its (2,) constants, so no np.tile is left on it
        path, inventory, samples = loaded
        model = load_model(path)
        truths = np.stack([s.truth for s in samples])
        cal = calibrate(truths, truths, alpha=0.2, k=2, seed=5)
        ap_adj = build_ap_adjacency(inventory, graph_cfg)
        graphs = [build_sample_graph(s, inventory, ap_adj, graph_cfg) for s in samples]
        predict_set(model, cal, graphs[0])

        calls = []
        tile = np.tile
        monkeypatch.setattr(np, "tile", lambda *a, **k: calls.append(1) or tile(*a, **k))
        for g in graphs[1:]:
            predict_set(model, cal, g)
        assert calls == []
        # the spy sees the tiled keys a cold inventory half makes
        predict_set(model_for_inventory(inventory, hidden=16, n_heads=2, seed=5), cal, graphs[0])
        assert calls


class TestDenormalize:
    def test_one_node_equal_to_the_tiled_affine(self):
        # x * scale + offset with the (2,) affine broadcast: the bits of the
        # tiled mul-then-add it replaced, as one node whose backward is g * scale
        rng = stream(7, "denormalize")
        for dtype in (np.float32, np.float64):
            model = SimpleNamespace(affine_offset=rng.normal(size=2).astype(dtype) * 50.0,
                                    affine_scale=rng.uniform(20.0, 60.0, size=2).astype(dtype))
            pred = Tensor(rng.normal(size=(4, 2)).astype(dtype), requires_grad=True)
            w = rng.normal(size=(4, 2)).astype(dtype)
            t = Tape()
            out = denormalize_pred(t, pred, model)
            assert len(t._nodes) == 1
            tiled = [np.tile(a, (4, 1)) for a in (model.affine_scale, model.affine_offset)]
            assert out.data.dtype == dtype
            assert out.data.tobytes() == (pred.data * tiled[0] + tiled[1]).tobytes()
            t.backward(t.sum_all(t.mul(out, Tensor(w))))
            assert pred.grad.tobytes() == (w * tiled[0]).tobytes()


class TestMaeLoss:
    def test_zero_for_exact(self):
        t = Tape(record=False)
        pred = Tensor([[1.0, 2.0]])
        assert float(mae_loss(t, pred, np.array([[1.0, 2.0]])).data) == 0.0

    def test_l1_of_coordinates(self):
        t = Tape(record=False)
        loss = mae_loss(t, Tensor([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
        assert float(loss.data) == pytest.approx(7.0)

    def test_batch_mean(self):
        t = Tape(record=False)
        loss = mae_loss(t, Tensor([[0.0, 0.0], [0.0, 0.0]]),
                        np.array([[2.0, 0.0], [0.0, 4.0]]))
        assert float(loss.data) == pytest.approx(3.0)

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            mae_loss(Tape(record=False), Tensor(np.zeros((0, 2))), np.zeros((0, 2)))


class TestFullModelGradient:
    def test_gradcheck_small(self, graph_cfg):
        # 4 APs + user, E=2: the full training loss against central finite
        # differences, at h=8 and at h=12, where layer 2 scores against
        # the AP rows (2 * 4 < 12)
        from sacloc.dataset import ApInventory

        rng = stream(21, "gradcheck")
        inventory = ApInventory(
            ap_ids=tuple(f"g{i}" for i in range(4)),
            coordinates=rng.uniform(0, 30, (4, 2)))
        samples = ScanSet(
            rssi=[[-55.0, -65.0, SENTINEL, -72.0], [-80.0, SENTINEL, -60.0, -70.0]],
            truth=[[4.0, 9.0], [11.0, 3.0]])
        graph = build_sample_graph(
            samples, inventory, build_ap_adjacency(inventory, graph_cfg), graph_cfg)
        for hidden, folded in ((8, False), (12, True)):
            model = model_for_inventory(inventory, hidden=hidden, n_heads=2, seed=21)
            t = Tape()
            pred = forward_graph(t, model, graph)
            t.backward(mae_loss(t, denormalize_pred(t, pred, model), samples.truth))
            products = sum(backward.__qualname__.startswith("Tape.head_products.")
                           for _, _, backward in t._nodes)
            assert products == 1 + folded, hidden
            assert self.worst_error(model, graph, samples) < 1e-4, hidden

    @staticmethod
    def worst_error(model, graph, samples):
        """The largest gap between each parameter's gradient and its central
        finite difference, relative where the difference exceeds 1."""

        def loss_fn():
            t = Tape(record=False)
            pred = forward_graph(t, model, graph)
            return float(mae_loss(t, denormalize_pred(t, pred, model), samples.truth).data)

        step = 1e-5
        worst = 0.0
        for name, p in model.parameters().items():
            flat, gflat = p.data.ravel(), p.grad.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = loss_fn()
                flat[i] = orig - step
                down = loss_fn()
                flat[i] = orig
                fd = (up - down) / (2 * step)
                worst = max(worst, abs(gflat[i] - fd) / max(1.0, abs(fd)))
        return worst


class TestTrain:
    @pytest.mark.parametrize("weight_decay", [-0.1, math.nan])
    def test_config_refuses_negative_or_nan_weight_decay(self, weight_decay):
        with pytest.raises(ValueError, match="weight_decay must be nonnegative"):
            TrainConfig(weight_decay=weight_decay)

    def test_lr_zero_leaves_parameters(self, small_world, graph_cfg):
        _, inventory, samples = small_world
        model = model_for_inventory(inventory, hidden=8, n_heads=2, seed=5)
        before = {k: p.data.copy() for k, p in model.parameters().items()}
        tc = TrainConfig(epochs=3, batch_size=16, base_lr=0.0, weight_decay=0.0,
                         dropout=0.0, seed=5)
        train(model, samples, tc, graph_cfg, inventory)
        for k, p in model.parameters().items():
            assert np.array_equal(p.data, before[k]), k

    def test_deterministic_loss_log(self, small_world, graph_cfg):
        _, inventory, samples = small_world
        tc = TrainConfig(epochs=3, batch_size=16, base_lr=1e-3, dropout=0.3, seed=9)
        logs = []
        for _ in range(2):
            model = model_for_inventory(inventory, hidden=8, n_heads=2, seed=9)
            logs.append(train(model, samples, tc, graph_cfg, inventory))
        assert logs[0] == logs[1]

    def test_diverged_reports_epoch(self, small_world, graph_cfg, monkeypatch):
        _, inventory, samples = small_world
        model = model_for_inventory(inventory, hidden=8, n_heads=2, seed=5)
        model.head_w.data[0, 0] = np.nan
        tc = TrainConfig(epochs=2, batch_size=16, seed=5)
        with pytest.raises(TrainingDiverged) as err:
            train(model, samples, tc, graph_cfg, inventory)
        assert (err.value.epoch, err.value.batch) == (0, 0)

        # 40 scans in batches of 16 are 3 batches an epoch, so the fifth
        # loss is epoch 1, batch 1
        losses = []
        mae = gtmodel.mae_loss

        def nan_on_fifth(tape, pred, truth):
            losses.append(mae(tape, pred, truth))
            return tape.scale(losses[-1], np.nan) if len(losses) == 5 else losses[-1]

        monkeypatch.setattr(gtmodel, "mae_loss", nan_on_fifth)
        model = model_for_inventory(inventory, hidden=8, n_heads=2, seed=5)
        with pytest.raises(TrainingDiverged, match="epoch 1, batch 1") as err:
            train(model, samples, tc, graph_cfg, inventory)
        assert (err.value.epoch, err.value.batch) == (1, 1)

    def test_model_is_float64_after_divergence(self, small_world, graph_cfg):
        # the float32 training buffer is widened back on the way out of a
        # raise too, the affine restored as it was
        _, inventory, samples = small_world
        model = model_for_inventory(inventory, hidden=8, n_heads=2, seed=5)
        model.head_w.data[0, 0] = np.nan
        before, affine = model.flat.copy(), (model.affine_offset, model.affine_scale)
        with pytest.raises(TrainingDiverged):
            train(model, samples, TrainConfig(epochs=2, batch_size=16, seed=5),
                  graph_cfg, inventory)
        assert model.flat.dtype == np.float64 and model.flat.tobytes() == before.tobytes()
        params = model.parameters().values()
        for p, view in zip(params, flat_views(model.flat, [p.shape for p in params])):
            assert p.data.dtype == np.float64 and np.shares_memory(p.data, view), p.name
        assert model.affine_offset is affine[0] and model.affine_scale is affine[1]

    def test_epochs_are_logged_at_info(self, small_world, graph_cfg, caplog, tmp_path):
        # one line an epoch with its lr, train MAE, seconds and scans/s; the
        # loss log holds the history only, no timing
        _, inventory, samples = small_world
        model = model_for_inventory(inventory, hidden=8, n_heads=2, seed=5)
        caplog.set_level(logging.INFO, logger="sacloc.gtmodel")
        tc = TrainConfig(epochs=3, batch_size=16, seed=5)
        history = train(model, samples, tc, graph_cfg, inventory)
        records = [r for r in caplog.records if r.name == "sacloc.gtmodel"]
        assert len(records) == 3 and {r.levelno for r in records} == {logging.INFO}
        for row, record in zip(history, records, strict=True):
            epoch, lr, mae, seconds, rate = record.args
            assert (epoch, lr, mae) == (int(row["epoch"]), row["lr"], row["train_mae"])
            assert seconds > 0 and rate == pytest.approx(len(samples) / seconds)
            assert record.getMessage().startswith(
                f"epoch {epoch}: lr {lr:.6g}, train MAE {mae:.4f} m, ")
            assert record.getMessage().endswith(" scans/s")
        assert [set(row) for row in history] == [{"epoch", "lr", "train_mae"}] * 3
        gtmodel.write_loss_log(tmp_path / "loss_log.txt", history)
        assert (tmp_path / "loss_log.txt").read_text() == "epoch,lr,train_mae\n" + "".join(
            f"{int(r['epoch'])},{r['lr']:.10g},{r['train_mae']:.10g}\n" for r in history)

    def test_loss_decreases(self, small_world, graph_cfg):
        _, inventory, samples = small_world
        model = model_for_inventory(inventory, hidden=16, n_heads=2, seed=5)
        tc = TrainConfig(epochs=10, batch_size=16, base_lr=3e-3, dropout=0.0, seed=5)
        history = train(model, samples, tc, graph_cfg, inventory)
        assert history[-1]["train_mae"] < history[0]["train_mae"]

    @staticmethod
    def dead_nodes_per_step(model, samples, graph_cfg, inventory, monkeypatch):
        """Per training step (one epoch, with dropout): the recorded nodes the
        reverse sweep from the loss never reaches."""
        seen = []
        gradients = Tape.gradients

        def spy(tape, loss):
            seen.append((list(tape._nodes), loss))
            return gradients(tape, loss)

        monkeypatch.setattr(Tape, "gradients", spy)
        tc = TrainConfig(epochs=1, batch_size=16, dropout=0.2, seed=5)
        train(model, samples, tc, graph_cfg, inventory)
        assert seen
        counts = []
        for nodes, loss in seen:
            live, dead = {id(loss)}, 0
            for out, inputs, _ in reversed(nodes):
                if id(out) in live:
                    live.update(id(t) for t in inputs)
                else:
                    dead += 1
            counts.append(dead)
        return counts

    def test_step_tape_has_no_dead_nodes(self, small_world, graph_cfg, monkeypatch):
        # every node recorded in a training step (with dropout) must feed the
        # loss; a node the reverse sweep never reaches is discarded compute
        _, inventory, samples = small_world
        for n_heads in (2, 4):
            model = model_for_inventory(inventory, hidden=8, n_heads=n_heads, seed=5)
            assert set(self.dead_nodes_per_step(
                model, samples, graph_cfg, inventory, monkeypatch)) == {0}

    def test_dead_node_walk_sees_an_unused_branch(self, small_world, graph_cfg, monkeypatch):
        # the walk above counts a projection computed and then dropped, as a
        # per-head root left behind by a reparametrisation would be: one per
        # layer application (AP layer 1, user layers 1 and 2)
        _, inventory, samples = small_world
        attend = gtmodel._attend

        def with_dead_root(tape, layer, targets, kv, adjacency):
            tape.matmul(targets, Tensor(np.tile(layer.root.data, layer.n_heads)))
            return attend(tape, layer, targets, kv, adjacency)

        monkeypatch.setattr(gtmodel, "_attend", with_dead_root)
        model = model_for_inventory(inventory, hidden=8, n_heads=2, seed=5)
        assert set(self.dead_nodes_per_step(
            model, samples, graph_cfg, inventory, monkeypatch)) == {3}


    def test_step_draws_user_masks_only(self, small_world, graph_cfg, monkeypatch):
        # dropout acts on the user rows: two (B, h) masks a step, and the
        # tape holds the inventory half, both user layers, head and loss
        _, inventory, samples = small_world
        shapes, sizes = [], []
        draw, gradients = gtmodel.dropout_mask, Tape.gradients
        monkeypatch.setattr(gtmodel, "dropout_mask",
                            lambda shape, *a: shapes.append(shape) or draw(shape, *a))
        monkeypatch.setattr(Tape, "gradients", lambda tape, loss:
                            sizes.append(len(tape._nodes)) or gradients(tape, loss))
        model = model_for_inventory(inventory, hidden=8, n_heads=2, seed=5)
        tc = TrainConfig(epochs=1, batch_size=16, dropout=0.2, seed=5)
        train(model, samples[:16], tc, graph_cfg, inventory)
        assert shapes == [(16, 8), (16, 8)]
        assert sizes == [38]

    def test_step_tape_size_does_not_depend_on_heads(self, small_world, graph_cfg,
                                                     monkeypatch):
        # the heads of a projection are one weight and one primitive call,
        # not one set of tape nodes per head. With 6 APs, layer 2 scores
        # against the AP rows for 1, 2 and 4 heads at h=32 (heads * 6 < 32)
        # and for none of them at h=4; that costs one node, the AP keys
        _, inventory, samples = small_world
        gradients = Tape.gradients
        for hidden, folded in ((4, False), (32, True)):
            sizes = {}
            for n_heads in (1, 2, 4):
                seen = sizes.setdefault(n_heads, [])
                monkeypatch.setattr(Tape, "gradients", lambda tape, loss, seen=seen:
                                    seen.append(len(tape._nodes)) or gradients(tape, loss))
                model = model_for_inventory(inventory, hidden=hidden, n_heads=n_heads, seed=5)
                tc = TrainConfig(epochs=1, batch_size=16, dropout=0.2, seed=5)
                train(model, samples[:16], tc, graph_cfg, inventory)
            assert sizes[1] == sizes[2] == sizes[4] == [38 + folded], hidden


    def test_step_tape_runs_in_float32(self, small_world, graph_cfg, monkeypatch):
        # a float64 mask, affine, scan or truth would upcast every node after
        # it, and the float32 step would silently run in float64
        _, inventory, samples = small_world
        steps = []
        gradients = Tape.gradients

        def spy(tape, loss):
            gradients(tape, loss)
            steps.append(([out.data.dtype for out, _, _ in tape._nodes if out.data.ndim],
                          [leaf.grad.dtype for leaf in tape._leaves.values()], loss.data))

        monkeypatch.setattr(Tape, "gradients", spy)
        model = model_for_inventory(inventory, hidden=8, n_heads=2, seed=5)
        tc = TrainConfig(epochs=1, batch_size=16, dropout=0.2, seed=5)
        train(model, samples, tc, graph_cfg, inventory)
        assert len(steps) == 3
        for outputs, grads, loss in steps:
            assert len(outputs) == 36 and set(outputs) == {np.dtype(np.float32)}
            assert len(grads) == len(PARAMETER_NAMES) and set(grads) == {np.dtype(np.float32)}
            assert loss.shape == () and loss.dtype == np.float64
        assert model.flat.dtype == np.float64
        assert all(p.data.dtype == np.float64 for p in model.parameters().values())
        assert predict_positions(model, samples, inventory, graph_cfg).dtype == np.float64


class TestInPlaceGradients:
    """The trainer's reverse sweep writes into views of one gradient buffer."""

    @staticmethod
    def step_loss(tape, model, graph, samples, masks):
        inventory_half = encode_inventory(tape, model, graph.ap_features, graph.ap_adjacency)
        pred = forward_batch(tape, model, graph.user_features, graph.user_adjacency,
                             inventory_half, masks)
        return mae_loss(tape, denormalize_pred(tape, pred, model), samples.truth)

    def test_buffer_equals_dict_sweep_bitwise(self, small_world, graph_cfg):
        # at h=8 and at h=32, where layer 2 scores against the 6 AP rows
        _, inventory, samples = small_world
        samples = samples[:16]
        graph = build_sample_graph(
            samples, inventory, build_ap_adjacency(inventory, graph_cfg), graph_cfg)
        for hidden, folded in ((8, False), (32, True)):
            model = model_for_inventory(inventory, hidden=hidden, n_heads=2, seed=5)
            self.check_buffer_sweep(model, graph, samples, folded)

    def check_buffer_sweep(self, model, graph, samples, folded):
        masks = gtmodel._batch_masks(model, len(samples), 0.2, stream(5, "masks"))
        params = model.parameters()
        # a leaf recorded on the tape that does not feed the loss
        spare = Tensor(stream(5, "spare").normal(size=(3, 2)), requires_grad=True)
        leaves = [*params.values(), spare]

        def record(tape):
            loss = self.step_loss(tape, model, graph, samples, masks)
            tape.matmul(Tensor(np.ones((1, 3))), spare)
            return loss

        # the reference: one sweep into the fresh grads it allocates itself
        tape = Tape()
        tape.gradients(record(tape))
        expected = [leaf.grad for leaf in leaves]

        buffer = np.full(sum(leaf.data.size for leaf in leaves), np.nan)
        views = flat_views(buffer, [leaf.shape for leaf in leaves])
        for leaf, view in zip(leaves, views):
            leaf.grad = view
        tape = Tape()
        loss = record(tape)
        # layer 1's root and merge serve the AP rows and the user rows; its
        # query and key reach both only through one query-key product node,
        # and a folded layer 2's query only through its product with the keys
        matmul_weights = [inputs[1] for _, inputs, backward in tape._nodes
                          if backward.__qualname__.startswith("Tape.matmul.")]
        for name in ("layer1.root", "layer1.merge"):
            assert sum(w is params[name] for w in matmul_weights) == 2, name
        products = [inputs for _, inputs, backward in tape._nodes
                    if backward.__qualname__.startswith("Tape.head_products.")]
        assert len(products) == 1 + folded
        assert products[0] == (params["layer1.query"], params["layer1.key"])
        only_in_products = ["layer1.query", "layer1.key"]
        if folded:
            assert products[1][0] is params["layer2.query"]
            only_in_products.append("layer2.query")
        assert not any(params[name] in inputs for name in only_in_products
                       for _, inputs, backward in tape._nodes
                       if not backward.__qualname__.startswith("Tape.head_products."))
        tape.gradients(loss)
        for leaf, view, want in zip(leaves, views, expected):
            assert view.tobytes() == want.tobytes(), leaf.name
            assert leaf.grad is view
        assert np.array_equal(views[-1], np.zeros((3, 2)))

    def test_grad_views_persist_across_steps(self, small_world, graph_cfg, monkeypatch):
        _, inventory, samples = small_world
        model = model_for_inventory(inventory, hidden=8, n_heads=2, seed=5)
        params = model.parameters()
        seen = []
        step = gtmodel.adam_step

        def spy(flat, grad, state, lr):
            # Adam steps the float32 buffer the weights are views of
            seen.append((flat, grad, [p.grad for p in params.values()],
                         all(np.shares_memory(flat, p.data) for p in params.values())))
            return step(flat, grad, state, lr)

        monkeypatch.setattr(gtmodel, "adam_step", spy)
        tc = TrainConfig(epochs=1, batch_size=16, dropout=0.2, seed=5)
        train(model, samples[:32], tc, graph_cfg, inventory)
        assert len(seen) == 2
        (flat0, grad0, views0, bound0), (flat1, grad1, views1, bound1) = seen
        assert flat0 is flat1 and grad0 is grad1
        assert flat0.dtype == grad0.dtype == np.float32 and bound0 and bound1
        for p, v0, v1 in zip(params.values(), views0, views1):
            assert v0 is v1 is p.grad, p.name
            assert np.shares_memory(v0, grad0)
        # training over, the weights are views of a float64 widening
        assert model.flat.dtype == np.float64 and not np.shares_memory(model.flat, flat0)
        assert model.flat.tobytes() == flat0.astype(np.float64).tobytes()
        assert np.shares_memory(model.flat, params["head.b"].data)

    def test_train_holds_four_float32_buffers(self, graph_cfg):
        # the float32 weights Adam steps, the gradients and the two moments,
        # and no float64 copy: the float64 buffer goes before training and
        # comes back only after the moments. The slack is Adam's block
        # scratch (256 KB), one small step's activations and numpy's casting
        # buffers; a step takes ~170 KB of it besides the scratch, so a
        # float64 copy of the parameters (180 KB) kept through training
        # fails here
        cfg = SyntheticConfig(
            ap_count=20, area=(100.0, 40.0), path_loss_exponent=2.2,
            ref_power_dbm=-40.0, noise_sigma_db=4.0, detection_floor_dbm=-95.0,
            sample_count=4, seed=11)
        inventory, samples = generate_synthetic(cfg)
        tracemalloc.start()
        try:
            model = model_for_inventory(inventory, hidden=64, n_heads=4, seed=11)
            train(model, samples, TrainConfig(epochs=2, batch_size=4, seed=11),
                  graph_cfg, inventory)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        float32_buffer = 4 * model.flat.size
        slack = 2 * ADAM_BLOCK * 4 + 256 * 1024
        assert model.flat.nbytes > 170 * 1024
        assert peak < 4 * float32_buffer + slack

    def test_step_tapes_die_by_refcount(self, small_world, graph_cfg, monkeypatch):
        # a backward rule that holds its tape makes a tape <-> closure cycle,
        # and dead tapes then wait for the cyclic collector with all their
        # activations
        _, inventory, samples = small_world
        refs = []
        gradients = Tape.gradients

        def spy(tape, loss):
            assert all(r() is None for r in refs), "an earlier step's tape is alive"
            refs.append(weakref.ref(tape))
            return gradients(tape, loss)

        monkeypatch.setattr(Tape, "gradients", spy)
        model = model_for_inventory(inventory, hidden=8, n_heads=2, seed=5)
        tc = TrainConfig(epochs=1, batch_size=16, dropout=0.2, seed=5)
        enabled = gc.isenabled()
        gc.collect()  # cycles left by earlier tests are not this train's
        gc.disable()
        try:
            train(model, samples, tc, graph_cfg, inventory)
            assert len(refs) == 3
            assert all(r() is None for r in refs)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            assert not [o for o in gc.garbage if isinstance(o, Tape)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()

    def test_step_tape_dies_before_adam(self, small_world, graph_cfg, monkeypatch):
        # Adam's moments and scratch should not sit beside the step's
        # activations and backward rules: the step lets go of its tape first
        _, inventory, samples = small_world
        refs, dead_at_adam = [], []
        gradients, step = Tape.gradients, gtmodel.adam_step

        def gradients_spy(tape, loss):
            refs.append(weakref.ref(tape))
            return gradients(tape, loss)

        def adam_spy(*args):
            dead_at_adam.append(refs[-1]() is None)
            return step(*args)

        monkeypatch.setattr(Tape, "gradients", gradients_spy)
        monkeypatch.setattr(gtmodel, "adam_step", adam_spy)
        model = model_for_inventory(inventory, hidden=8, n_heads=2, seed=5)
        tc = TrainConfig(epochs=1, batch_size=16, dropout=0.2, seed=5)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            train(model, samples, tc, graph_cfg, inventory)
        finally:
            if enabled:
                gc.enable()
        assert dead_at_adam == [True] * 3

    def test_step_hooks_the_benchmark_reads(self, small_world, graph_cfg, monkeypatch):
        # perfbench times `Tape.gradients` and `gtmodel.adam_step` once a step,
        # reads the tape from the gradients call and counts matmul flops by the
        # backward rule's qualified name
        _, inventory, samples = small_world
        events, losses, matmuls = [], [], []
        gradients, step, mae, matmul = (
            Tape.gradients, gtmodel.adam_step, gtmodel.mae_loss, Tape.matmul)

        def gradients_spy(*args, **kwargs):
            tape = args[0]
            recorded = sum(backward.__qualname__.startswith("Tape.matmul.")
                           for _, _, backward in tape._nodes)
            events.append(("gradients", args, kwargs, recorded, len(matmuls)))
            matmuls.clear()
            return gradients(*args, **kwargs)

        monkeypatch.setattr(Tape, "gradients", gradients_spy)
        monkeypatch.setattr(Tape, "matmul", lambda *a: matmuls.append(1) or matmul(*a))
        monkeypatch.setattr(gtmodel, "mae_loss",
                            lambda *a: losses.append(mae(*a)) or losses[-1])
        monkeypatch.setattr(gtmodel, "adam_step",
                            lambda *a: events.append(("adam",)) or step(*a))
        model = model_for_inventory(inventory, hidden=8, n_heads=2, seed=5)
        tc = TrainConfig(epochs=1, batch_size=16, dropout=0.2, seed=5)
        train(model, samples, tc, graph_cfg, inventory)
        assert [e[0] for e in events] == ["gradients", "adam"] * 3
        for (_, args, kwargs, recorded, called), loss in zip(events[::2], losses, strict=True):
            assert kwargs == {} and len(args) == 2
            assert isinstance(args[0], Tape) and args[1] is loss
            assert recorded == called > 0


def with_param(header, i, j, value):
    """The checkpoint header with entry j of its i-th `params` row replaced."""
    params = [list(entry) for entry in header["params"]]
    params[i][j] = value
    return {**header, "params": params}


HEADER_REASON = "header needs a `params` list, an integer `step` and an `extra` object"
DIMS_REASON = "must be positive integers, with n_heads dividing hidden"


class TestCheckpointing:
    @staticmethod
    def per_array_checkpoint(path, model, step=0):
        """The checkpoint bytes written one array at a time (the writer
        before the flat store)."""
        params = model.parameters()
        layout, offset = [], 0
        for name, p in params.items():
            layout.append([name, list(p.shape), offset])
            offset += p.data.size
        extra = {"model": {
            "ap_count": model.ap_count, "hidden": model.hidden, "n_heads": model.n_heads,
            "affine_offset": model.affine_offset.tolist(),
            "affine_scale": model.affine_scale.tolist()}}
        header = {"version": CHECKPOINT_VERSION, "step": step, "extra": extra,
                  "dtype": CHECKPOINT_DTYPE, "params": layout}
        with open(path, "wb") as fh:
            fh.write(f"{CHECKPOINT_MAGIC}\n{json.dumps(header, sort_keys=True)}\n".encode())
            for p in params.values():
                np.ascontiguousarray(p.data, dtype=CHECKPOINT_DTYPE).tofile(fh)

    def test_save_matches_per_array_writer(self, tmp_path, small_world):
        _, inventory, _ = small_world
        model = model_for_inventory(inventory, hidden=8, n_heads=2, seed=5)
        adam = AdamState(weight_decay=1e-4)
        flat = model.flat
        for t in range(3):
            adam_step(flat, stream(5, "grad", t).normal(size=flat.size), adam, 1e-3)
        path, want = tmp_path / "model.bin", tmp_path / "want.bin"
        save_model(path, model, step=3)
        self.per_array_checkpoint(want, model, step=3)
        assert path.read_bytes() == want.read_bytes()
        # load -> save reproduces the file
        params, loaded_adam, step, extra = load_checkpoint(path)
        save_checkpoint(want, params, adam=loaded_adam, step=step, extra=extra)
        assert want.read_bytes() == path.read_bytes()

    def test_model_is_one_flat_buffer(self, tmp_path, small_world):
        def assert_views_of_buffer(model):
            # every weight is its consecutive slice of the model's buffer, in order
            params = model.parameters()
            assert list(params) == list(PARAMETER_NAMES)
            assert model.flat.size == sum(p.data.size for p in params.values())
            views = flat_views(model.flat, [p.shape for p in params.values()])
            for (name, p), view in zip(params.items(), views):
                assert p.data.__array_interface__ == view.__array_interface__, name

        _, inventory, _ = small_world
        model = model_for_inventory(inventory, hidden=8, n_heads=2, seed=5)
        assert_views_of_buffer(model)
        assert model.flat.flags.writeable
        path = tmp_path / "model.bin"
        save_model(path, model)
        loaded = load_model(path)
        assert_views_of_buffer(loaded)
        assert np.array_equal(loaded.flat, model.flat) and not loaded.flat.flags.writeable
        assert not any(p.data.flags.writeable for p in loaded.parameters().values())

    def test_desk_scale_file(self, tmp_path, graph_cfg):
        """h=64 on 20 APs: resave is byte-identical, the file is the raw floats
        plus a small header, and the loaded model predicts bit-identically."""
        cfg = SyntheticConfig(
            ap_count=20, area=(100.0, 40.0), path_loss_exponent=2.2,
            ref_power_dbm=-40.0, noise_sigma_db=4.0, detection_floor_dbm=-95.0,
            sample_count=50, seed=11)
        inventory, samples = generate_synthetic(cfg)
        model = model_for_inventory(inventory, hidden=64, n_heads=4, seed=11)
        train(model, samples, TrainConfig(epochs=1, batch_size=16, seed=11),
              graph_cfg, inventory)
        path, again = tmp_path / "model.bin", tmp_path / "again.bin"
        save_model(path, model, step=1)
        n_params = sum(p.data.size for p in model.parameters().values())
        assert path.stat().st_size <= 8 * n_params + 4096
        params, adam, step, extra = load_checkpoint(path)
        save_checkpoint(again, params, adam=adam, step=step, extra=extra)
        assert again.read_bytes() == path.read_bytes()

        loaded = load_model(path)
        assert list(loaded.parameters()) == list(model.parameters())
        a = predict_positions(model, samples, inventory, graph_cfg)
        b = predict_positions(loaded, samples, inventory, graph_cfg)
        assert np.array_equal(a, b)
        ap_adj = build_ap_adjacency(inventory, graph_cfg)
        graph = build_sample_graph(samples[0], inventory, ap_adj, graph_cfg)
        assert np.array_equal(forward_graph(Tape(record=False), model, graph).data,
                              forward_graph(Tape(record=False), loaded, graph).data)

    def test_fused_root_layout_rejected(self, tmp_path, small_world):
        _, inventory, _ = small_world
        path = tmp_path / "model.bin"
        save_model(path, model_for_inventory(inventory, hidden=8, n_heads=2, seed=5))
        write_fused_root_layout(path)
        assert load_checkpoint(path)[0]["layer1.root"].shape == (8, 8)
        with pytest.raises(BadCheckpoint, match="rerun `sacloc train`$") as exc:
            load_model(path)
        assert "parameter layer1.root has shape (8, 8)" in str(exc.value)
        assert "need (8, 4)" in str(exc.value)
        assert "one root block per head" in str(exc.value)
        assert exc.value.path == path

    def test_encoded_key_layout_rejected(self, tmp_path, small_world):
        # the layout before layer 1's keys and values acted on the AP
        # coordinates: the same names, an (h, h) key and value
        _, inventory, _ = small_world
        path = tmp_path / "model.bin"
        save_model(path, model_for_inventory(inventory, hidden=8, n_heads=2, seed=5))
        write_encoded_key_layout(path)
        assert load_checkpoint(path)[0]["layer1.key"].shape == (8, 8)
        with pytest.raises(BadCheckpoint, match="rerun `sacloc train`$") as exc:
            load_model(path)
        assert "parameter layer1.key has shape (8, 8)" in str(exc.value)
        assert "need (3, 8)" in str(exc.value)
        assert "act on the encoded AP rows" in str(exc.value)
        assert exc.value.path == path

    def test_per_head_layout_rejected(self, tmp_path, small_world):
        _, inventory, _ = small_world
        path = tmp_path / "model.bin"
        save_model(path, model_for_inventory(inventory, hidden=8, n_heads=2, seed=5))
        write_per_head_layout(path)
        assert "layer1.head0.w1" in load_checkpoint(path)[0]
        with pytest.raises(BadCheckpoint, match="rerun `sacloc train`") as exc:
            load_model(path)
        assert "no parameter layer1.query" in str(exc.value)
        assert exc.value.path == path

    def test_reordered_layout_rejected(self, tmp_path, small_world):
        # the right names and shapes, with layer1's key and value (one shape)
        # swapped: views cut in table order would read each as the other
        _, inventory, _ = small_world
        path = tmp_path / "model.bin"
        save_model(path, model_for_inventory(inventory, hidden=8, n_heads=2, seed=5))
        params, _, step, extra = load_checkpoint(path)
        names = list(params)
        i, j = names.index("layer1.key"), names.index("layer1.value")
        names[i], names[j] = names[j], names[i]
        save_checkpoint(path, {name: params[name] for name in names}, step=step, extra=extra)
        with pytest.raises(BadCheckpoint, match="another order.*rerun `sacloc train`$") as exc:
            load_model(path)
        assert exc.value.path == path

    def test_load_model_needs_model_metadata(self, tmp_path):
        path = tmp_path / "bare.bin"
        save_checkpoint(path, {"w": Tensor(np.ones(3), requires_grad=True)}, step=0, extra={})
        with pytest.raises(BadCheckpoint, match="not a model checkpoint"):
            load_model(path)

    @pytest.mark.parametrize("edit, reason", [
        (lambda h: {k: v for k, v in h.items() if k != "params"}, HEADER_REASON),
        (lambda h: {k: v for k, v in h.items() if k != "step"}, HEADER_REASON),
        (lambda h: {**h, "extra": []}, HEADER_REASON),
        (lambda h: [h], "header is not a JSON object"),
        (lambda h: {**h, "params": [*h["params"], "head.b"]}, "params[16] is not [name, shape, offset]"),
        (lambda h: with_param(h, 0, 0, 7), "params[0] is not"),
        (lambda h: with_param(h, 0, 1, [-1, 8]), "params[0] is not"),
        (lambda h: with_param(h, 1, 2, "48"), "params[1] is not"),
        (lambda h: {**h, "extra": {"model": []}}, "not a model checkpoint: no 'model'"),
        (lambda h: {**h, "extra": {"model": {
            k: v for k, v in h["extra"]["model"].items() if k != "hidden"}}},
         "not a model checkpoint: no 'hidden'"),
        (lambda h: with_model(h, n_heads="2"), "n_heads '2' " + DIMS_REASON),
        (lambda h: with_model(h, n_heads=True), DIMS_REASON),
        (lambda h: with_model(h, hidden=0), DIMS_REASON),
        (lambda h: with_model(h, n_heads=3), DIMS_REASON),
        (lambda h: with_model(h, ap_count=6.0), DIMS_REASON),
        (lambda h: with_model(h, affine_scale=[1.0]),
         "affine_scale [1.0] is not two finite numbers"),
        (lambda h: with_model(h, affine_offset=[math.nan, 0.0]),
         "affine_offset [nan, 0.0] is not two finite numbers"),
        (lambda h: with_model(h, affine_offset=["0", "0"]),
         "affine_offset ['0', '0'] is not two finite numbers"),
    ], ids=["no-params", "no-step", "extra-list", "header-list", "entry-not-list",
            "name-not-str", "negative-dim", "offset-str", "model-list", "no-hidden",
            "heads-str", "heads-bool", "hidden-zero", "heads-not-dividing", "ap-count-float",
            "affine-short", "affine-nan", "affine-str"])
    def test_malformed_header_rejected(self, tmp_path, small_world, edit, reason):
        _, inventory, _ = small_world
        path = tmp_path / "model.bin"
        save_model(path, model_for_inventory(inventory, hidden=8, n_heads=2, seed=5))
        rewrite_checkpoint_header(path, edit)
        with pytest.raises(BadCheckpoint) as exc:
            load_model(path)
        assert reason in exc.value.reason
        assert exc.value.path == path

    def test_save_load_same_predictions(self, tmp_path, small_world, graph_cfg):
        _, inventory, samples = small_world
        model = model_for_inventory(inventory, hidden=8, n_heads=2, seed=5)
        tc = TrainConfig(epochs=2, batch_size=16, dropout=0.0, seed=5)
        train(model, samples, tc, graph_cfg, inventory)
        path = tmp_path / "model.json"
        save_model(path, model, step=2)
        loaded = load_model(path)
        a = predict_positions(model, samples, inventory, graph_cfg)
        b = predict_positions(loaded, samples, inventory, graph_cfg)
        assert np.array_equal(a, b)
