import math

import numpy as np
import pytest

from sacloc.autodiff import Tape, Tensor, load_checkpoint, save_checkpoint
from sacloc.dataset import SENTINEL, SyntheticConfig, generate_synthetic
from sacloc.errors import (
    BadCheckpoint,
    DimensionMismatch,
    EmptyBatch,
    EmptyNeighborhood,
    TrainingDiverged,
)
from sacloc.graphbuild import GraphConfig, build_ap_adjacency, build_sample_graph
from sacloc.gtmodel import (
    HeadWeights,
    TrainConfig,
    TransformerConvLayer,
    _prepare_arrays,
    attention_coefficients,
    denormalize_pred,
    forward_batch,
    forward_graph,
    load_model,
    mae_loss,
    model_for_inventory,
    model_forward,
    predict_positions,
    save_model,
    train,
    transformer_conv,
)
from sacloc.rng import stream

from conftest import make_sample


def random_layer(in_dim, out_dim, n_heads, head_dim, seed, scale=0.5):
    heads = tuple(
        HeadWeights(*[
            Tensor(stream(seed, "layer", h, w).normal(size=(in_dim, head_dim)) * scale,
                   requires_grad=True)
            for w in range(4)
        ])
        for h in range(n_heads)
    )
    merge = Tensor(stream(seed, "merge").normal(size=(head_dim, out_dim)) * scale,
                   requires_grad=True)
    return TransformerConvLayer(heads=heads, merge=merge)


def dense_forward(model, graph):
    """Reference single-scan forward over the full (m+1)-node adjacency: both
    layers update every node, and the user row feeds the head -> (2,)."""
    t = Tape(record=False)
    enc = model.encoders
    aps = t.add_bias(t.matmul(Tensor(graph.ap_features), enc.ap_w), enc.ap_b)
    user = t.add_bias(
        t.matmul(Tensor(graph.user_features[None, :]), enc.user_w), enc.user_b)
    feats = t.concat_rows([aps, user])
    for layer in (model.layer1, model.layer2):
        feats = t.relu(transformer_conv(t, layer, feats, graph.adjacency))
    user_row = t.select_rows(feats, np.array([graph.user_index]))
    return t.add_bias(t.matmul(user_row, model.head_w), model.head_b).data[0]


def identity_merge_layer(dim, n_heads, seed):
    """Heads at full width with an identity merge, so the layer output is the
    plain head average."""
    layer = random_layer(dim, dim, n_heads, dim, seed)
    return TransformerConvLayer(heads=layer.heads, merge=Tensor(np.eye(dim)))


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
        head = HeadWeights(*[Tensor(np.eye(1)) for _ in range(4)])
        layer = TransformerConvLayer(heads=(head,), merge=Tensor(np.eye(1)))
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
            [feats_np[0] @ h.w1.data + feats_np[1] @ h.w2.data for h in layer.heads],
            axis=0)
        assert np.max(np.abs(out[0] - expected)) <= 1e-12

    def test_isolated_node_root_term_only(self):
        layer = identity_merge_layer(5, 2, seed=3)
        feats_np = stream(8, "x").normal(size=(3, 5))
        adj = np.zeros((3, 3), dtype=bool)
        out = transformer_conv(Tape(record=False), layer, Tensor(feats_np), adj).data
        expected = np.mean([feats_np @ h.w1.data for h in layer.heads], axis=0)
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_identity_configuration(self):
        # one head, root = identity, zero messages, identity merge
        head = HeadWeights(w1=Tensor(np.eye(4)), w2=Tensor(np.zeros((4, 4))),
                           w3=Tensor(np.eye(4)), w4=Tensor(np.eye(4)))
        layer = TransformerConvLayer(heads=(head,), merge=Tensor(np.eye(4)))
        feats_np = stream(9, "x").normal(size=(5, 4))
        adj = stream(10, "adj").random((5, 5)) < 0.5
        out = transformer_conv(Tape(record=False), layer, Tensor(feats_np), adj).data
        assert np.array_equal(out, feats_np)

    def test_duplicated_heads_match_single_head(self):
        single = random_layer(6, 6, 1, 3, seed=11)
        multi = TransformerConvLayer(heads=single.heads * 4, merge=single.merge)
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


class TestModelForward:
    def test_eval_deterministic(self, small_world, graph_cfg):
        _, inventory, samples = small_world
        ap_adj = build_ap_adjacency(inventory, graph_cfg)
        graph = build_sample_graph(samples[0], inventory, ap_adj, graph_cfg)
        model = model_for_inventory(inventory, hidden=16, n_heads=2, seed=5)
        a = model_forward(model, graph)
        b = model_forward(model, graph)
        assert np.array_equal(a, b)

    def test_zero_weights_predict_origin(self, small_world, graph_cfg):
        _, inventory, samples = small_world
        ap_adj = build_ap_adjacency(inventory, graph_cfg)
        graph = build_sample_graph(samples[0], inventory, ap_adj, graph_cfg)
        model = model_for_inventory(inventory, hidden=16, n_heads=2, seed=5)
        for p in model.parameters().values():
            p.data[...] = 0.0
        assert np.array_equal(model_forward(model, graph), [0.0, 0.0])

    def test_dimension_mismatch(self, small_world, graph_cfg, line_inventory):
        _, inventory, samples = small_world
        ap_adj = build_ap_adjacency(inventory, graph_cfg)
        graph = build_sample_graph(samples[0], inventory, ap_adj, graph_cfg)
        wrong = model_for_inventory(line_inventory, hidden=8, n_heads=2, seed=0)
        with pytest.raises(DimensionMismatch):
            model_forward(wrong, graph)

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
        assert with_edges.adjacency[with_edges.user_index].any()
        assert not without.adjacency[without.user_index].any()
        assert np.array_equal(with_edges.user_features, without.user_features)
        pa = model_forward(model, with_edges)
        pb = model_forward(model, without)
        assert not np.allclose(pa, pb)

    def test_dense_matches_factorized(self, small_world, graph_cfg):
        _, inventory, samples = small_world
        model = model_for_inventory(inventory, hidden=16, n_heads=2, seed=5)
        rssi_norm, user_adj, _, ap_feats, ap_adj = _prepare_arrays(
            samples, inventory, graph_cfg)
        t = Tape(record=False)
        batched = forward_batch(t, model, rssi_norm, user_adj, ap_feats, ap_adj).data
        graphs = [build_sample_graph(s, inventory, ap_adj, graph_cfg) for s in samples]
        dense = np.stack([dense_forward(model, g) for g in graphs])
        per_scan = np.stack([forward_graph(t, model, g).data[0] for g in graphs])
        assert np.max(np.abs(batched - dense)) <= 1e-12
        assert np.max(np.abs(per_scan - dense)) <= 1e-12


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
        # 4 APs + user, h=8, E=2: the full training loss against central
        # finite differences
        from sacloc.dataset import ApInventory

        rng = stream(21, "gradcheck")
        inventory = ApInventory(
            ap_ids=tuple(f"g{i}" for i in range(4)),
            coordinates=rng.uniform(0, 30, (4, 2)))
        model = model_for_inventory(inventory, hidden=8, n_heads=2, seed=21)
        samples = [
            make_sample([-55.0, -65.0, SENTINEL, -72.0], truth=(4.0, 9.0)),
            make_sample([-80.0, SENTINEL, -60.0, -70.0], truth=(11.0, 3.0)),
        ]
        rssi_norm, user_adj, truth, ap_feats, ap_adj = _prepare_arrays(
            samples, inventory, graph_cfg)

        def loss_fn():
            t = Tape(record=False)
            pred = forward_batch(t, model, rssi_norm, user_adj, ap_feats, ap_adj)
            return float(mae_loss(t, denormalize_pred(t, pred, model), truth).data)

        t = Tape()
        pred = forward_batch(t, model, rssi_norm, user_adj, ap_feats, ap_adj)
        t.backward(mae_loss(t, denormalize_pred(t, pred, model), truth))

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
        assert worst < 1e-4


class TestTrain:
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

    def test_diverged_reports_epoch(self, small_world, graph_cfg):
        _, inventory, samples = small_world
        model = model_for_inventory(inventory, hidden=8, n_heads=2, seed=5)
        model.head_w.data[0, 0] = np.nan
        tc = TrainConfig(epochs=2, batch_size=16, seed=5)
        with pytest.raises(TrainingDiverged) as err:
            train(model, samples, tc, graph_cfg, inventory)
        assert err.value.epoch == 0

    def test_loss_decreases(self, small_world, graph_cfg):
        _, inventory, samples = small_world
        model = model_for_inventory(inventory, hidden=16, n_heads=2, seed=5)
        tc = TrainConfig(epochs=10, batch_size=16, base_lr=3e-3, dropout=0.0, seed=5)
        history = train(model, samples, tc, graph_cfg, inventory)
        assert history[-1]["train_mae"] < history[0]["train_mae"]

    def test_step_tape_has_no_dead_nodes(self, small_world, graph_cfg, monkeypatch):
        # every node recorded in a training step (with dropout) must feed the
        # loss; a node the reverse sweep never reaches is discarded compute
        _, inventory, samples = small_world
        seen = []
        gradients = Tape.gradients

        def spy(tape, loss):
            seen.append((list(tape._nodes), loss))
            return gradients(tape, loss)

        monkeypatch.setattr(Tape, "gradients", spy)
        model = model_for_inventory(inventory, hidden=8, n_heads=2, seed=5)
        tc = TrainConfig(epochs=1, batch_size=16, dropout=0.2, seed=5)
        train(model, samples, tc, graph_cfg, inventory)
        assert seen
        for nodes, loss in seen:
            live, dead = {id(loss)}, 0
            for out, inputs, _ in reversed(nodes):
                if id(out) in live:
                    live.update(id(t) for t in inputs)
                else:
                    dead += 1
            assert dead == 0


class TestCheckpointing:
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

    def test_load_model_needs_model_metadata(self, tmp_path):
        path = tmp_path / "bare.bin"
        save_checkpoint(path, {"w": Tensor(np.ones(3), requires_grad=True)})
        with pytest.raises(BadCheckpoint, match="not a model checkpoint"):
            load_model(path)

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
