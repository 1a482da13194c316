import math

import numpy as np
import pytest

from sacloc import gtmodel
from sacloc.autodiff import Tape, Tensor, load_checkpoint, save_checkpoint
from sacloc.conformal import calibrate, predict_set
from sacloc.dataset import SENTINEL, ScanSet, SyntheticConfig, generate_synthetic
from sacloc.errors import (
    BadCheckpoint,
    DimensionMismatch,
    EmptyBatch,
    EmptyNeighborhood,
    TrainingDiverged,
)
from sacloc.graphbuild import GraphConfig, build_ap_adjacency, build_sample_graph
from sacloc.gtmodel import (
    TrainConfig,
    TransformerConvLayer,
    attention_coefficients,
    denormalize_pred,
    forward_graph,
    load_model,
    mae_loss,
    model_for_inventory,
    predict_positions,
    save_model,
    train,
    transformer_conv,
)
from sacloc.rng import stream

from conftest import write_per_head_layout


def random_layer(in_dim, out_dim, n_heads, head_dim, seed, scale=0.5):
    def fused(w):
        return Tensor(np.hstack([
            stream(seed, "layer", h, w).normal(size=(in_dim, head_dim)) * scale
            for h in range(n_heads)]), requires_grad=True)

    merge = Tensor(stream(seed, "merge").normal(size=(head_dim, out_dim)) * scale,
                   requires_grad=True)
    return TransformerConvLayer(query=fused(2), key=fused(3), value=fused(1), root=fused(0),
                                merge=merge, n_heads=n_heads)


def head_blocks(layer, name):
    """The per-head (in_dim, head_dim) column blocks of one fused projection."""
    return np.hsplit(getattr(layer, name).data, layer.n_heads)


def dense_layer(layer, feats, adjacency):
    """Reference layer application, head by head and node by node from the
    per-head weight blocks, in plain numpy: the mean over heads of the root
    transform plus the attention-weighted values, then the merge."""
    total = np.zeros((feats.shape[0], layer.head_dim))
    for head, (root, value) in enumerate(zip(head_blocks(layer, "root"),
                                             head_blocks(layer, "value"))):
        total += feats @ root
        values = feats @ value
        for node in range(feats.shape[0]):
            neighbors = np.nonzero(adjacency[node])[0]
            if len(neighbors):
                beta = attention_coefficients(layer, head, feats, node, list(neighbors))
                total[node] += beta @ values[neighbors]
    return (total / layer.n_heads) @ layer.merge.data


def dense_forward(model, graph):
    """Reference single-scan forward over the full (m+1)-node graph of a
    one-scan `LocGraph`, assembled here from its blocks with the user node
    last and no AP -> user link: both layers update every node, and the
    user row feeds the head -> (2,)."""
    m = graph.ap_features.shape[0]
    adjacency = np.zeros((m + 1, m + 1), dtype=bool)
    adjacency[:m, :m] = graph.ap_adjacency
    (adjacency[m, :m],) = graph.user_adjacency
    enc = model.encoders
    aps = graph.ap_features @ enc.ap_w.data + enc.ap_b.data
    user = graph.user_features @ enc.user_w.data + enc.user_b.data
    feats = np.vstack([aps, user])
    for layer in (model.layer1, model.layer2):
        feats = np.maximum(dense_layer(layer, feats, adjacency), 0.0)
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
             zip(head_blocks(layer, "root"), head_blocks(layer, "value"))], axis=0)
        assert np.max(np.abs(out[0] - expected)) <= 1e-12

    def test_isolated_node_root_term_only(self):
        layer = identity_merge_layer(5, 2, seed=3)
        feats_np = stream(8, "x").normal(size=(3, 5))
        adj = np.zeros((3, 3), dtype=bool)
        out = transformer_conv(Tape(record=False), layer, Tensor(feats_np), adj).data
        expected = np.mean([feats_np @ root for root in head_blocks(layer, "root")], axis=0)
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
            *(Tensor(np.tile(getattr(single, wn).data, 4))
              for wn in ("query", "key", "value", "root")),
            merge=single.merge, n_heads=4)
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
        samples = ScanSet(
            rssi=[[-55.0, -65.0, SENTINEL, -72.0], [-80.0, SENTINEL, -60.0, -70.0]],
            truth=[[4.0, 9.0], [11.0, 3.0]])
        graph = build_sample_graph(
            samples, inventory, build_ap_adjacency(inventory, graph_cfg), graph_cfg)

        def loss_fn():
            t = Tape(record=False)
            pred = forward_graph(t, model, graph)
            return float(mae_loss(t, denormalize_pred(t, pred, model), samples.truth).data)

        t = Tape()
        pred = forward_graph(t, model, graph)
        t.backward(mae_loss(t, denormalize_pred(t, pred, model), samples.truth))

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


    def test_step_tape_size_does_not_depend_on_heads(self, small_world, graph_cfg,
                                                     monkeypatch):
        # the heads of a projection are one weight and one primitive call,
        # not one set of tape nodes per head
        _, inventory, samples = small_world
        gradients = Tape.gradients
        sizes = {}
        for n_heads in (1, 2, 4):
            seen = sizes.setdefault(n_heads, [])
            monkeypatch.setattr(Tape, "gradients", lambda tape, loss, seen=seen:
                                seen.append(len(tape._nodes)) or gradients(tape, loss))
            model = model_for_inventory(inventory, hidden=8, n_heads=n_heads, seed=5)
            tc = TrainConfig(epochs=1, batch_size=16, dropout=0.2, seed=5)
            train(model, samples[:16], tc, graph_cfg, inventory)
        assert len(sizes[1]) == 1
        assert sizes[1] == sizes[2] == sizes[4]


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
