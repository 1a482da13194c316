"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines as they complete.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from sacloc.autodiff import Tape, Tensor
from sacloc.cli import CHECKPOINT_NAME, main as cli_main
from sacloc.conformal import calibrate, radius_from_scores
from sacloc.dataset import (
    ApInventory,
    SENTINEL,
    ScanSet,
    SyntheticConfig,
    generate_synthetic,
    load_fingerprints,
    load_inventory,
    split_train_calibration,
    synthesize_scans,
)
from sacloc.evalreport import (
    alpha_sweep,
    baseline_positions,
    coverage_by_region,
    point_metrics,
)
from sacloc.graphbuild import GraphConfig, build_ap_adjacency, build_sample_graph
from sacloc.gtmodel import (
    TrainConfig,
    TransformerConvLayer,
    denormalize_pred,
    forward_graph,
    mae_loss,
    model_for_inventory,
    predict_positions,
    train,
)
from sacloc.regions import kmeans_fit
from sacloc.rng import stream

from test_gtmodel import transformer_conv


def report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:2d}] PASS - {message}")


# -- shared desk-scale experiment (criteria 6 and 7) ---------------------------

DESK_GRAPH = GraphConfig(d_p=20.0, tau=-75.0)
DESK_SYNTH = SyntheticConfig(
    ap_count=20, area=(100.0, 40.0), path_loss_exponent=2.2,
    ref_power_dbm=-40.0, noise_sigma_db=4.0, detection_floor_dbm=-95.0,
    train_samples=3750, seed=11,
)
DESK_TRAIN = TrainConfig(epochs=30, batch_size=64, lr=3e-3, weight_decay=1e-4,
                         dropout=0.1, seed=11)


@pytest.fixture(scope="module")
def desk_scale():
    """20 APs over 100 x 40 m, 3000/750/750 split, sigma = 4 dB, h=64, E=4."""
    started = time.monotonic()
    inventory, pool = generate_synthetic(DESK_SYNTH)
    test_samples = synthesize_scans(inventory, DESK_SYNTH, 750, "test")
    train_samples, cal_samples = split_train_calibration(pool, 0.8, seed=11)
    assert (len(train_samples), len(cal_samples), len(test_samples)) == (3000, 750, 750)

    model = model_for_inventory(inventory, hidden=64, n_heads=4, seed=11)
    train(model, train_samples, DESK_TRAIN, DESK_GRAPH, inventory)

    cal_preds = predict_positions(model, cal_samples, inventory, DESK_GRAPH)
    test_preds = predict_positions(model, test_samples, inventory, DESK_GRAPH)
    elapsed = time.monotonic() - started
    return {
        "inventory": inventory,
        "cal_truths": cal_samples.truth,
        "test_truths": test_samples.truth,
        "cal_preds": cal_preds,
        "test_preds": test_preds,
        "test_samples": test_samples,
        "elapsed": elapsed,
    }


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_full_model_gradients():
    """Analytic vs central finite-difference gradients, 5-node graph, h=8, E=2."""
    started = time.monotonic()
    rng = stream(23, "acceptance-grad")
    inventory = ApInventory(
        ap_ids=tuple(f"g{i}" for i in range(4)),
        coordinates=rng.uniform(0, 30, (4, 2)))
    graph_cfg = GraphConfig(d_p=25.0, tau=-75.0)
    model = model_for_inventory(inventory, hidden=8, n_heads=2, seed=23)
    samples = ScanSet(
        rssi=[[-55.0, -65.0, SENTINEL, -72.0], [-80.0, SENTINEL, -60.0, -70.0]],
        truth=[[4.0, 9.0], [11.0, 3.0]])
    graph = build_sample_graph(
        samples, inventory, build_ap_adjacency(inventory, graph_cfg), graph_cfg)

    def forward(tape):
        pred = forward_graph(tape, model, graph)
        return mae_loss(tape, denormalize_pred(tape, pred, model), samples.truth)

    tape = Tape()
    tape.backward(forward(tape))

    step = 1e-5
    worst = 0.0
    n_checked = 0
    for name, p in model.parameters().items():
        flat, gflat = p.data.ravel(), p.grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = float(forward(Tape(record=False)).data)
            flat[i] = orig - step
            down = float(forward(Tape(record=False)).data)
            flat[i] = orig
            fd = (up - down) / (2 * step)
            worst = max(worst, abs(gflat[i] - fd) / max(1.0, abs(fd)))
            n_checked += 1
    elapsed = time.monotonic() - started
    assert worst < 1e-4, f"max relative gradient error {worst:.3e}"
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"
    report(1, f"{n_checked} parameter entries, max rel err {worst:.2e} "
              f"in {elapsed:.1f}s")


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_2_transformer_conv_identities():
    rng = stream(29, "acceptance-conv")

    # (a) singleton neighbor: output is the plain head average of
    # root + message, exactly
    dim, n_heads = 5, 2
    blocks = _head_blocks(rng, dim, dim, n_heads)
    layer = _fused_layer(blocks, Tensor(np.eye(dim)))
    feats = rng.normal(size=(2, dim))
    adj = np.array([[False, True], [False, False]])
    out = transformer_conv(Tape(record=False), layer, Tensor(feats), adj).data
    expected = np.mean(
        [feats[0] @ root + feats[1] @ value for root, value, _, _ in blocks], axis=0)
    singleton_err = float(np.max(np.abs(out[0] - expected)))
    assert singleton_err <= 1e-12

    # (b) attention rows sum to 1 within 1e-12 for every node with neighbors
    n = 10
    logits = Tensor(rng.normal(size=(n, n)) * 3)
    mask = rng.random((n, n)) < 0.5
    rows = Tape(record=False).masked_row_softmax(logits, mask).data
    sums = rows.sum(axis=1)
    has_neighbors = mask.any(axis=1)
    row_err = float(np.max(np.abs(sums[has_neighbors] - 1.0)))
    assert row_err <= 1e-12
    assert np.all(sums[~has_neighbors] == 0.0)

    # (c) permutation equivariance of the stacked layers within 1e-9
    layer1 = _random_layer(rng, 6, 3, 2)
    layer2 = _random_layer(rng, 6, 3, 2)
    feats = rng.normal(size=(9, 6))
    adj = rng.random((9, 9)) < 0.4
    np.fill_diagonal(adj, False)

    def run(f, a):
        t = Tape(record=False)
        h = t.relu(transformer_conv(t, layer1, Tensor(f), a))
        return transformer_conv(t, layer2, h, a).data

    base = run(feats, adj)
    perm = rng.permutation(9)
    permuted = run(feats[perm], adj[perm][:, perm])
    perm_err = float(np.max(np.abs(permuted - base[perm])))
    assert perm_err <= 1e-9
    report(2, f"singleton {singleton_err:.1e}, attention rows {row_err:.1e}, "
              f"permutation {perm_err:.1e}")


def _head_blocks(rng, dim, head_dim, n_heads):
    """Per head: the (root, value, query, key) blocks, each (dim, head_dim)."""
    return [[rng.normal(size=(dim, head_dim)) * 0.5 for _ in range(4)]
            for _ in range(n_heads)]


def _fused_layer(blocks, merge):
    """The layer whose head i has the projections `blocks[i]`; its shared
    root is the mean of the heads' roots, which the head mean makes the same
    function."""
    roots, *attention = zip(*blocks)
    value, query, key = (Tensor(np.hstack(ws)) for ws in attention)
    return TransformerConvLayer(query=query, key=key, value=value,
                                root=Tensor(np.mean(roots, axis=0)),
                                merge=merge, n_heads=len(blocks))


def _random_layer(rng, dim, head_dim, n_heads):
    blocks = _head_blocks(rng, dim, head_dim, n_heads)
    return _fused_layer(blocks, Tensor(rng.normal(size=(head_dim, dim)) * 0.5))


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3_conformal_rank_oracle():
    rng = stream(31, "acceptance-rank")
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(0, 80))
        alpha = float(rng.uniform(0.005, 0.6))
        scores = rng.uniform(0.0, 20.0, n)
        if n > 1 and rng.random() < 0.3:
            scores[: n // 2] = scores[0]  # duplicates stay in the order statistics
        ordered = sorted(scores)
        p = math.ceil((1.0 - alpha) * (n + 1))
        expected = math.inf if p > n else ordered[p - 1]
        assert radius_from_scores(scores, alpha) == expected
        checked += 1
    report(3, f"{checked} random (scores, alpha) instances match the sort oracle")


# -- criteria 4 and 5 ----------------------------------------------------------


def _coverage_trials(n_trials, n_cal, n_test, alpha, k, regional):
    """Fixed predictor over an exchangeable pool; returns per-trial coverages.

    With regional=True the pool is 5 well-separated blobs and both
    calibration and test samples are assigned by ground-truth region
    (the symmetric rule under which the per-region guarantee holds).
    """
    blob_centers = np.array(
        [[0.0, 0.0], [60.0, 0.0], [0.0, 60.0], [60.0, 60.0], [30.0, 130.0]])
    global_cov = np.empty(n_trials)
    region_cov = np.full((n_trials, k), np.nan)
    for trial in range(n_trials):
        rng = stream(trial, "acceptance-coverage", "regional" if regional else "global")
        n = n_cal + n_test
        if regional:
            labels = rng.integers(0, 5, n)
            truths = blob_centers[labels] + rng.normal(scale=3.0, size=(n, 2))
        else:
            truths = rng.uniform(0, 50, size=(n, 2))
        preds = truths + rng.normal(scale=3.0, size=(n, 2))  # the fixed predictor

        cal = calibrate(preds[:n_cal], truths[:n_cal], alpha, k, seed=trial,
                        assignment="truth")
        rep = coverage_by_region(preds[n_cal:], truths[n_cal:], cal,
                                 assignment_mode="truth")
        global_cov[trial] = rep.global_row.coverage
        for row in rep.rows:
            if row.coverage is not None:
                region_cov[trial, row.region] = row.coverage
    return global_cov, region_cov


def test_criterion_4_marginal_coverage():
    started = time.monotonic()
    global_cov, _ = _coverage_trials(
        n_trials=200, n_cal=1000, n_test=1000, alpha=0.1, k=1, regional=False)
    mean_cov = float(global_cov.mean())
    elapsed = time.monotonic() - started
    assert 0.895 <= mean_cov <= 0.915, f"mean coverage {mean_cov:.4f}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(4, f"mean coverage {mean_cov:.4f} over 200 trials in {elapsed:.1f}s")


def test_criterion_5_per_region_coverage_symmetric():
    _, region_cov = _coverage_trials(
        n_trials=200, n_cal=1000, n_test=1000, alpha=0.1, k=5, regional=True)
    means = np.nanmean(region_cov, axis=0)
    assert np.all(means >= 0.89), f"per-region means {np.round(means, 4)}"
    report(5, "per-region mean coverage "
              + ", ".join(f"{m:.4f}" for m in means) + " (all >= 0.89)")


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_6_radius_monotonicity(desk_scale):
    grid = (0.01, 0.05, 0.10, 0.15, 0.20)
    sweep = alpha_sweep(
        desk_scale["cal_preds"], desk_scale["cal_truths"],
        desk_scale["test_preds"], desk_scale["test_truths"],
        grid, kmeans_fit(desk_scale["cal_truths"], 5, 11))
    assert np.all(np.diff(sweep.radii, axis=0) <= 0), "per-region radii increased"
    assert np.all(np.diff(sweep.global_radii) <= 0), "global radius increased"
    report(6, f"radii non-increasing over alpha grid {grid} "
              f"(global {sweep.global_radii[0]:.2f} -> {sweep.global_radii[-1]:.2f} m)")


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_7_desk_scale_experiment(desk_scale):
    model_metrics = point_metrics(desk_scale["test_preds"], desk_scale["test_truths"])
    base_preds = baseline_positions(desk_scale["test_samples"], desk_scale["inventory"])
    base_metrics = point_metrics(base_preds, desk_scale["test_truths"])

    assert model_metrics.median <= 0.8 * base_metrics.median, (
        f"median {model_metrics.median:.2f} vs baseline {base_metrics.median:.2f}")

    cal = calibrate(desk_scale["cal_preds"], desk_scale["cal_truths"],
                    alpha=0.1, k=5, seed=11)
    rep = coverage_by_region(desk_scale["test_preds"], desk_scale["test_truths"], cal)
    cov = rep.global_row.coverage
    assert 0.85 <= cov <= 0.95, f"global coverage {cov:.3f}"
    assert desk_scale["elapsed"] < 600.0, f"pipeline took {desk_scale['elapsed']:.0f}s"
    report(7, f"median {model_metrics.median:.2f} m vs baseline "
              f"{base_metrics.median:.2f} m ({100 * (1 - model_metrics.median / base_metrics.median):.0f}% better), "
              f"coverage {cov:.3f}, {desk_scale['elapsed']:.0f}s")


# -- criterion 8 (conditional on dataset availability) ---------------------------


def test_criterion_8_hcxy_reproduction():
    """Real-dataset reproduction; runs only when SACLOC_HCXY_DIR is set.

    The directory must hold fingerprints.csv, inventory.csv and test.csv in
    this package's CSV schema (see README for the conversion recipe).
    """
    root = os.environ.get("SACLOC_HCXY_DIR")
    if not root:
        pytest.skip("SACLOC_HCXY_DIR not set; HCXY dataset not available")
    root = Path(root)
    inventory = load_inventory(root / "inventory.csv")
    pool = load_fingerprints(root / "fingerprints.csv", inventory)
    test_samples = load_fingerprints(root / "test.csv", inventory)
    train_samples, cal_samples = split_train_calibration(pool, 0.8, seed=11)

    graph_cfg = GraphConfig(d_p=20.0, tau=-75.0)
    full = os.environ.get("SACLOC_HCXY_FULL") == "1"
    hidden, epochs = (500, 100) if full else (64, 20)
    model = model_for_inventory(inventory, hidden=hidden, n_heads=4, seed=11)
    tc = TrainConfig(epochs=epochs, batch_size=64, lr=1e-3,
                     weight_decay=1e-4, dropout=0.4, seed=11)
    train(model, train_samples, tc, graph_cfg, inventory)

    test_truths = test_samples.truth
    metrics = point_metrics(
        predict_positions(model, test_samples, inventory, graph_cfg), test_truths)
    base = point_metrics(baseline_positions(test_samples, inventory), test_truths)
    assert metrics.median < base.median, (
        f"median {metrics.median:.2f} vs baseline {base.median:.2f}")

    if full:
        cal_preds = predict_positions(model, cal_samples, inventory, graph_cfg)
        cal = calibrate(cal_preds, cal_samples.truth, 0.1, 5, seed=11)
        rep = coverage_by_region(
            predict_positions(model, test_samples, inventory, graph_cfg),
            test_truths, cal)
        assert metrics.mae <= 1.76 * 1.4
        assert metrics.median <= 1.37 * 1.4
        assert metrics.p95 <= 4.40 * 1.4
        assert abs(rep.global_row.coverage - 0.848) <= 0.05
    report(8, f"HCXY median {metrics.median:.2f} m vs baseline {base.median:.2f} m"
              + (" (full profile)" if full else " (reduced profile)"))


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_9_trainer_sanity():
    cfg = SyntheticConfig(ap_count=5, area=(30.0, 20.0), noise_sigma_db=0.0,
                          train_samples=1, seed=2)
    inventory, samples = generate_synthetic(cfg)
    graph_cfg = GraphConfig(d_p=40.0, tau=-90.0)

    model = model_for_inventory(inventory, hidden=16, n_heads=2, seed=7)
    tc = TrainConfig(epochs=200, batch_size=1, lr=0.02, weight_decay=0.0,
                     dropout=0.0, seed=7)
    history = train(model, samples, tc, graph_cfg, inventory)
    final = history[-1]["train_mae"]
    assert final < 0.1, f"single-sample overfit stalled at {final:.4f} m"

    frozen = model_for_inventory(inventory, hidden=16, n_heads=2, seed=7)
    before = {k: p.data.copy() for k, p in frozen.parameters().items()}
    tc0 = TrainConfig(epochs=3, batch_size=1, lr=0.0, weight_decay=0.0,
                      dropout=0.0, seed=7)
    train(frozen, samples, tc0, graph_cfg, inventory)
    for k, p in frozen.parameters().items():
        assert np.array_equal(p.data, before[k]), f"{k} changed under lr=0"
    report(9, f"overfit MAE {final:.4f} m < 0.1; lr=0 run left parameters bitwise")


# -- criterion 10 --------------------------------------------------------------


def test_criterion_10_pipeline_determinism(tmp_path):
    config = {
        "dataset": {
            "fingerprints": str(tmp_path / "d" / "fp.csv"),
            "inventory": str(tmp_path / "d" / "inv.csv"),
            "test": str(tmp_path / "d" / "test.csv"),
        },
        "graph": {"d_p": 25.0, "tau": -80.0},
        "model": {"hidden": 8, "heads": 2},
        "train": {"epochs": 2, "batch_size": 16, "lr": 0.003,
                  "dropout": 0.2, "calibration_fraction": 0.2},
        "conformal": {"alpha": 0.2, "k": 2},
        "synth": {"ap_count": 5, "area": [40.0, 25.0], "noise_sigma_db": 3.0,
                  "train_samples": 60},
        "seed": 13,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert cli_main(["synth", "--config", str(config_path),
                     "--out", str(tmp_path / "d"), "--test-samples", "30"]) == 0

    artifacts = (CHECKPOINT_NAME, "loss_log.txt", "calibration.json",
                 "report.json", "report.txt", "fig_error_map.csv")
    digests = []
    for run in ("one", "two"):
        out = tmp_path / run
        for cmd in ("train", "calibrate", "evaluate"):
            code = cli_main([cmd, "--config", str(config_path), "--out", str(out)])
            assert code == 0, f"{cmd} failed on rerun {run}"
        digests.append({name: (out / name).read_bytes() for name in artifacts})
    for name in artifacts:
        assert digests[0][name] == digests[1][name], f"{name} differs between reruns"
    report(10, f"{len(artifacts)} artifacts byte-identical across reruns")
