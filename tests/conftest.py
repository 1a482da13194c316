import json

import numpy as np
import pytest

from sacloc.autodiff import Tensor, load_checkpoint, save_checkpoint
from sacloc.dataset import ApInventory, FingerprintSample, SyntheticConfig, generate_synthetic
from sacloc.graphbuild import GraphConfig


@pytest.fixture
def small_world():
    """6 APs, 40 noisy scans over a 50 x 30 m area."""
    cfg = SyntheticConfig(
        ap_count=6, area=(50.0, 30.0), path_loss_exponent=2.0,
        ref_power_dbm=-40.0, noise_sigma_db=3.0, detection_floor_dbm=-95.0,
        sample_count=40, seed=3,
    )
    inventory, samples = generate_synthetic(cfg)
    return cfg, inventory, samples


@pytest.fixture
def graph_cfg():
    return GraphConfig(d_p=25.0, tau=-75.0)


@pytest.fixture
def line_inventory():
    """Three APs on a line at x = 0, 10, 30."""
    return ApInventory(
        ap_ids=("a", "b", "c"),
        coordinates=np.array([[0.0, 0.0], [10.0, 0.0], [30.0, 0.0]]),
    )


def make_sample(rssi, truth=(0.0, 0.0)):
    return FingerprintSample(rssi=np.asarray(rssi, dtype=float), truth=np.asarray(truth))


def write_per_head_layout(path):
    """Rewrite a model checkpoint under the per-head parameter names of the
    layout before the heads were fused: `layer1.head0.w1` (root), `w2`
    (value), `w3` (query) and `w4` (key), one (in, head_dim) block each;
    every head's root block is the shared root. Optimizer state is dropped."""
    params, _, step, extra = load_checkpoint(path)
    n_heads = extra["model"]["n_heads"]
    old = {"root": "w1", "value": "w2", "query": "w3", "key": "w4"}
    per_head = {}
    for name, p in params.items():
        tag, _, weight = name.rpartition(".")
        if weight not in old:
            per_head[name] = p
            continue
        blocks = [p.data] * n_heads if weight == "root" else np.hsplit(p.data, n_heads)
        for hi, block in enumerate(blocks):
            per_head[f"{tag}.head{hi}.{old[weight]}"] = Tensor(block)
    save_checkpoint(path, per_head, step=step, extra=extra)


def write_fused_root_layout(path):
    """Rewrite a model checkpoint's shared `layer*.root` (in, head_dim) as the
    (in, n_heads * head_dim) root of the layout before the root was shared,
    one block per head (every block the shared root), under the same names.
    Optimizer state is dropped."""
    params, _, step, extra = load_checkpoint(path)
    n_heads = extra["model"]["n_heads"]
    save_checkpoint(path, {
        name: Tensor(np.tile(p.data, n_heads)) if name.endswith(".root") else p
        for name, p in params.items()}, step=step, extra=extra)


def write_encoded_key_layout(path):
    """Rewrite a model checkpoint's (3, hidden) `layer1.key` and
    `layer1.value` as the (hidden, hidden) ones of the layout before they
    acted on the AP coordinates (they acted on the encoded AP rows): the
    stored rows over hidden - 3 zero rows, under the same names."""
    params, _, step, extra = load_checkpoint(path)
    hidden = extra["model"]["hidden"]
    save_checkpoint(path, {
        name: Tensor(np.vstack([p.data, np.zeros((hidden - 3, hidden))]))
        if name in ("layer1.key", "layer1.value") else p
        for name, p in params.items()}, step=step, extra=extra)


def rewrite_checkpoint_header(path, edit):
    """Replace a checkpoint's JSON header line by `edit(header)`, keeping the
    magic line and the blob."""
    magic, header, blob = path.read_bytes().split(b"\n", 2)
    path.write_bytes(b"\n".join([magic, json.dumps(edit(json.loads(header))).encode(), blob]))


def with_model(header, **fields):
    """The checkpoint header with `fields` of its model metadata replaced."""
    return {**header, "extra": {"model": {**header["extra"]["model"], **fields}}}
