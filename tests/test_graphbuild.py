import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sacloc.dataset import SENTINEL, ApInventory
from sacloc.graphbuild import (
    GraphConfig,
    build_ap_adjacency,
    build_sample_graph,
    user_edge_mask,
)

from conftest import make_sample


class TestApAdjacency:
    def test_line_thresholds(self, line_inventory):
        # distances 10, 20, 30; the 20 m boundary is inclusive
        adj = build_ap_adjacency(line_inventory, GraphConfig(d_p=20.0, tau=-75.0))
        expected = np.array([
            [False, True, False],
            [True, False, True],
            [False, True, False],
        ])
        assert np.array_equal(adj, expected)

    def test_colocated_aps_linked(self):
        inv = ApInventory(ap_ids=("a", "b"), coordinates=np.zeros((2, 2)))
        adj = build_ap_adjacency(inv, GraphConfig(d_p=0.5, tau=-75.0))
        assert adj[0, 1] and adj[1, 0]

    def test_single_ap(self):
        inv = ApInventory(ap_ids=("a",), coordinates=np.array([[1.0, 2.0]]))
        adj = build_ap_adjacency(inv, GraphConfig(d_p=100.0, tau=-75.0))
        assert adj.shape == (1, 1)
        assert not adj.any()

    def test_symmetric_zero_diagonal(self, small_world, graph_cfg):
        _, inventory, _ = small_world
        adj = build_ap_adjacency(inventory, graph_cfg)
        assert np.array_equal(adj, adj.T)
        assert not np.diagonal(adj).any()


class TestSampleGraph:
    def test_user_edges_respect_tau(self, line_inventory):
        cfg = GraphConfig(d_p=20.0, tau=-75.0)
        ap_adj = build_ap_adjacency(line_inventory, cfg)
        g = build_sample_graph(make_sample([-60.0, -80.0, SENTINEL]),
                               line_inventory, ap_adj, cfg)
        assert g.user_adjacency.tolist() == [[True, False, False]]

    def test_all_sentinel_no_user_edges(self, line_inventory):
        cfg = GraphConfig(d_p=20.0, tau=-75.0)
        ap_adj = build_ap_adjacency(line_inventory, cfg)
        g = build_sample_graph(make_sample([SENTINEL] * 3), line_inventory, ap_adj, cfg)
        assert not g.user_adjacency.any()

    def test_permissive_tau_connects_all(self, line_inventory):
        cfg = GraphConfig(d_p=20.0, tau=-120.0)
        ap_adj = build_ap_adjacency(line_inventory, cfg)
        g = build_sample_graph(make_sample([-60.0, -80.0, -100.0]),
                               line_inventory, ap_adj, cfg)
        assert g.user_adjacency.all()

    def test_sentinel_never_passes_tau(self):
        # 100 >= -75 numerically; a naive comparison would create this edge.
        mask = user_edge_mask(np.array([SENTINEL]), tau=-75.0)
        assert not mask[0]

    def test_ap_block_bit_equal(self, small_world, graph_cfg):
        _, inventory, samples = small_world
        ap_adj = build_ap_adjacency(inventory, graph_cfg)
        for scans in (samples[0], samples[:10]):
            g = build_sample_graph(scans, inventory, ap_adj, graph_cfg)
            assert np.array_equal(g.ap_adjacency, ap_adj)

    def test_user_is_sink(self, small_world, graph_cfg):
        # nothing on the AP side depends on the scans: no AP hears from a user
        _, inventory, samples = small_world
        ap_adj = build_ap_adjacency(inventory, graph_cfg)
        a = build_sample_graph(samples[0], inventory, ap_adj, graph_cfg)
        b = build_sample_graph(samples[1:], inventory, ap_adj, graph_cfg)
        assert np.array_equal(a.ap_features, b.ap_features)
        assert np.array_equal(a.ap_adjacency, b.ap_adjacency)

    def test_features_shapes(self, small_world, graph_cfg):
        _, inventory, samples = small_world
        ap_adj = build_ap_adjacency(inventory, graph_cfg)
        m = inventory.count
        for scans, b in ((samples[0], 1), (samples, len(samples))):
            g = build_sample_graph(scans, inventory, ap_adj, graph_cfg)
            assert g.user_features.shape == g.user_adjacency.shape == (b, m)
            assert g.user_adjacency.dtype == bool
            assert g.ap_features.shape == (m, 2)
            assert g.ap_adjacency.shape == (m, m)

    def test_rssi_length_checked(self, line_inventory):
        cfg = GraphConfig(d_p=20.0, tau=-75.0)
        ap_adj = build_ap_adjacency(line_inventory, cfg)
        with pytest.raises(ValueError, match="2 RSSI entries, inventory has 3"):
            build_sample_graph(make_sample([-60.0, -70.0]), line_inventory, ap_adj, cfg)

    def test_rows_equal_single_scan_graphs(self, small_world, graph_cfg):
        # the scan-set graph training and calibration use is, row for row, the
        # single-scan graph prediction uses
        _, inventory, samples = small_world
        ap_adj = build_ap_adjacency(inventory, graph_cfg)
        whole = build_sample_graph(samples, inventory, ap_adj, graph_cfg)
        for i in range(len(samples)):
            one = build_sample_graph(samples[i], inventory, ap_adj, graph_cfg)
            assert np.array_equal(whole.user_features[i:i + 1], one.user_features)
            assert np.array_equal(whole.user_adjacency[i:i + 1], one.user_adjacency)
            assert np.array_equal(whole.ap_features, one.ap_features)
            assert np.array_equal(whole.ap_adjacency, one.ap_adjacency)

    def test_alternative_sentinel_code(self, line_inventory):
        # Edge construction keys on the detection flag, not on the stored 100.
        cfg = GraphConfig(d_p=20.0, tau=-75.0)
        ap_adj = build_ap_adjacency(line_inventory, cfg)
        ref = build_sample_graph(make_sample([-60.0, SENTINEL, -70.0]),
                                 line_inventory, ap_adj, cfg)
        mask = user_edge_mask(np.array([-60.0, -1.0, -70.0]), tau=cfg.tau, sentinel=-1.0)
        assert np.array_equal(mask, ref.user_adjacency[0])


@given(
    rssi=st.lists(
        st.one_of(st.just(SENTINEL), st.floats(min_value=-110.0, max_value=-20.0)),
        min_size=1, max_size=12),
    tau1=st.floats(min_value=-100.0, max_value=-40.0),
    delta=st.floats(min_value=0.0, max_value=40.0),
)
def test_user_edges_monotone_in_tau(rssi, tau1, delta):
    rssi = np.array(rssi)
    loose = user_edge_mask(rssi, tau=tau1)
    strict = user_edge_mask(rssi, tau=tau1 + delta)
    assert np.all(~strict | loose)  # strict edge set is a subset


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    d1=st.floats(min_value=0.1, max_value=50.0),
    growth=st.floats(min_value=0.0, max_value=50.0),
)
def test_ap_edges_monotone_in_dp(seed, d1, growth):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 60, (6, 2))
    inv = ApInventory(ap_ids=tuple(f"ap{i}" for i in range(6)), coordinates=coords)
    small = build_ap_adjacency(inv, GraphConfig(d_p=d1, tau=-75.0))
    large = build_ap_adjacency(inv, GraphConfig(d_p=d1 + growth, tau=-75.0))
    assert np.all(~small | large)
