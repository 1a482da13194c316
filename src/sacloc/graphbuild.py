"""Per-scan localization graphs.

Nodes 0..m-1 are the APs in inventory order; node m is the user. AP-AP
links are static (inter-AP distance <= d_p, symmetric); user->AP links are
per scan (detected RSSI >= tau). The user row is kept unsymmetrized: the
user aggregates from APs, APs never aggregate from the user.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import (
    SENTINEL,
    ApInventory,
    FingerprintSample,
    coord_affine,
    detected_mask,
    normalize_coords,
    normalize_rssi,
)


@dataclass(frozen=True)
class GraphConfig:
    """Graph construction thresholds: AP proximity d_p (m), signal floor tau (dBm)."""

    d_p: float = 20.0
    tau: float = -75.0

    def __post_init__(self):
        if self.d_p <= 0:
            raise ValueError("d_p must be positive")
        if self.tau > 0:
            raise ValueError("tau must be <= 0 dBm")


@dataclass(frozen=True)
class LocGraph:
    """One scan's graph: (m+1)-node adjacency plus per-node feature rows."""

    adjacency: np.ndarray  # (m+1, m+1) bool
    user_index: int
    user_features: np.ndarray  # (m,) normalized RSSI
    ap_features: np.ndarray  # (m, 2) normalized coordinates

    @property
    def node_count(self) -> int:
        return self.adjacency.shape[0]

    @property
    def ap_count(self) -> int:
        return self.node_count - 1


def build_ap_adjacency(inventory: ApInventory, cfg: GraphConfig) -> np.ndarray:
    """Static AP-AP block: linked iff 0 < distance(i, j) in index and <= d_p."""
    coords = inventory.coordinates
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    adj = dist <= cfg.d_p
    np.fill_diagonal(adj, False)
    return adj


def user_edge_mask(
    rssi: np.ndarray, tau: float, sentinel: float = SENTINEL
) -> np.ndarray:
    """User->AP links: detected and at least tau. Sentinel entries never link."""
    rssi = np.asarray(rssi, dtype=np.float64)
    # The sentinel (100) would trivially pass any tau comparison; it must be
    # excluded before the threshold is applied.
    return detected_mask(rssi, sentinel) & (rssi >= tau)


def build_sample_graph(
    sample: FingerprintSample,
    inventory: ApInventory,
    ap_adj: np.ndarray,
    cfg: GraphConfig,
    sentinel: float = SENTINEL,
) -> LocGraph:
    """Assemble the (m+1)-node graph for one scan; user node is last."""
    m = inventory.count
    if sample.rssi.shape[0] != m:
        raise ValueError(f"sample has {sample.rssi.shape[0]} RSSI entries, inventory has {m}")
    adj = np.zeros((m + 1, m + 1), dtype=bool)
    adj[:m, :m] = ap_adj
    adj[m, :m] = user_edge_mask(sample.rssi, cfg.tau, sentinel)
    return LocGraph(
        adjacency=adj,
        user_index=m,
        user_features=normalize_rssi(sample.rssi, sentinel=sentinel),
        ap_features=normalize_coords(inventory.coordinates, coord_affine(inventory)),
    )
