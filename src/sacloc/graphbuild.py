"""Localization graphs: the AP topology plus one user node per scan.

AP-AP links are static (inter-AP distance <= d_p, symmetric); user->AP
links are per scan (detected RSSI >= tau). APs never aggregate from a user,
so the graph of B scans is their B user rows (features and links to the
APs) plus the AP blocks every scan shares. `build_sample_graph` is the one
place that assembles it, for one scan or for a whole scan set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import (
    SENTINEL,
    ApInventory,
    FingerprintSample,
    ScanSet,
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
    """The graph of B scans: B user rows plus the AP blocks they share."""

    user_features: np.ndarray  # (B, m) normalized RSSI
    user_adjacency: np.ndarray  # (B, m) bool, user -> AP links
    ap_features: np.ndarray  # (m, 2) normalized coordinates
    ap_adjacency: np.ndarray  # (m, m) bool


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
    scans: FingerprintSample | ScanSet,
    inventory: ApInventory,
    ap_adj: np.ndarray,
    cfg: GraphConfig,
) -> LocGraph:
    """The graph of one scan (B=1) or of a scan set (B=N), user row i for scan i."""
    rssi = np.atleast_2d(scans.rssi)
    m = inventory.count
    if rssi.shape[1] != m:
        raise ValueError(f"scans have {rssi.shape[1]} RSSI entries, inventory has {m}")
    return LocGraph(
        user_features=normalize_rssi(rssi),
        user_adjacency=user_edge_mask(rssi, cfg.tau),
        ap_features=normalize_coords(inventory.coordinates, coord_affine(inventory)),
        ap_adjacency=ap_adj,
    )
