"""Fingerprint dataset ingestion, splits, normalization, synthetic generator.

CSV schema for fingerprint files: one RSSI column per AP id (in inventory
order), then `x`, `y` coordinate columns in meters. An optional
`ref_point_id` column is parsed when present; any other extra column is
ignored with a warning. The AP inventory file has columns `ap_id,x,y`.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyFile, EmptyInput, MalformedRow, MissingColumn
from .rng import stream

log = logging.getLogger(__name__)

# Dataset code for "AP not detected in this scan". Must never enter a
# numeric comparison as a power value.
SENTINEL = 100.0

# Default bounds for mapping detected dBm values into [0, 1].
RSSI_FLOOR = -100.0
RSSI_CEILING = -30.0


@dataclass(frozen=True)
class ApInventory:
    """Fixed access points: unique string ids and 2D positions in meters."""

    ap_ids: tuple[str, ...]
    coordinates: np.ndarray  # (m, 2) float64

    def __post_init__(self):
        coords = np.asarray(self.coordinates, dtype=np.float64)
        object.__setattr__(self, "coordinates", coords)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(f"coordinates must be (m, 2), got {coords.shape}")
        if coords.shape[0] != len(self.ap_ids):
            raise ValueError("coordinates and ap_ids lengths differ")
        if len(set(self.ap_ids)) != len(self.ap_ids):
            raise ValueError("ap_ids are not unique")
        if not np.all(np.isfinite(coords)):
            raise ValueError("AP coordinates must be finite")

    @property
    def count(self) -> int:
        return len(self.ap_ids)


@dataclass(frozen=True)
class FingerprintSample:
    """One Wi-Fi scan: RSSI per AP (sentinel 100 = undetected) + true position."""

    rssi: np.ndarray  # (m,) dBm or sentinel
    truth: np.ndarray  # (2,) meters
    ref_point_id: Optional[int] = None

    def __post_init__(self):
        rssi = np.asarray(self.rssi, dtype=np.float64)
        truth = np.asarray(self.truth, dtype=np.float64)
        object.__setattr__(self, "rssi", rssi)
        object.__setattr__(self, "truth", truth)
        if truth.shape != (2,):
            raise ValueError(f"truth must be 2D position, got shape {truth.shape}")
        # two scalar checks, not a ufunc: this runs once per CSV row
        if not (math.isfinite(truth[0]) and math.isfinite(truth[1])):
            raise ValueError(f"truth must be finite, got {truth.tolist()}")
        det = rssi != SENTINEL
        bad = det & (~np.isfinite(rssi) | (rssi > 0.0))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValueError(
                f"detected RSSI entries must be finite and <= 0 dBm; entry {i + 1} is {rssi[i]:g}")


@dataclass(frozen=True)
class SyntheticConfig:
    """Log-distance path-loss world used for tests and scaled experiments."""

    ap_count: int
    area: tuple[float, float]  # width, height in meters
    path_loss_exponent: float = 2.0
    ref_power_dbm: float = -40.0  # received power at 1 m
    noise_sigma_db: float = 0.0
    detection_floor_dbm: float = -95.0
    sample_count: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.ap_count < 3:
            raise ValueError("need at least 3 APs")
        if self.noise_sigma_db < 0:
            raise ValueError("noise sigma must be >= 0")
        if self.area[0] <= 0 or self.area[1] <= 0:
            raise ValueError("area dimensions must be positive")


def detected_mask(rssi: np.ndarray, sentinel: float = SENTINEL) -> np.ndarray:
    """Boolean mask of entries that carry a real measurement."""
    return np.asarray(rssi, dtype=np.float64) != sentinel


def normalize_rssi(
    rssi: np.ndarray,
    floor: float = RSSI_FLOOR,
    ceiling: float = RSSI_CEILING,
    sentinel: float = SENTINEL,
) -> np.ndarray:
    """Map RSSI into [0, 1]: sentinel -> 0, detected -> clamped linear scale."""
    if not floor < ceiling:
        raise ValueError(f"floor {floor} must be below ceiling {ceiling}")
    rssi = np.asarray(rssi, dtype=np.float64)
    scaled = np.clip((rssi - floor) / (ceiling - floor), 0.0, 1.0)
    return np.where(detected_mask(rssi, sentinel), scaled, 0.0)


def coord_affine(inventory: ApInventory) -> tuple[np.ndarray, np.ndarray]:
    """(offset, scale) mapping meters -> [0,1] over the AP bounding box."""
    lo = inventory.coordinates.min(axis=0)
    hi = inventory.coordinates.max(axis=0)
    scale = hi - lo
    scale = np.where(scale > 0.0, scale, 1.0)
    return lo, scale


def normalize_coords(points: np.ndarray, affine: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    offset, scale = affine
    return (np.asarray(points, dtype=np.float64) - offset) / scale


def denormalize_coords(points: np.ndarray, affine: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    offset, scale = affine
    return np.asarray(points, dtype=np.float64) * scale + offset


def load_inventory(path: str | Path) -> ApInventory:
    """Read an AP inventory CSV with columns ap_id,x,y."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptyFile(f"{path}: no header row")
        for col in ("ap_id", "x", "y"):
            if col not in reader.fieldnames:
                raise MissingColumn(f"{path}: missing column {col!r}")
        ids: list[str] = []
        coords: list[tuple[float, float]] = []
        for i, row in enumerate(reader, start=1):
            try:
                ids.append(row["ap_id"])
                coords.append((float(row["x"]), float(row["y"])))
            except (TypeError, ValueError) as exc:
                raise MalformedRow(i, str(exc)) from exc
    if not ids:
        raise EmptyFile(f"{path}: no data rows")
    return ApInventory(ap_ids=tuple(ids), coordinates=np.array(coords))


def save_inventory(path: str | Path, inventory: ApInventory) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ap_id", "x", "y"])
        for ap_id, (x, y) in zip(inventory.ap_ids, inventory.coordinates):
            writer.writerow([ap_id, repr(float(x)), repr(float(y))])


def load_fingerprints(path: str | Path, inventory: ApInventory) -> list[FingerprintSample]:
    """Read fingerprint scans, one sample per row; sentinel kept verbatim."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None:
            raise EmptyFile(f"{path}: no header row")
        for col in (*inventory.ap_ids, "x", "y"):
            if col not in header:
                raise MissingColumn(f"{path}: missing column {col!r}")
        known = set(inventory.ap_ids) | {"x", "y", "ref_point_id"}
        extra = [c for c in header if c not in known]
        if extra:
            log.warning("%s: ignoring extra columns %s", path, extra)
        samples: list[FingerprintSample] = []
        for i, row in enumerate(reader, start=1):
            try:
                rssi = np.array([float(row[ap]) for ap in inventory.ap_ids])
                truth = np.array([float(row["x"]), float(row["y"])])
                ref = row.get("ref_point_id")
                ref_id = int(ref) if ref not in (None, "") else None
                samples.append(FingerprintSample(rssi=rssi, truth=truth, ref_point_id=ref_id))
            except (TypeError, ValueError) as exc:
                raise MalformedRow(i, str(exc)) from exc
    if not samples:
        raise EmptyFile(f"{path}: no data rows")
    return samples


def save_fingerprints(
    path: str | Path, samples: Sequence[FingerprintSample], inventory: ApInventory
) -> None:
    """Write scans in the load_fingerprints schema (full float precision)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*inventory.ap_ids, "x", "y"])
        for s in samples:
            if s.rssi.shape[0] != inventory.count:
                raise ValueError("sample RSSI length does not match inventory")
            writer.writerow(
                [repr(float(v)) for v in s.rssi]
                + [repr(float(s.truth[0])), repr(float(s.truth[1]))]
            )


def split_train_calibration(
    samples: Sequence[FingerprintSample], fraction: float, seed: int
) -> tuple[list[FingerprintSample], list[FingerprintSample]]:
    """Deterministically shuffle and split; |train| = round(fraction * N)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    if len(samples) == 0:
        raise EmptyInput("cannot split an empty sample list")
    order = stream(seed, "split").permutation(len(samples))
    n_train = int(round(fraction * len(samples)))
    train_idx = sorted(order[:n_train])
    cal_idx = sorted(order[n_train:])
    return [samples[i] for i in train_idx], [samples[i] for i in cal_idx]


def path_loss_rssi(
    distances: np.ndarray, ref_power_dbm: float, path_loss_exponent: float
) -> np.ndarray:
    """Noise-free log-distance model: P0 - 10 * n * log10(d)."""
    d = np.maximum(np.asarray(distances, dtype=np.float64), 1e-12)
    return ref_power_dbm - 10.0 * path_loss_exponent * np.log10(d)


def synthesize_scans(
    inventory: ApInventory, cfg: SyntheticConfig, count: int, tag: str = "train"
) -> list[FingerprintSample]:
    """Scans at uniform random positions against an existing inventory.

    RSSI follows the log-distance model plus Gaussian noise, capped at
    0 dBm; readings below the detection floor become the sentinel. `tag`
    names the random stream so train/test draws stay independent.
    """
    width, height = cfg.area
    pos_rng = stream(cfg.seed, "synth", tag, "positions")
    noise_rng = stream(cfg.seed, "synth", tag, "noise")
    positions = np.column_stack(
        [pos_rng.uniform(0.0, width, count), pos_rng.uniform(0.0, height, count)]
    )
    dists = np.linalg.norm(
        positions[:, None, :] - inventory.coordinates[None, :, :], axis=2)
    rssi = path_loss_rssi(dists, cfg.ref_power_dbm, cfg.path_loss_exponent)
    if cfg.noise_sigma_db > 0:
        rssi = rssi + noise_rng.normal(0.0, cfg.noise_sigma_db, rssi.shape)
    rssi = np.minimum(rssi, 0.0)  # keep within the dBm domain of real scans
    rssi = np.where(rssi < cfg.detection_floor_dbm, SENTINEL, rssi)
    return [FingerprintSample(rssi=rssi[i], truth=positions[i]) for i in range(count)]


def generate_synthetic(cfg: SyntheticConfig) -> tuple[ApInventory, list[FingerprintSample]]:
    """Random APs + scans under the path-loss model; deterministic under seed."""
    width, height = cfg.area
    ap_rng = stream(cfg.seed, "synth", "aps")
    ap_xy = np.column_stack(
        [ap_rng.uniform(0.0, width, cfg.ap_count), ap_rng.uniform(0.0, height, cfg.ap_count)]
    )
    inventory = ApInventory(
        ap_ids=tuple(f"AP{i:03d}" for i in range(cfg.ap_count)), coordinates=ap_xy
    )
    return inventory, synthesize_scans(inventory, cfg, cfg.sample_count, "train")


def rssi_matrix(samples: Sequence[FingerprintSample]) -> np.ndarray:
    """Stack raw RSSI vectors into an (N, m) matrix."""
    return np.stack([s.rssi for s in samples])


def truth_matrix(samples: Sequence[FingerprintSample]) -> np.ndarray:
    """Stack ground-truth positions into an (N, 2) matrix."""
    return np.stack([s.truth for s in samples])
