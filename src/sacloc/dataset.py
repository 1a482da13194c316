"""Fingerprint dataset ingestion, splits, normalization, synthetic generator.

A set of scans is a `ScanSet`: one (N, m) RSSI matrix and one (N, 2) truth
matrix, checked once as a whole. `FingerprintSample` is a single scan, as
`scans[i]` returns it; both apply the same validation rule.

CSV schema for fingerprint files: a header row naming one RSSI column per
AP id and the `x`, `y` coordinate columns in meters, in any order. No
column may be named twice. `ref_point_id` is ignored silently, any other
extra column with a warning. The body is parsed in one bulk read; a file it
cannot take is rescanned row by row, so a bad row is reported with the file
and its 1-based data-row index (blank lines not counted). The AP inventory file has
columns `ap_id,x,y`.
"""

from __future__ import annotations

import csv
import logging
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    BadInventory,
    DuplicateColumn,
    EmptyFile,
    EmptyInput,
    MalformedRow,
    MissingColumn,
    check_ranges,
)
from .rng import stream

log = logging.getLogger(__name__)

# Dataset code for "AP not detected in this scan". Must never enter a
# numeric comparison as a power value.
SENTINEL = 100.0

# Bounds for mapping detected dBm values into [0, 1].
RSSI_FLOOR = -100.0
RSSI_CEILING = -30.0

# Fingerprint CSV columns that are not AP ids, so no AP may take their names.
RESERVED_COLUMNS = frozenset({"x", "y", "ref_point_id"})


@dataclass(frozen=True)
class ApInventory:
    """Fixed access points: unique string ids and 2D positions in meters."""

    ap_ids: tuple[str, ...]
    coordinates: np.ndarray  # (m, 2) float64

    def __post_init__(self):
        coords = np.array(self.coordinates, dtype=np.float64)
        coords.flags.writeable = False
        object.__setattr__(self, "coordinates", coords)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(f"coordinates must be (m, 2), got {coords.shape}")
        if coords.shape[0] != len(self.ap_ids):
            raise ValueError("coordinates and ap_ids lengths differ")
        if len(set(self.ap_ids)) != len(self.ap_ids):
            repeated = next(a for i, a in enumerate(self.ap_ids) if a in self.ap_ids[:i])
            raise ValueError(f"ap_ids are not unique: {repeated!r} appears more than once")
        if reserved := sorted(RESERVED_COLUMNS.intersection(self.ap_ids)):
            raise ValueError(f"ap_id {reserved[0]!r} is a reserved fingerprint CSV column")
        bad = ~np.isfinite(coords).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"AP coordinates must be finite; {self.ap_ids[i]!r} is at {coords[i].tolist()}")

    @property
    def count(self) -> int:
        return len(self.ap_ids)

    @cached_property
    def normalized_coordinates(self) -> np.ndarray:
        """(m, 2) positions mapped by `coord_affine`, read-only: the AP
        features of every graph over this inventory, computed once."""
        feats = normalize_coords(self.coordinates, coord_affine(self))
        feats.flags.writeable = False
        return feats


def _first_bad_scan(rssi: np.ndarray, truth: np.ndarray) -> Optional[tuple[int, str]]:
    """(row, message) for the first of N scans that breaks the scan rule, or None.

    The rule: the truth position is finite, and every detected RSSI entry
    (not the sentinel) is finite and at most 0 dBm. Within a row the truth
    is checked first. `rssi` is (N, m), `truth` (N, 2).
    """
    bad_truth = ~np.isfinite(truth).all(axis=1)
    bad_entry = (rssi != SENTINEL) & ~(np.isfinite(rssi) & (rssi <= 0.0))
    bad = bad_truth | bad_entry.any(axis=1)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if bad_truth[i]:
        return i, f"truth must be finite, got {truth[i].tolist()}"
    j = int(np.argmax(bad_entry[i]))
    return i, (f"detected RSSI entries must be finite and <= 0 dBm; "
               f"entry {j + 1} is {rssi[i, j]:g}")


@dataclass(frozen=True)
class FingerprintSample:
    """One Wi-Fi scan: RSSI per AP (sentinel 100 = undetected) + true position."""

    rssi: np.ndarray  # (m,) dBm or sentinel
    truth: np.ndarray  # (2,) meters

    def __post_init__(self):
        rssi = np.asarray(self.rssi, dtype=np.float64)
        truth = np.asarray(self.truth, dtype=np.float64)
        object.__setattr__(self, "rssi", rssi)
        object.__setattr__(self, "truth", truth)
        if truth.shape != (2,):
            raise ValueError(f"truth must be 2D position, got shape {truth.shape}")
        bad = _first_bad_scan(rssi.reshape(1, -1), truth.reshape(1, 2))
        if bad is not None:
            raise ValueError(bad[1])


@dataclass(frozen=True, eq=False)
class ScanSet:
    """N Wi-Fi scans as one (N, m) RSSI matrix and one (N, 2) truth matrix.

    Every row is checked once, on construction, by the `FingerprintSample`
    rule; the first bad row raises ValueError naming `scans[i]` and the
    entry. `scans[i]` is one `FingerprintSample`; a slice, index array or
    boolean mask gives a `ScanSet` of those rows.
    """

    rssi: np.ndarray  # (N, m) dBm or sentinel
    truth: np.ndarray  # (N, 2) meters

    def __post_init__(self):
        rssi = np.ascontiguousarray(self.rssi, dtype=np.float64)
        truth = np.ascontiguousarray(self.truth, dtype=np.float64)
        object.__setattr__(self, "rssi", rssi)
        object.__setattr__(self, "truth", truth)
        if rssi.ndim != 2 or truth.shape != (rssi.shape[0], 2):
            raise ValueError(
                f"need (N, m) RSSI and (N, 2) truth, got {rssi.shape} and {truth.shape}")
        bad = _first_bad_scan(rssi, truth)
        if bad is not None:
            raise ValueError(f"scans[{bad[0]}]: {bad[1]}")

    def __len__(self) -> int:
        return self.rssi.shape[0]

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return FingerprintSample(rssi=self.rssi[index], truth=self.truth[index])
        return ScanSet(rssi=self.rssi[index], truth=self.truth[index])

    def __iter__(self):
        return (self[i] for i in range(len(self)))


@dataclass(frozen=True)
class SyntheticConfig:
    """Log-distance path-loss world used for tests and scaled experiments."""

    ap_count: int
    area: tuple[float, float]  # width, height in meters
    path_loss_exponent: float = 2.0
    ref_power_dbm: float = -40.0  # received power at 1 m
    noise_sigma_db: float = 0.0
    detection_floor_dbm: float = -95.0
    train_samples: int = 1000  # scans of the fingerprints file
    seed: int = 0

    def __post_init__(self):
        check_ranges((
            ("ap_count", self.ap_count, self.ap_count >= 3, "at least 3"),
            ("area", list(self.area), all(a > 0 for a in self.area), "positive"),
            ("noise_sigma_db", self.noise_sigma_db, self.noise_sigma_db >= 0, "nonnegative"),
            ("train_samples", self.train_samples, self.train_samples >= 1, "at least 1"),
        ))


def detected_mask(rssi: np.ndarray) -> np.ndarray:
    """Boolean mask of entries that carry a real measurement (not SENTINEL)."""
    return np.asarray(rssi, dtype=np.float64) != SENTINEL


def normalize_rssi(rssi: np.ndarray) -> np.ndarray:
    """Map RSSI into [0, 1]: sentinel -> 0, detected -> linear from RSSI_FLOOR
    to RSSI_CEILING, clamped."""
    rssi = np.asarray(rssi, dtype=np.float64)
    # np.clip's values without its Python-level wrapper, which on one scan
    # costs as much as the arithmetic
    scaled = np.minimum(np.maximum((rssi - RSSI_FLOOR) / (RSSI_CEILING - RSSI_FLOOR), 0.0), 1.0)
    return np.where(detected_mask(rssi), scaled, 0.0)


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


def _read_header(reader, path) -> list[str]:
    """The header row; EmptyFile when there is none, DuplicateColumn when a
    name appears twice (which of the two columns is meant is unknowable)."""
    header = next(reader, None)
    if header is None:
        raise EmptyFile(f"{path}: no header row")
    seen: set[str] = set()
    for name in header:
        if name in seen:
            raise DuplicateColumn(f"{path}: column {name!r} appears more than once")
        seen.add(name)
    return header


def load_inventory(path: str | Path) -> ApInventory:
    """Read an AP inventory CSV with columns ap_id,x,y.

    A duplicated AP id, an AP id that is a reserved fingerprint column
    (`x`, `y`, `ref_point_id`) or a non-finite coordinate raises BadInventory.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, _read_header(csv.reader(fh), path))
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
                raise MalformedRow(path, i, str(exc)) from exc
    if not ids:
        raise EmptyFile(f"{path}: no data rows")
    try:
        return ApInventory(ap_ids=tuple(ids), coordinates=np.array(coords))
    except ValueError as exc:
        raise BadInventory(f"{path}: {exc}") from exc


def save_inventory(path: str | Path, inventory: ApInventory) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ap_id", "x", "y"])
        for ap_id, (x, y) in zip(inventory.ap_ids, inventory.coordinates):
            writer.writerow([ap_id, repr(float(x)), repr(float(y))])


def load_fingerprints(path: str | Path, inventory: ApInventory) -> ScanSet:
    """Read fingerprint scans, one per row; the sentinel is kept verbatim.

    The body is parsed in one `np.loadtxt` call and checked as one
    `ScanSet`. When either step fails, the file is rescanned row by row to
    raise MalformedRow with the failing row's index and message (or to take
    numerals only Python's `float` reads, such as `1_000`).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        header = _read_header(csv.reader(fh), path)
        for col in (*inventory.ap_ids, "x", "y"):
            if col not in header:
                raise MissingColumn(f"{path}: missing column {col!r}")
        known = set(inventory.ap_ids) | RESERVED_COLUMNS
        extra = [c for c in header if c not in known]
        if extra:
            log.warning("%s: ignoring extra columns %s", path, extra)
        at = {name: j for j, name in enumerate(header)}
        cols = [at[name] for name in (*inventory.ap_ids, "x", "y")]
        try:
            with warnings.catch_warnings():
                # an empty body warns; the rescan below raises EmptyFile for it
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(
                    fh, dtype=np.float64, delimiter=",", comments=None, quotechar='"',
                    usecols=cols, ndmin=2)
            if len(table):
                return ScanSet(rssi=table[:, :-2], truth=table[:, -2:])
        except ValueError:
            pass
    return _rescan_rows(path, len(header), cols)


def _rescan_rows(path: str | Path, width: int, cols: list[int]) -> ScanSet:
    """Row-by-row parse of a fingerprint body: Python `float` per cell, blank
    lines skipped, a missing cell read as None (as `csv.DictReader` gives
    it), and the first bad row, by parse or by the scan rule, raised as
    MalformedRow."""
    rows: list[list[float]] = []
    failure: Optional[MalformedRow] = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for i, row in enumerate((r for r in reader if r), start=1):
            cells = row + [None] * (width - len(row))
            try:
                rows.append([float(cells[j]) for j in cols])
            except (TypeError, ValueError) as exc:
                failure = MalformedRow(path, i, str(exc))
                break
    table = np.array(rows, dtype=np.float64).reshape(len(rows), len(cols))
    bad = _first_bad_scan(table[:, :-2], table[:, -2:])
    if bad is not None:
        raise MalformedRow(path, bad[0] + 1, bad[1])
    if failure is not None:
        raise failure
    if not rows:
        raise EmptyFile(f"{path}: no data rows")
    return ScanSet(rssi=table[:, :-2], truth=table[:, -2:])


def save_fingerprints(path: str | Path, scans: ScanSet, inventory: ApInventory) -> None:
    """Write scans in the load_fingerprints schema: `repr` of every float
    (full precision), CRLF line ends as `csv.writer` uses."""
    if scans.rssi.shape[1] != inventory.count:
        raise ValueError("sample RSSI length does not match inventory")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([*inventory.ap_ids, "x", "y"])
        # a row at a time: as fast as one join, without the whole file in memory
        for row in np.hstack([scans.rssi, scans.truth]):
            fh.write(",".join(map(repr, row.tolist())) + "\r\n")


def split_train_calibration(
    scans: ScanSet, fraction: float, seed: int
) -> tuple[ScanSet, ScanSet]:
    """Deterministically shuffle and split; |train| = round(fraction * N).

    Each part keeps the pool's row order.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    if len(scans) == 0:
        raise EmptyInput("cannot split an empty scan set")
    order = stream(seed, "split").permutation(len(scans))
    n_train = int(round(fraction * len(scans)))
    return scans[np.sort(order[:n_train])], scans[np.sort(order[n_train:])]


def path_loss_rssi(
    distances: np.ndarray, ref_power_dbm: float, path_loss_exponent: float
) -> np.ndarray:
    """Noise-free log-distance model: P0 - 10 * n * log10(d)."""
    d = np.maximum(np.asarray(distances, dtype=np.float64), 1e-12)
    return ref_power_dbm - 10.0 * path_loss_exponent * np.log10(d)


def synthesize_scans(
    inventory: ApInventory, cfg: SyntheticConfig, count: int, tag: str = "train"
) -> ScanSet:
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
    return ScanSet(rssi=rssi, truth=positions)


def generate_synthetic(cfg: SyntheticConfig) -> tuple[ApInventory, ScanSet]:
    """Random APs + scans under the path-loss model; deterministic under seed."""
    width, height = cfg.area
    ap_rng = stream(cfg.seed, "synth", "aps")
    ap_xy = np.column_stack(
        [ap_rng.uniform(0.0, width, cfg.ap_count), ap_rng.uniform(0.0, height, cfg.ap_count)]
    )
    inventory = ApInventory(
        ap_ids=tuple(f"AP{i:03d}" for i in range(cfg.ap_count)), coordinates=ap_xy
    )
    return inventory, synthesize_scans(inventory, cfg, cfg.train_samples, "train")

