"""Metrics, coverage accounting, alpha sweeps, baseline, and report emission.

Percentile convention everywhere: linear interpolation between order
statistics (stated in the report header). MAE is reported in two forms,
`mae_l1` (mean of |dx| + |dy|, the training objective) and `mae_euclid`
(mean Euclidean error); RMSE, median and upper percentiles always use the
Euclidean error.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .conformal import SacpCalibration, nonconformity_scores, radius_table
from .dataset import ApInventory, ScanSet, detected_mask
from .errors import EmptyInput, IoError
from .regions import RegionModel, assign_regions
# unused here; perfbench's tracer still patches these names
from .conformal import calibrate  # noqa: F401
from .regions import kmeans_fit  # noqa: F401

# Reference power for baseline weighting: a scan at the ceiling of the usable
# dBm range counts most.
BASELINE_REF_DBM = -30.0


@dataclass(frozen=True)
class PointMetrics:
    """Point-estimate error summary in meters."""

    mae_l1: float
    mae_euclid: float
    rmse: float
    median: float
    p75: float
    p95: float
    count: int

    @property
    def mae(self) -> float:
        """Headline MAE: the |dx| + |dy| form matching the training objective."""
        return self.mae_l1


@dataclass(frozen=True)
class CoverageRow:
    region: int | str  # region id, or "global"
    count: int
    radius: float
    coverage: Optional[float]  # None when the region holds no test samples


@dataclass(frozen=True)
class CoverageReport:
    alpha: float
    assignment_mode: str
    rows: tuple[CoverageRow, ...]
    global_row: CoverageRow
    # (n,) region id of each test scan, routed by `assignment_mode`; the
    # error map reads it, the report files do not
    regions: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class SweepResult:
    alphas: np.ndarray  # (A,) strictly increasing
    radii: np.ndarray  # (A, k)
    global_radii: np.ndarray  # (A,)
    coverages: np.ndarray  # (A, k), NaN where a region has no test samples
    global_coverages: np.ndarray  # (A,)
    region_counts: np.ndarray  # (k,) test samples per region (alpha-independent)


@dataclass(frozen=True)
class ErrorMapData:
    """Per-test-sample plot data: position, error and region."""

    x: np.ndarray
    y: np.ndarray
    error_m: np.ndarray
    region: np.ndarray


def point_metrics(preds: np.ndarray, truths: np.ndarray) -> PointMetrics:
    preds = np.asarray(preds, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if len(preds) == 0:
        raise EmptyInput("no predictions to score")
    if preds.shape != truths.shape:
        raise ValueError(f"shape mismatch: {preds.shape} vs {truths.shape}")
    diff = preds - truths
    euclid = np.linalg.norm(diff, axis=1)
    median, p75, p95 = map(float, np.percentile(euclid, (50, 75, 95)))
    return PointMetrics(
        mae_l1=float(np.abs(diff).sum(axis=1).mean()),
        mae_euclid=float(euclid.mean()),
        rmse=float(np.sqrt(np.mean(euclid**2))),
        median=median,
        p75=p75,
        p95=p95,
        count=len(preds),
    )


def _coverage_rows(
    preds: np.ndarray,
    truths: np.ndarray,
    region_model: RegionModel,
    radii: np.ndarray,
    global_radii: np.ndarray,
    assignment_mode: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-region coverage (A, k), NaN where a region holds no test samples,
    global coverage (A,), per-region test counts (k,) and each test
    sample's region (n,), for A rows of per-region radii (A, k) and global
    radii (A,)."""
    if len(preds) == 0:
        raise EmptyInput("no samples to cover")
    if assignment_mode not in ("predicted", "truth"):
        raise ValueError(f"unknown assignment mode {assignment_mode!r}")
    regions = assign_regions(region_model, preds if assignment_mode == "predicted" else truths)
    errors = nonconformity_scores(preds, truths)
    covered = errors <= radii[:, regions]  # (A, n): each sample against its region's radius
    counts = np.bincount(regions, minlength=region_model.k)
    coverages = np.full(radii.shape, np.nan)
    for r in np.flatnonzero(counts):
        coverages[:, r] = covered[:, regions == r].mean(axis=1)
    return coverages, (errors <= global_radii[:, None]).mean(axis=1), counts, regions


def coverage_by_region(
    preds: np.ndarray,
    truths: np.ndarray,
    calibration: SacpCalibration,
    assignment_mode: str = "predicted",
) -> CoverageReport:
    """Empirical coverage per region and globally.

    A sample is covered when its Euclidean error is within its region's
    radius. assignment_mode picks how test samples are routed to regions:
    "predicted" (inference-time rule) or "truth" (symmetric rule used when
    checking the per-region guarantee). The global row always uses the
    k=1 global radius over all samples.
    """
    coverages, global_coverages, counts, regions = _coverage_rows(
        preds, truths, calibration.region_model, calibration.radii[None, :],
        np.array([calibration.global_radius]), assignment_mode)
    rows = tuple(
        CoverageRow(region=r, count=int(counts[r]), radius=float(calibration.radii[r]),
                    coverage=float(coverages[0, r]) if counts[r] else None)
        for r in range(calibration.k))
    global_row = CoverageRow(region="global", count=int(counts.sum()),
                             radius=float(calibration.global_radius),
                             coverage=float(global_coverages[0]))
    return CoverageReport(alpha=calibration.alpha, assignment_mode=assignment_mode,
                          rows=rows, global_row=global_row, regions=regions)


def alpha_sweep(
    cal_preds: np.ndarray,
    cal_truths: np.ndarray,
    test_preds: np.ndarray,
    test_truths: np.ndarray,
    alphas: Sequence[float],
    region_model: RegionModel,
    assignment: str = "truth",
) -> SweepResult:
    """Radii and coverage across an alpha grid with one `region_model` fitted
    on `cal_truths`, every alpha read from one sort of each region's scores.

    Calibration scores are grouped by region under `assignment`, as in
    `calibrate` (by true region unless told otherwise); test scans are
    routed by predicted region, as `coverage_by_region` defaults to.
    """
    alphas = np.asarray(list(alphas), dtype=np.float64)
    if len(alphas) == 0 or np.any(np.diff(alphas) <= 0):
        raise ValueError("alpha grid must be nonempty and strictly increasing")
    if np.any((alphas <= 0) | (alphas >= 1)):
        raise ValueError("alphas must lie in (0, 1)")

    radii, global_radii, _ = radius_table(cal_preds, cal_truths, alphas, region_model, assignment)
    # Quantile ranks shrink as alpha grows, so this cannot fail unless the
    # rank arithmetic regresses. Adjacent rows are compared directly, not
    # through np.diff: two infinite radii in a row would give inf - inf = nan.
    assert np.all(radii[1:] <= radii[:-1]) and np.all(global_radii[1:] <= global_radii[:-1])
    coverages, global_coverages, region_counts, _ = _coverage_rows(
        test_preds, test_truths, region_model, radii, global_radii, "predicted")
    return SweepResult(alphas=alphas, radii=radii, global_radii=global_radii,
                       coverages=coverages, global_coverages=global_coverages,
                       region_counts=region_counts)


def weighted_centroid_baseline(rssi: np.ndarray, inventory: ApInventory) -> np.ndarray:
    """RSSI-weighted mean of detected AP positions for one scan's (m,) RSSI
    row; the inventory mean if no AP is detected."""
    det = detected_mask(rssi)
    if not det.any():
        return inventory.coordinates.mean(axis=0)
    weights = 1.0 / (np.abs(rssi[det] - BASELINE_REF_DBM) + 1.0)
    return weights @ inventory.coordinates[det] / weights.sum()


def baseline_positions(scans: ScanSet, inventory: ApInventory) -> np.ndarray:
    # one scan at a time: a batched weighted sum rounds differently
    return np.stack([weighted_centroid_baseline(row, inventory) for row in scans.rssi])


# -- report files -------------------------------------------------------------


def _num(x: float | None) -> float | str | None:
    if x is None:
        return None
    if math.isinf(x):
        return "inf"
    return float(x)


def _fmt(x: float | None, width: int = 9, prec: int = 3) -> str:
    if x is None:
        return "-".rjust(width)
    if math.isinf(x):
        return "inf".rjust(width)
    return f"{x:{width}.{prec}f}"


def _coverage_json(c: CoverageReport) -> dict:
    def row(r: CoverageRow) -> dict:
        return {
            "region": r.region,
            "count": r.count,
            "radius": _num(r.radius),
            "coverage": _num(r.coverage),
        }

    return {
        "alpha": c.alpha,
        "assignment_mode": c.assignment_mode,
        "regions": [row(r) for r in c.rows],
        "global": row(c.global_row),
    }


def _sweep_json(s: SweepResult) -> dict:
    return {
        "alphas": s.alphas.tolist(),
        "radii": [[_num(v) for v in row] for row in s.radii],
        "global_radii": [_num(v) for v in s.global_radii],
        "coverages": [
            [None if math.isnan(v) else v for v in row] for row in s.coverages
        ],
        "global_coverages": s.global_coverages.tolist(),
        "region_counts": s.region_counts.tolist(),
    }


def _metrics_table(named_metrics: list[tuple[str, PointMetrics]]) -> list[str]:
    lines = [
        "Localization error (meters)",
        f"{'Method':<20}{'MAE':>9}{'RMSE':>9}{'Median':>9}{'p75':>9}{'p95':>9}{'N':>8}",
    ]
    for name, m in named_metrics:
        lines.append(
            f"{name:<20}{_fmt(m.mae)}{_fmt(m.rmse)}{_fmt(m.median)}"
            f"{_fmt(m.p75)}{_fmt(m.p95)}{m.count:>8d}"
        )
    return lines


def _coverage_table(c: CoverageReport) -> list[str]:
    lines = [
        f"Per-region coverage (alpha={c.alpha:g}, target {100 * (1 - c.alpha):.0f}%, "
        f"test assignment: {c.assignment_mode})",
        f"{'Region':<10}{'N_test':>8}{'Radius(m)':>12}{'Coverage(%)':>13}",
    ]
    for r in (*c.rows, c.global_row):
        name = f"R{r.region}" if isinstance(r.region, int) else str(r.region)
        cov = "-" if r.coverage is None else f"{100 * r.coverage:.1f}"
        lines.append(f"{name:<10}{r.count:>8d}{_fmt(r.radius, 12)}{cov:>13}")
    return lines


def emit_report(
    out_dir: str | Path,
    metrics: PointMetrics,
    coverage: CoverageReport,
    error_map: ErrorMapData,
    baseline_metrics: PointMetrics,
    sweep: Optional[SweepResult] = None,
) -> list[Path]:
    """Write report.json, report.txt and per-figure CSVs; returns the paths.

    Output is a pure function of the inputs, so identical inputs produce
    byte-identical files.
    """
    out_dir = Path(out_dir)
    written: list[Path] = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)

        doc: dict = {
            "percentile_convention": "linear interpolation between order statistics",
            "point_metrics": asdict(metrics),
            "baseline_metrics": asdict(baseline_metrics),
            "coverage": _coverage_json(coverage),
        }
        if sweep is not None:
            doc["sweep"] = _sweep_json(sweep)
        json_path = out_dir / "report.json"
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(json_path)

        lines = ["# Percentiles: linear interpolation between order statistics", ""]
        lines += _metrics_table([("model", metrics), ("weighted-centroid", baseline_metrics)])
        lines += [""] + _coverage_table(coverage) + [""]
        txt_path = out_dir / "report.txt"
        txt_path.write_text("\n".join(lines), encoding="utf-8")
        written.append(txt_path)

        path = out_dir / "fig_error_map.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,y,error_m,region\n")
            for x, y, e, r in zip(error_map.x, error_map.y, error_map.error_m, error_map.region):
                fh.write(f"{x:.6f},{y:.6f},{e:.6f},{int(r)}\n")
        written.append(path)

        if sweep is not None:
            cov_path = out_dir / "fig_alpha_coverage.csv"
            rad_path = out_dir / "fig_alpha_radius.csv"
            with open(cov_path, "w", encoding="utf-8") as cov, \
                    open(rad_path, "w", encoding="utf-8") as rad:
                cov.write("alpha,region,coverage\n")
                rad.write("alpha,region,radius\n")
                for i, alpha in enumerate(sweep.alphas):
                    for r, v in enumerate(sweep.coverages[i]):
                        cov.write(f"{alpha:.6g},{r},{'' if math.isnan(v) else f'{v:.6f}'}\n")
                        rad.write(f"{alpha:.6g},{r},{_radius_csv(sweep.radii[i, r])}\n")
                    cov.write(f"{alpha:.6g},global,{sweep.global_coverages[i]:.6f}\n")
                    rad.write(f"{alpha:.6g},global,{_radius_csv(sweep.global_radii[i])}\n")
            written += [cov_path, rad_path]
    except OSError as exc:
        raise IoError(f"cannot write report to {out_dir}: {exc}") from exc
    return written


def _radius_csv(r: float) -> str:
    return "inf" if math.isinf(r) else f"{r:.6f}"
