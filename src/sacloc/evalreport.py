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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .conformal import SacpCalibration, calibrate, nonconformity_scores
from .dataset import ApInventory, ScanSet, detected_mask
from .errors import EmptyInput, IoError
from .regions import RegionModel, assign_regions
# unused here; perfbench's tracer still patches this name
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
    return PointMetrics(
        mae_l1=float(np.abs(diff).sum(axis=1).mean()),
        mae_euclid=float(euclid.mean()),
        rmse=float(np.sqrt(np.mean(euclid**2))),
        median=float(np.percentile(euclid, 50)),
        p75=float(np.percentile(euclid, 75)),
        p95=float(np.percentile(euclid, 95)),
        count=len(preds),
    )


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
    preds = np.asarray(preds, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if len(preds) == 0:
        raise EmptyInput("no samples to cover")
    if assignment_mode not in ("predicted", "truth"):
        raise ValueError(f"unknown assignment mode {assignment_mode!r}")
    basis = preds if assignment_mode == "predicted" else truths
    regions = assign_regions(calibration.region_model, basis)
    errors = nonconformity_scores(preds, truths)

    rows = []
    for r in range(calibration.k):
        mask = regions == r
        n = int(mask.sum())
        radius = float(calibration.radii[r])
        cov = float(np.mean(errors[mask] <= radius)) if n else None
        rows.append(CoverageRow(region=r, count=n, radius=radius, coverage=cov))
    global_row = CoverageRow(
        region="global",
        count=len(preds),
        radius=float(calibration.global_radius),
        coverage=float(np.mean(errors <= calibration.global_radius)),
    )
    return CoverageReport(
        alpha=calibration.alpha,
        assignment_mode=assignment_mode,
        rows=tuple(rows),
        global_row=global_row,
    )


def alpha_sweep(
    cal_preds: np.ndarray,
    cal_truths: np.ndarray,
    test_preds: np.ndarray,
    test_truths: np.ndarray,
    alphas: Sequence[float],
    region_model: RegionModel,
    assignment: str = "truth",
) -> SweepResult:
    """Recalibrate radii across an alpha grid with one `region_model` fitted
    on `cal_truths`.

    Calibration scores are grouped by region under `assignment`, as in
    `calibrate` (by true region unless told otherwise); test scans are
    routed by predicted region, as `coverage_by_region` defaults to.
    """
    alphas = np.asarray(list(alphas), dtype=np.float64)
    if len(alphas) == 0 or np.any(np.diff(alphas) <= 0):
        raise ValueError("alpha grid must be nonempty and strictly increasing")
    if np.any((alphas <= 0) | (alphas >= 1)):
        raise ValueError("alphas must lie in (0, 1)")

    radii = np.empty((len(alphas), region_model.k))
    global_radii = np.empty(len(alphas))
    coverages = np.full((len(alphas), region_model.k), np.nan)
    global_coverages = np.empty(len(alphas))
    region_counts = None
    for i, alpha in enumerate(alphas):
        # given a region model, calibrate fits nothing and reads no seed
        cal = calibrate(cal_preds, cal_truths, float(alpha), region_model.k, 0,
                        assignment=assignment, region_model=region_model)
        report = coverage_by_region(test_preds, test_truths, cal)
        radii[i] = cal.radii
        global_radii[i] = cal.global_radius
        for row in report.rows:
            if row.coverage is not None:
                coverages[i, row.region] = row.coverage
        global_coverages[i] = report.global_row.coverage
        if region_counts is None:
            region_counts = np.array([row.count for row in report.rows])

    # Quantile ranks shrink as alpha grows, so this cannot fail unless the
    # rank arithmetic regresses. Adjacent rows are compared directly, not
    # through np.diff: two infinite radii in a row would give inf - inf = nan.
    assert np.all(radii[1:] <= radii[:-1]) and np.all(global_radii[1:] <= global_radii[:-1])
    return SweepResult(
        alphas=alphas,
        radii=radii,
        global_radii=global_radii,
        coverages=coverages,
        global_coverages=global_coverages,
        region_counts=region_counts,
    )


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


def _metrics_json(m: PointMetrics) -> dict:
    return {
        "mae_l1": m.mae_l1,
        "mae_euclid": m.mae_euclid,
        "rmse": m.rmse,
        "median": m.median,
        "p75": m.p75,
        "p95": m.p95,
        "count": m.count,
    }


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
    metrics: Optional[PointMetrics] = None,
    coverage: Optional[CoverageReport] = None,
    sweep: Optional[SweepResult] = None,
    error_map: Optional[ErrorMapData] = None,
    baseline_metrics: Optional[PointMetrics] = None,
) -> list[Path]:
    """Write report.json, report.txt and per-figure CSVs; returns the paths.

    Output is a pure function of the inputs, so identical inputs produce
    byte-identical files.
    """
    if metrics is None and coverage is None and sweep is None and error_map is None:
        raise EmptyInput("nothing to report")
    out_dir = Path(out_dir)
    written: list[Path] = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)

        doc: dict = {
            "percentile_convention": "linear interpolation between order statistics"
        }
        if metrics is not None:
            doc["point_metrics"] = _metrics_json(metrics)
        if baseline_metrics is not None:
            doc["baseline_metrics"] = _metrics_json(baseline_metrics)
        if coverage is not None:
            doc["coverage"] = _coverage_json(coverage)
        if sweep is not None:
            doc["sweep"] = _sweep_json(sweep)
        json_path = out_dir / "report.json"
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(json_path)

        lines = ["# Percentiles: linear interpolation between order statistics", ""]
        if metrics is not None:
            named = [("model", metrics)]
            if baseline_metrics is not None:
                named.append(("weighted-centroid", baseline_metrics))
            lines += _metrics_table(named) + [""]
        if coverage is not None:
            lines += _coverage_table(coverage) + [""]
        txt_path = out_dir / "report.txt"
        txt_path.write_text("\n".join(lines), encoding="utf-8")
        written.append(txt_path)

        if error_map is not None:
            path = out_dir / "fig_error_map.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("x,y,error_m,region\n")
                for x, y, e, r in zip(
                    error_map.x, error_map.y, error_map.error_m, error_map.region
                ):
                    fh.write(f"{x:.6f},{y:.6f},{e:.6f},{int(r)}\n")
            written.append(path)

        if sweep is not None:
            cov_path = out_dir / "fig_alpha_coverage.csv"
            with open(cov_path, "w", encoding="utf-8") as fh:
                fh.write("alpha,region,coverage\n")
                for i, alpha in enumerate(sweep.alphas):
                    for r in range(sweep.radii.shape[1]):
                        v = sweep.coverages[i, r]
                        cov = "" if math.isnan(v) else f"{v:.6f}"
                        fh.write(f"{alpha:.6g},{r},{cov}\n")
                    fh.write(f"{alpha:.6g},global,{sweep.global_coverages[i]:.6f}\n")
            written.append(cov_path)

            rad_path = out_dir / "fig_alpha_radius.csv"
            with open(rad_path, "w", encoding="utf-8") as fh:
                fh.write("alpha,region,radius\n")
                for i, alpha in enumerate(sweep.alphas):
                    for r in range(sweep.radii.shape[1]):
                        fh.write(f"{alpha:.6g},{r},{_radius_csv(sweep.radii[i, r])}\n")
                    fh.write(f"{alpha:.6g},global,{_radius_csv(sweep.global_radii[i])}\n")
            written.append(rad_path)
    except OSError as exc:
        raise IoError(f"cannot write report to {out_dir}: {exc}") from exc
    return written


def _radius_csv(r: float) -> str:
    return "inf" if math.isinf(r) else f"{r:.6f}"
