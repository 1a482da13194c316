"""Spatially-adaptive split-conformal calibration.

Calibration computes a nonconformity score (Euclidean prediction error) per
held-out sample, partitions the calibration set into k regions by K-Means on
the true coordinates, and keeps per-region score quantiles as confidence
radii. A region whose rank exceeds its sample count gets an infinite radius:
truncating to the largest observed score would silently void the finite-
sample guarantee, which is the whole point of the construction.

At inference a test point is assigned to a region and wrapped in a circle of
that region's radius, which covers the true location with probability at
least 1 - alpha under exchangeability (marginally; per-region validity holds
only when calibration and test use the same assignment rule).
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import BadCalibration, EmptyCalibration
from .graphbuild import LocGraph
from .gtmodel import GtModel, denormalize_pred, forward_graph
from .autodiff import Tape
from .regions import RegionModel, assign_region, assign_regions, kmeans_fit

log = logging.getLogger(__name__)

CALIBRATION_MAGIC = "sacloc-calibration"
CALIBRATION_VERSION = 2


@dataclass(frozen=True)
class SacpCalibration:
    """Per-region conformal radii plus the region model that produced them
    and the rule (`assignment`) that grouped the calibration scores."""

    alpha: float
    region_model: RegionModel
    radii: np.ndarray  # (k,) meters, np.inf where under-populated
    counts: np.ndarray  # (k,) calibration samples per region
    global_radius: float
    global_count: int
    assignment: str = "truth"  # "truth" or "predicted", as `calibrate` takes it

    @property
    def k(self) -> int:
        return self.region_model.k


@dataclass(frozen=True)
class PredictionSet:
    """A circle claimed to contain the true location with prob >= 1 - alpha."""

    center: tuple[float, float]  # meters
    region: int
    radius: float  # meters, may be math.inf


def nonconformity_score(pred: np.ndarray, truth: np.ndarray) -> float:
    """Euclidean distance between prediction and truth, in meters."""
    return float(np.linalg.norm(np.asarray(pred, dtype=np.float64) - np.asarray(truth)))


def nonconformity_scores(preds: np.ndarray, truths: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.asarray(preds, dtype=np.float64) - truths, axis=1)


def conformal_rank(n_k: int, alpha: float) -> int | float:
    """Quantile rank p = ceil((1 - alpha) * (n_k + 1)), or inf when p > n_k."""
    if n_k < 0:
        raise ValueError("n_k must be >= 0")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    p = math.ceil((1.0 - alpha) * (n_k + 1))
    return p if p <= n_k else math.inf


def radius_from_scores(scores: np.ndarray, alpha: float) -> float:
    """The p-th smallest score (1-indexed, duplicates kept), or +inf."""
    p = conformal_rank(len(scores), alpha)
    if p is math.inf:
        return math.inf
    return float(np.sort(np.asarray(scores, dtype=np.float64), kind="stable")[p - 1])


def calibrate(
    preds: np.ndarray,
    truths: np.ndarray,
    alpha: float,
    k: int,
    seed: int,
    assignment: str = "truth",
    region_model: Optional[RegionModel] = None,
) -> SacpCalibration:
    """Fit regions on calibration ground truths and compute per-region radii.

    Calibration scores are grouped by ground-truth region by default; pass
    assignment="predicted" for the symmetric predicted-location grouping
    used in coverage experiments. A pre-fitted region_model may be supplied
    (alpha sweeps reuse one fit across alphas).
    """
    preds = np.asarray(preds, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if len(preds) == 0:
        raise EmptyCalibration("no calibration samples")
    if assignment not in ("truth", "predicted"):
        raise ValueError(f"unknown assignment mode {assignment!r}")
    if region_model is None:
        region_model = kmeans_fit(truths, k, seed)
    scores = nonconformity_scores(preds, truths)
    region_ids = assign_regions(region_model, truths if assignment == "truth" else preds)

    radii = np.empty(region_model.k)
    counts = np.empty(region_model.k, dtype=int)
    for r in range(region_model.k):
        region_scores = scores[region_ids == r]
        counts[r] = len(region_scores)
        radii[r] = radius_from_scores(region_scores, alpha)
        if math.isinf(radii[r]):
            log.warning(
                "region %d has only %d calibration samples for alpha=%g; "
                "radius is infinite", r, counts[r], alpha)
    return SacpCalibration(
        alpha=alpha,
        region_model=region_model,
        radii=radii,
        counts=counts,
        global_radius=radius_from_scores(scores, alpha),
        global_count=len(scores),
        assignment=assignment,
    )


def predict_set(model: GtModel, calibration: SacpCalibration, graph: LocGraph) -> PredictionSet:
    """Point prediction + region lookup + that region's radius, for a one-scan graph."""
    scans = graph.user_features.shape[0]
    if scans != 1:
        raise ValueError(f"predict_set takes a one-scan graph, got {scans} scans")
    tape = Tape(record=False)
    pred_norm = forward_graph(tape, model, graph)
    center = denormalize_pred(tape, pred_norm, model).data[0]
    region = assign_region(calibration.region_model, center)
    return PredictionSet(
        center=(float(center[0]), float(center[1])),
        region=region,
        radius=float(calibration.radii[region]),
    )


# -- artifact ---------------------------------------------------------------


def _radius_json(r: float) -> float | str:
    return "inf" if math.isinf(r) else r


def _radius_from_json(r: float | str) -> float:
    return math.inf if r == "inf" else float(r)


def calibration_document(cal: SacpCalibration) -> dict:
    """The JSON document `save_calibration` writes for `cal`."""
    return {
        "magic": CALIBRATION_MAGIC,
        "version": CALIBRATION_VERSION,
        "alpha": cal.alpha,
        "assignment": cal.assignment,
        "regions": [
            {
                "id": r,
                "centroid": cal.region_model.centroids[r].tolist(),
                "count": int(cal.counts[r]),
                "radius": _radius_json(float(cal.radii[r])),
            }
            for r in range(cal.k)
        ],
        "global": {"count": cal.global_count, "radius": _radius_json(cal.global_radius)},
        "region_seed": cal.region_model.seed,
        "kmeans": {
            "iteration_cap": cal.region_model.iteration_cap,
            "convergence_tol": cal.region_model.convergence_tol,
        },
    }


def save_calibration(path: str | Path, cal: SacpCalibration) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(calibration_document(cal), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_calibration(path: str | Path) -> SacpCalibration:
    """Inverse of save_calibration.

    Raises BadCalibration for invalid JSON, a foreign file, another format
    version (a version-1 file, which does not record its assignment rule,
    asks for a rerun of `sacloc calibrate`) or a missing key.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise BadCalibration(path, f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("magic") != CALIBRATION_MAGIC:
        raise BadCalibration(path, "not a calibration file")
    if doc.get("version") == 1:
        raise BadCalibration(
            path, "calibration version 1 does not record its assignment rule and is "
                  "no longer read; rerun `sacloc calibrate`")
    if doc.get("version") != CALIBRATION_VERSION:
        raise BadCalibration(path, f"unsupported calibration version {doc.get('version')}")
    try:
        if doc["assignment"] not in ("truth", "predicted"):
            raise BadCalibration(path, f"unknown assignment rule {doc['assignment']!r}")
        regions = sorted(doc["regions"], key=lambda r: r["id"])
        region_model = RegionModel(
            centroids=np.array([r["centroid"] for r in regions]),
            seed=doc["region_seed"],
            iteration_cap=doc["kmeans"]["iteration_cap"],
            convergence_tol=doc["kmeans"]["convergence_tol"],
        )
        return SacpCalibration(
            alpha=doc["alpha"],
            region_model=region_model,
            radii=np.array([_radius_from_json(r["radius"]) for r in regions]),
            counts=np.array([r["count"] for r in regions], dtype=int),
            global_radius=_radius_from_json(doc["global"]["radius"]),
            global_count=doc["global"]["count"],
            assignment=doc["assignment"],
        )
    except KeyError as exc:
        raise BadCalibration(path, f"missing key {exc}") from exc
