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
from typing import Sequence

import numpy as np

from .errors import BadCalibration, EmptyCalibration
from .graphbuild import LocGraph
from .gtmodel import GtModel, denormalize_pred, forward_graph
from .autodiff import Tape, is_json_int, is_json_number
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


def nonconformity_scores(preds: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """Euclidean distance between each prediction and its truth, in meters."""
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


def radius_table(
    preds: np.ndarray,
    truths: np.ndarray,
    alphas: Sequence[float],
    region_model: RegionModel,
    assignment: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-region radii (A, k), k=1 radii (A,) and per-region counts (k,) for
    the A alphas, each alpha taking `radius_from_scores`'s rank in one stable
    sort of each region's scores (and one of all scores, for k=1).

    Scores are grouped by true region (assignment="truth") or by predicted
    region ("predicted").
    """
    if len(preds) == 0:
        raise EmptyCalibration("no calibration samples")
    if assignment not in ("truth", "predicted"):
        raise ValueError(f"unknown assignment mode {assignment!r}")
    scores = nonconformity_scores(preds, truths)
    region_ids = assign_regions(region_model, truths if assignment == "truth" else preds)
    groups = [scores[region_ids == r] for r in range(region_model.k)] + [scores]
    table = np.full((len(alphas), len(groups)), math.inf)  # the last column is k=1
    for j, group in enumerate(groups):
        ordered = np.sort(group, kind="stable")
        for i, alpha in enumerate(alphas):
            p = conformal_rank(len(ordered), alpha)
            if p is not math.inf:
                table[i, j] = ordered[p - 1]
    counts = np.array([len(group) for group in groups[:-1]])
    for i, r in zip(*np.nonzero(np.isinf(table[:, :-1]))):
        log.warning("region %d has only %d calibration samples for alpha=%g; "
                    "radius is infinite", r, counts[r], alphas[i])
    return table[:, :-1], table[:, -1], counts


def calibrate(
    preds: np.ndarray,
    truths: np.ndarray,
    alpha: float,
    k: int,
    seed: int,
    assignment: str = "truth",
) -> SacpCalibration:
    """Fit regions on calibration ground truths and compute per-region radii.

    Calibration scores are grouped by ground-truth region by default; pass
    assignment="predicted" for the symmetric predicted-location grouping
    used in coverage experiments.
    """
    if len(truths) == 0:  # before the fit, which would call it too few points
        raise EmptyCalibration("no calibration samples")
    region_model = kmeans_fit(truths, k, seed)
    radii, global_radii, counts = radius_table(preds, truths, (alpha,), region_model, assignment)
    return SacpCalibration(
        alpha=alpha,
        region_model=region_model,
        radii=radii[0],
        counts=counts,
        global_radius=float(global_radii[0]),
        global_count=len(truths),
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
    asks for a rerun of `sacloc calibrate`), a missing key or a malformed
    value: an `alpha` outside (0, 1), no regions, region ids other than
    0..k-1, centroids that are not k finite points, a radius that is not a
    non-negative number or "inf", a count that is not a non-negative
    integer, region counts that do not sum to the global count, a
    `region_seed` that is not an integer, a `kmeans.iteration_cap` that is
    not a positive integer or a `kmeans.convergence_tol` that is not a
    non-negative number.
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
        if not (is_json_number(doc["alpha"]) and 0.0 < doc["alpha"] < 1.0):
            raise ValueError(f"alpha {doc['alpha']!r} is not a number in (0, 1)")
        regions = sorted(doc["regions"], key=lambda r: r["id"])
        if not regions:
            raise ValueError("no regions")
        if [r["id"] for r in regions] != list(range(len(regions))):
            raise ValueError(f"region ids are not 0..{len(regions) - 1}")
        centroids = [r["centroid"] for r in regions]
        if not all(isinstance(c, list) and len(c) == 2 and all(map(is_json_number, c))
                   for c in centroids):
            raise ValueError("a region centroid is not two finite numbers")
        for entry in (*regions, doc["global"]):
            if not (entry["radius"] == "inf" or is_json_number(entry["radius"])
                    and entry["radius"] >= 0.0):
                raise ValueError(f"radius {entry['radius']!r} is not a non-negative "
                                 "number or \"inf\"")
            if not is_json_int(entry["count"], 0):
                raise ValueError(f"count {entry['count']!r} is not a non-negative integer")
        counts = [r["count"] for r in regions]
        if sum(counts) != doc["global"]["count"]:
            raise ValueError(f"region counts sum to {sum(counts)}, not global.count "
                             f"{doc['global']['count']}")
        seed, cap, tol = (doc["region_seed"], doc["kmeans"]["iteration_cap"],
                          doc["kmeans"]["convergence_tol"])
        if not is_json_int(seed, -math.inf):
            raise ValueError(f"region_seed {seed!r} is not an integer")
        if not is_json_int(cap, 1):
            raise ValueError(f"kmeans.iteration_cap {cap!r} is not a positive integer")
        if not (is_json_number(tol) and tol >= 0.0):
            raise ValueError(f"kmeans.convergence_tol {tol!r} is not a non-negative number")
        region_model = RegionModel(
            centroids=np.array(centroids, dtype=np.float64),
            seed=seed,
            iteration_cap=cap,
            convergence_tol=tol,
        )
        return SacpCalibration(
            alpha=doc["alpha"],
            region_model=region_model,
            radii=np.array([_radius_from_json(r["radius"]) for r in regions]),
            counts=np.array(counts, dtype=int),
            global_radius=_radius_from_json(doc["global"]["radius"]),
            global_count=doc["global"]["count"],
            assignment=doc["assignment"],
        )
    except KeyError as exc:
        raise BadCalibration(path, f"missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise BadCalibration(path, f"malformed value: {exc}") from exc
