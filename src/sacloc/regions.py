"""K-Means partitioning of 2D space into geographical regions."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TooFewPoints
from .rng import stream


@dataclass(frozen=True)
class RegionModel:
    """Fitted partition: centroids in meters plus the fit configuration."""

    centroids: np.ndarray  # (k, 2)
    seed: int
    iteration_cap: int
    convergence_tol: float
    objective_history: tuple[float, ...] = field(default=(), compare=False)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


def _plusplus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: each next centroid drawn with prob proportional to
    its squared distance from the nearest already-chosen centroid."""
    n = points.shape[0]
    centroids = np.empty((k, 2))
    centroids[0] = points[rng.integers(n)]
    d2 = np.square(points - centroids[0]).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            raise TooFewPoints(f"fewer than {k} distinct points")
        centroids[i] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.square(points - centroids[i]).sum(axis=1))
    return centroids


def _labels(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = np.square(points[:, None, :] - centroids[None, :, :]).sum(axis=2)
    return np.argmin(d2, axis=1)  # argmin takes the lowest index on ties


def kmeans_fit(
    points: np.ndarray,
    k: int,
    seed: int,
    iteration_cap: int = 100,
    convergence_tol: float = 1e-6,
) -> RegionModel:
    """Lloyd iterations from a k-means++ start, deterministic under seed.

    Runs until the largest centroid shift drops below convergence_tol (in
    meters) or the cap is reached. A cluster that loses all its points is
    reseeded to the point currently farthest from its assigned centroid.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must be (n, 2), got {points.shape}")
    if points.shape[0] < k:
        raise TooFewPoints(f"{points.shape[0]} points for k={k}")
    if k < 1:
        raise ValueError("k must be >= 1")

    rng = stream(seed, "kmeans")
    centroids = _plusplus_init(points, k, rng)
    objectives: list[float] = []
    for _ in range(iteration_cap):
        labels = _labels(points, centroids)
        objectives.append(
            float(np.square(points - centroids[labels]).sum()))
        new_centroids = np.empty_like(centroids)
        for j in range(k):
            members = points[labels == j]
            if len(members) == 0:
                dist = np.linalg.norm(points - centroids[labels], axis=1)
                new_centroids[j] = points[int(np.argmax(dist))]
            else:
                new_centroids[j] = members.mean(axis=0)
        shift = np.linalg.norm(new_centroids - centroids, axis=1).max()
        centroids = new_centroids
        if shift < convergence_tol:
            break
    final_labels = _labels(points, centroids)
    objectives.append(float(np.square(points - centroids[final_labels]).sum()))
    return RegionModel(
        centroids=centroids,
        seed=seed,
        iteration_cap=iteration_cap,
        convergence_tol=convergence_tol,
        objective_history=tuple(objectives),
    )


def assign_region(model: RegionModel, point: np.ndarray) -> int:
    """Nearest-centroid region id; ties go to the lowest id."""
    return int(assign_regions(model, np.asarray(point)[None, :])[0])


def assign_regions(model: RegionModel, points: np.ndarray) -> np.ndarray:
    """Vectorized assign_region over an (n, 2) array."""
    return _labels(np.asarray(points, dtype=np.float64), model.centroids)
