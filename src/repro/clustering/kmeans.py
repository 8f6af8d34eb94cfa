"""Weighted k-means — the partitioning algorithm applied to summaries.

Section 1 argues that the data-summarization strategy "allows the
application of a broad range of existing standard clustering algorithms
(hierarchical and partitioning) to the data summaries", and the related
work (Aggarwal et al. [1]) clusters micro-clusters with "a modified
k-means algorithm that regards the micro clusters as points". This module
is that modification: Lloyd's algorithm over weighted points, where a data
bubble contributes its representative with weight ``n``.

k-means++-style seeding (D² sampling over the weighted points) keeps the
initialisation robust; ties and empty clusters are handled by re-seeding
the emptied centroid at the point farthest from its assigned centroid, the
standard repair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.bubble_set import BubbleSet
from ..types import PointMatrix

__all__ = ["WeightedKMeans", "KMeansResult"]


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one weighted k-means fit.

    Attributes:
        centroids: ``(k, d)`` final cluster centres.
        labels: per-input-point cluster index, shape ``(m,)``.
        inertia: weighted sum of squared distances to assigned centroids.
        iterations: Lloyd iterations until convergence (or cap).
    """

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations: int


class WeightedKMeans:
    """Lloyd's algorithm over weighted points.

    Args:
        k: number of clusters.
        max_iter: Lloyd iteration cap.
        tol: relative centroid-movement convergence threshold.
        seed: RNG seed for the k-means++ initialisation.

    Example:
        >>> import numpy as np
        >>> points = np.array([[0.0], [0.1], [10.0], [10.1]])
        >>> result = WeightedKMeans(k=2, seed=0).fit(points)
        >>> sorted(result.centroids.ravel().round(2).tolist())
        [0.05, 10.05]
    """

    def __init__(
        self,
        k: int,
        max_iter: int = 100,
        tol: float = 1e-6,
        seed: int | None = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        self._k = k
        self._max_iter = max_iter
        self._tol = tol
        self._rng = np.random.default_rng(seed)

    @property
    def k(self) -> int:
        """The number of clusters."""
        return self._k

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        points: PointMatrix,
        weights: np.ndarray | None = None,
    ) -> KMeansResult:
        """Cluster ``points`` with optional non-negative weights."""
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError(
                f"expected a non-empty (m, d) matrix, got {points.shape}"
            )
        num = points.shape[0]
        if weights is None:
            weights = np.ones(num)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (num,) or (weights < 0).any():
                raise ValueError("weights must be non-negative, one per point")
            if weights.sum() <= 0:
                raise ValueError("weights must not all be zero")
        if num < self._k:
            raise ValueError(f"cannot form {self._k} clusters from {num} points")

        centroids = self._plus_plus_init(points, weights)
        labels = np.zeros(num, dtype=np.int64)
        iterations = 0
        for iterations in range(1, self._max_iter + 1):
            sq = self._squared_distances(points, centroids)
            labels = np.argmin(sq, axis=1)
            new_centroids = centroids.copy()
            for idx in range(self._k):
                mask = labels == idx
                mass = weights[mask].sum()
                if mass > 0:
                    new_centroids[idx] = (
                        weights[mask, None] * points[mask]
                    ).sum(axis=0) / mass
                else:
                    # Empty cluster: re-seed at the farthest point from its
                    # assigned centroid.
                    assigned_sq = sq[np.arange(num), labels]
                    new_centroids[idx] = points[int(np.argmax(assigned_sq))]
            movement = float(
                np.linalg.norm(new_centroids - centroids, axis=1).max()
            )
            centroids = new_centroids
            scale = float(np.abs(points).max()) or 1.0
            if movement <= self._tol * scale:
                break

        sq = self._squared_distances(points, centroids)
        labels = np.argmin(sq, axis=1)
        inertia = float(
            (weights * sq[np.arange(num), labels]).sum()
        )
        return KMeansResult(
            centroids=centroids,
            labels=labels.astype(np.int64),
            inertia=inertia,
            iterations=iterations,
        )

    def fit_bubbles(self, bubbles: BubbleSet) -> KMeansResult:
        """Cluster a bubble summary: representatives weighted by ``n``.

        The returned labels align with ``bubbles.non_empty_ids()`` order;
        use :meth:`bubble_labels` for an id-keyed mapping.
        """
        non_empty = bubbles.non_empty_ids()
        if not non_empty:
            raise ValueError("cannot cluster a summary with no points")
        weights = bubbles.counts()[non_empty].astype(np.float64)
        return self.fit(bubbles.reps(non_empty), weights)

    def bubble_labels(self, bubbles: BubbleSet) -> dict[int, int]:
        """``{bubble id: cluster index}`` over the non-empty bubbles."""
        non_empty = bubbles.non_empty_ids()
        result = self.fit_bubbles(bubbles)
        return {
            int(bubble_id): int(label)
            for bubble_id, label in zip(non_empty, result.labels)
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _plus_plus_init(
        self, points: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """k-means++ D² seeding over weighted points."""
        num = points.shape[0]
        probs = weights / weights.sum()
        first = int(self._rng.choice(num, p=probs))
        centroids = [points[first]]
        for _ in range(1, self._k):
            sq = self._squared_distances(points, np.stack(centroids))
            closest = sq.min(axis=1)
            mass = weights * closest
            total = mass.sum()
            if total <= 0:
                # All remaining points coincide with chosen centroids.
                pick = int(self._rng.choice(num, p=probs))
            else:
                pick = int(self._rng.choice(num, p=mass / total))
            centroids.append(points[pick])
        return np.stack(centroids)

    @staticmethod
    def _squared_distances(
        points: np.ndarray, centroids: np.ndarray
    ) -> np.ndarray:
        sq = (
            np.einsum("ij,ij->i", points, points)[:, None]
            + np.einsum("ij,ij->i", centroids, centroids)[None, :]
            - 2.0 * (points @ centroids.T)
        )
        np.maximum(sq, 0.0, out=sq)
        return sq
