"""Euclidean distance kernels.

Everything in the paper is defined over a metric space; the evaluation uses
Euclidean distance throughout. This module provides the scalar and batch
kernels the rest of the library builds on. The *instrumented* variants that
count distance computations (the paper's efficiency metric, Figures 10 and
11) live in :mod:`repro.geometry.counting` and wrap these kernels.

The kernels deliberately avoid fancy dispatch: they are the innermost loops
of bubble construction, so they stay small, allocation-light and easy for
numpy to execute.
"""

from __future__ import annotations

import numpy as np

from ..types import Point, PointMatrix

__all__ = [
    "euclidean",
    "squared_euclidean",
    "row_norms",
    "point_to_points",
    "pairwise",
    "cross_pairwise",
    "nearest_index",
]


def euclidean(a: Point, b: Point) -> float:
    """Euclidean distance between two points.

    This is *the* distance computation the paper counts: one call equals one
    distance calculation in the sense of Figures 10–11.
    """
    diff = a - b
    return float(np.sqrt(np.dot(diff, diff)))


def squared_euclidean(a: Point, b: Point) -> float:
    """Squared Euclidean distance between two points.

    Used where only comparisons are needed (avoids the square root) and for
    the compactness measure, which is defined on squared distances.
    """
    diff = a - b
    return float(np.dot(diff, diff))


def row_norms(diffs: PointMatrix) -> np.ndarray:
    """Euclidean norm of each row of a ``(m, d)`` difference matrix.

    This is the shared reduction kernel behind every distance the
    assigners compare: scalar probes (a one-row matrix) and the batch
    assignment engine (a block of rows) both go through this exact einsum
    spec, so a given row of coordinates always reduces to the *bit-same*
    float regardless of how many rows travel together. That equality is
    what makes the batch assigners' results provably identical to their
    scalar counterparts, ties included.
    """
    return np.sqrt(np.einsum("ij,ij->i", diffs, diffs))


def point_to_points(point: Point, points: PointMatrix) -> np.ndarray:
    """Distances from one point to each row of ``points``; shape ``(m,)``."""
    return row_norms(points - point)


def pairwise(points: PointMatrix) -> np.ndarray:
    """Full symmetric pairwise distance matrix of shape ``(m, m)``.

    Used for the seed-to-seed distance matrix that powers the triangle
    inequality pruning of Section 3. The number of seeds is small (the
    paper's argument for why the matrix is cheap), so the dense ``(m, m)``
    representation is appropriate.

    ``‖x‖² + ‖y‖² − 2·x·y`` is evaluated in that order in one ``(m, m)``
    buffer besides the Gram matrix: doubling the Gram matrix in place is
    exact, so every entry is the float the three-temporary expression
    gives.
    """
    points = np.asarray(points, dtype=np.float64)
    sq_norms = np.einsum("ij,ij->i", points, points)
    gram = points @ points.T
    gram *= 2.0
    dists = np.add.outer(sq_norms, sq_norms)
    dists -= gram
    # Clamp tiny negative values produced by floating point cancellation.
    np.maximum(dists, 0.0, out=dists)
    np.sqrt(dists, out=dists)
    np.fill_diagonal(dists, 0.0)
    return dists


def cross_pairwise(left: PointMatrix, right: PointMatrix) -> np.ndarray:
    """Distance matrix between two point sets; shape ``(len(left), len(right))``."""
    left_sq = np.einsum("ij,ij->i", left, left)
    right_sq = np.einsum("ij,ij->i", right, right)
    sq = left_sq[:, None] + right_sq[None, :] - 2.0 * (left @ right.T)
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


def nearest_index(point: Point, points: PointMatrix) -> tuple[int, float]:
    """Index of the row of ``points`` closest to ``point`` and its distance.

    The vectorised (non-counting) nearest-neighbour primitive; the
    triangle-inequality assigner is the counting counterpart.
    """
    dists = point_to_points(point, points)
    idx = int(np.argmin(dists))
    return idx, float(dists[idx])
