"""Sufficient statistics ``(n, LS, SS)`` for data summarization.

Both BIRCH clustering features and data bubbles are built on the same
sufficient statistics of a point set ``X = {x_1 .. x_n}``:

* ``n`` — the number of points,
* ``LS`` — the linear sum ``Σ x_i`` (a ``d``-dimensional vector),
* ``SS`` — the square sum ``Σ x_i · x_i`` (a scalar).

They are *additive*: inserting a point ``p`` updates them to
``(n + 1, LS + p, SS + p·p)`` and deleting an assigned point to
``(n - 1, LS - p, SS - p·p)`` — exactly the incremental update rule of
Section 4 of the paper. Two disjoint sets' statistics merge by element-wise
addition.

:class:`SufficientStatistics` holds them for *one* point set — a BIRCH
clustering feature grows one, and ``DataBubble.stats`` is a snapshot of a
bubble's row; the bubbles themselves live as the arrays of a
:class:`~repro.core.bubble_set.BubbleSet`.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DimensionMismatchError, EmptyBubbleError
from ..types import Point, PointMatrix

__all__ = ["SufficientStatistics"]


class SufficientStatistics:
    """Additive sufficient statistics ``(n, LS, SS)`` of a point set.

    Args:
        dim: dimensionality of the points that will be absorbed.

    Example:
        >>> stats = SufficientStatistics(dim=2)
        >>> stats.insert(np.array([1.0, 2.0]))
        >>> stats.insert(np.array([3.0, 4.0]))
        >>> stats.n
        2
        >>> stats.mean().tolist()
        [2.0, 3.0]
    """

    __slots__ = ("_n", "_linear_sum", "_square_sum", "_dim")

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self._dim = int(dim)
        self._n = 0
        self._linear_sum = np.zeros(dim, dtype=np.float64)
        self._square_sum = 0.0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: PointMatrix) -> "SufficientStatistics":
        """Build statistics for a whole point matrix at once (vectorised)."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("from_points expects a (m, d) matrix")
        stats = cls(dim=points.shape[1])
        stats._n = points.shape[0]
        stats._linear_sum = points.sum(axis=0)
        stats._square_sum = float(np.einsum("ij,ij->", points, points))
        return stats

    @classmethod
    def from_raw(
        cls, n: int, linear_sum: np.ndarray, square_sum: float
    ) -> "SufficientStatistics":
        """Reconstruct statistics from their raw ``(n, LS, SS)`` values.

        The persistence layer stores the accumulated sums verbatim (rather
        than recomputing them from member coordinates) so that a restored
        summary is *bit-identical* to the live one — incremental updates
        accumulate floating-point effects in insertion order, which a
        vectorised recomputation would not reproduce.
        """
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        linear_sum = np.asarray(linear_sum, dtype=np.float64)
        if linear_sum.ndim != 1:
            raise ValueError("linear_sum must be a (d,) vector")
        stats = cls(dim=linear_sum.shape[0])
        stats._n = int(n)
        stats._linear_sum = linear_sum.copy()
        stats._square_sum = float(square_sum)
        return stats

    # ------------------------------------------------------------------
    # Incremental updates (Section 4 of the paper)
    # ------------------------------------------------------------------
    def insert(self, point: Point) -> None:
        """Absorb one point: ``(n, LS, SS) -> (n + 1, LS + p, SS + p·p)``."""
        self._check_dim(point)
        self._n += 1
        self._linear_sum += point
        self._square_sum += float(np.dot(point, point))

    def merge(self, other: "SufficientStatistics") -> None:
        """Absorb another statistic (disjoint point sets): element-wise addition."""
        if other._dim != self._dim:
            raise DimensionMismatchError(
                f"cannot merge dim {other._dim} into dim {self._dim}"
            )
        self._n += other._n
        self._linear_sum += other._linear_sum
        self._square_sum += other._square_sum

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of points currently summarized."""
        return self._n

    @property
    def dim(self) -> int:
        """Dimensionality of the summarized points."""
        return self._dim

    @property
    def linear_sum(self) -> np.ndarray:
        """The linear sum ``LS`` (read-only view)."""
        view = self._linear_sum.view()
        view.flags.writeable = False
        return view

    @property
    def square_sum(self) -> float:
        """The square sum ``SS``."""
        return self._square_sum

    def mean(self) -> np.ndarray:
        """``LS / n`` — the representative of Definition 1.

        Raises:
            EmptyBubbleError: when no points are summarized.
        """
        if self._n == 0:
            raise EmptyBubbleError("mean of empty statistics is undefined")
        return self._linear_sum / self._n

    def is_empty(self) -> bool:
        """Whether no points are currently summarized."""
        return self._n == 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_dim(self, point: Point) -> None:
        if point.shape != (self._dim,):
            raise DimensionMismatchError(
                f"expected a ({self._dim},) point, got shape {point.shape}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SufficientStatistics):
            return NotImplemented
        return (
            self._n == other._n
            and self._dim == other._dim
            and np.array_equal(self._linear_sum, other._linear_sum)
            and self._square_sum == other._square_sum
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SufficientStatistics(n={self._n}, dim={self._dim}, "
            f"SS={self._square_sum:.4g})"
        )
