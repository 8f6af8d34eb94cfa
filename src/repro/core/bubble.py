"""The data bubble: a seed plus sufficient statistics.

Definition 1 of the paper: a data bubble ``B`` for a point set ``X`` is the
tuple ``(rep, n, extent, nnDist)``. All of those are derived on demand from
the additive sufficient statistics ``(n, LS, SS)``
(:mod:`repro.sufficient`), which is what makes the bubble *incremental*:
insertions and deletions are O(d) statistic updates.

On top of Definition 1, an incremental bubble needs one more piece of
state that the static formulation of Breunig et al. 2001 could leave
implicit: a **seed** — the location used when assigning points to
bubbles. During initial construction it is the sampled database point;
when a bubble is migrated by the split/merge machinery it is re-seeded
from a point of the over-filled bubble (Section 4.2).

Which points a bubble summarizes is *not* kept here. Deletion support
needs each point's bubble, and the split draws new seeds "from the current
points in B" (Figure 6); both read the owner column of the
:class:`~repro.database.PointStore`, the single membership record
(``store.owned_by(bubble_id)`` lists a bubble's points). The callers that
move points between bubbles update that column alongside the statistics.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import EmptyBubbleError
from ..sufficient import SufficientStatistics, extent as _extent, nn_dist
from ..types import BubbleId, Point

__all__ = ["DataBubble"]


class DataBubble:
    """One incremental data bubble.

    Args:
        bubble_id: stable identifier within the owning bubble set.
        seed: the location that points are compared against during
            assignment; copied defensively.

    The bubble starts empty; points are added with :meth:`absorb` and
    removed with :meth:`release`. Only their coordinates are passed: the
    statistics are all a bubble keeps of them.
    """

    __slots__ = ("_id", "_seed", "_stats", "_on_mutate")

    def __init__(self, bubble_id: BubbleId, seed: Point) -> None:
        seed = np.asarray(seed, dtype=np.float64)
        if seed.ndim != 1:
            raise ValueError(f"seed must be a (d,) point, got ndim={seed.ndim}")
        self._id = int(bubble_id)
        self._seed = seed.copy()
        self._stats = SufficientStatistics(dim=seed.shape[0])
        self._on_mutate = None

    def _notify(self) -> None:
        """Tell the owning bubble set this bubble's state changed.

        The :class:`~repro.core.bubble_set.BubbleSet` installs the hook to
        invalidate its cached representative matrix (and bump its version
        counter, which the assigner cache keys on). A standalone bubble
        has no hook and pays nothing.
        """
        if self._on_mutate is not None:
            self._on_mutate(self._id)

    # ------------------------------------------------------------------
    # Identity and location
    # ------------------------------------------------------------------
    @property
    def bubble_id(self) -> BubbleId:
        """Stable identifier within the bubble set."""
        return self._id

    @property
    def dim(self) -> int:
        """Dimensionality of the summarized points."""
        return self._stats.dim

    @property
    def seed(self) -> np.ndarray:
        """The assignment location (read-only view)."""
        view = self._seed.view()
        view.flags.writeable = False
        return view

    def reseed(self, seed: Point) -> None:
        """Move the bubble's assignment location (migration, Section 4.2).

        Only legal while the bubble is empty — repositioning a bubble that
        still summarizes points would silently misplace them.
        """
        if not self._stats.is_empty():
            raise EmptyBubbleError(
                f"bubble {self._id} must be emptied before reseeding"
            )
        seed = np.asarray(seed, dtype=np.float64)
        if seed.shape != self._seed.shape:
            raise ValueError(
                f"seed shape {seed.shape} does not match dim {self.dim}"
            )
        self._seed = seed.copy()
        self._notify()

    # ------------------------------------------------------------------
    # Definition 1 quantities
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of points currently summarized."""
        return self._stats.n

    @property
    def rep(self) -> np.ndarray:
        """The representative: mean of the summarized points.

        For an empty bubble the seed doubles as the representative, so the
        bubble remains placeable (e.g. by OPTICS) until it is recycled.
        """
        if self._stats.is_empty():
            view = self._seed.view()
            view.flags.writeable = False
            return view
        return self._stats.mean()

    @property
    def extent(self) -> float:
        """Radius around ``rep`` enclosing the majority of the points.

        Estimated as the average intra-bubble pairwise distance; ``0.0`` for
        empty or singleton bubbles.
        """
        if self._stats.is_empty():
            return 0.0
        return _extent(self._stats)

    def nn_dist(self, k: int) -> float:
        """Estimated average ``k``-nearest-neighbour distance inside the bubble.

        ``0.0`` for empty bubbles (consistent with a zero extent).
        """
        if self._stats.is_empty():
            return 0.0
        return nn_dist(self._stats, k)

    @property
    def stats(self) -> SufficientStatistics:
        """The underlying sufficient statistics (live object, handle with care)."""
        return self._stats

    # ------------------------------------------------------------------
    # Incremental updates
    # ------------------------------------------------------------------
    def absorb(self, point: Point) -> None:
        """Add one point: ``(n, LS, SS) -> (n+1, LS+p, SS+p·p)``."""
        self._stats.insert(point)
        self._notify()

    def release(self, point: Point) -> None:
        """Remove one point: ``(n, LS, SS) -> (n-1, LS-p, SS-p·p)``."""
        self._stats.remove(point)
        self._notify()

    def absorb_many(self, points: np.ndarray) -> None:
        """Vectorised :meth:`absorb` of an ``(m, d)`` coordinate matrix."""
        self._stats.insert_many(points)
        self._notify()

    def release_many(self, points: np.ndarray) -> None:
        """Vectorised :meth:`release` of an ``(m, d)`` coordinate matrix."""
        self._stats.remove_many(points)
        self._notify()

    def restore_state(self, stats: SufficientStatistics) -> None:
        """Adopt persisted statistics verbatim.

        Used by the persistence layer to rebuild a bubble bit-identically:
        the statistics are installed as-is instead of being re-accumulated
        from coordinates. Only legal on a freshly created (empty) bubble.
        """
        if not self._stats.is_empty():
            raise EmptyBubbleError(
                f"bubble {self._id} already summarizes points; restore_state "
                "is only legal on an empty bubble"
            )
        if stats.dim != self.dim:
            raise ValueError(
                f"stats dim {stats.dim} does not match bubble dim {self.dim}"
            )
        self._stats = stats.copy()
        self._notify()

    def clear(self) -> None:
        """Empty the bubble (the merge step of Figure 6 releases all of
        its points at once)."""
        self._stats.clear()
        self._notify()

    def is_empty(self) -> bool:
        """Whether the bubble currently summarizes no points."""
        return self._stats.is_empty()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataBubble(id={self._id}, n={self.n}, dim={self.dim})"
