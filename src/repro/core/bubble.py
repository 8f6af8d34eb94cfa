"""The data bubble: a handle onto one row of a bubble set.

Definition 1 of the paper: a data bubble ``B`` for a point set ``X`` is the
tuple ``(rep, n, extent, nnDist)``, all derived from the additive
sufficient statistics ``(n, LS, SS)`` (:mod:`repro.sufficient`) — which is
what makes the bubble *incremental*: insertions and deletions are O(d)
statistic updates. An incremental bubble also needs a **seed**, the
location points are compared against during assignment: the sampled
database point at construction, a point of the over-filled bubble after a
migration (Section 4.2).

None of that state lives here: the owning
:class:`~repro.core.bubble_set.BubbleSet` holds every bubble's
``(n, LS, SS)`` and seed as arrays and runs every update, and a
:class:`DataBubble` is the stateless ``(set, id)`` handle onto one row.
Which points a bubble summarizes is the owner column of the
:class:`~repro.database.PointStore` (``store.owned_by(bubble_id)``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..sufficient import SufficientStatistics
from ..types import BubbleId, Point

if TYPE_CHECKING:  # pragma: no cover
    from .bubble_set import BubbleSet

__all__ = ["DataBubble"]


class DataBubble:
    """One data bubble of a :class:`~repro.core.bubble_set.BubbleSet`.

    Args:
        bubble_set: the set holding the bubble's statistics and seed.
        bubble_id: the bubble's row in that set.

    Handles are created by the set (:meth:`BubbleSet.add_bubble`,
    indexing, iteration). Every update is a one-bubble call of the set's
    grouped update, so there is one update rule, not two.
    """

    __slots__ = ("_set", "_id")

    def __init__(self, bubble_set: "BubbleSet", bubble_id: BubbleId) -> None:
        self._set = bubble_set
        self._id = int(bubble_id)

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
        return self._set.dim

    @property
    def seed(self) -> np.ndarray:
        """The assignment location (a read-only copy)."""
        seed = self._set._seeds[self._id].copy()
        seed.flags.writeable = False
        return seed

    def reseed(self, seed: Point) -> None:
        """Move the bubble's assignment location (migration, Section 4.2).

        Only legal while the bubble is empty — repositioning a bubble that
        still summarizes points would silently misplace them.
        """
        self._set.reseed(self._id, seed)

    # ------------------------------------------------------------------
    # Definition 1 quantities
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of points currently summarized."""
        return int(self._set._n[self._id])

    @property
    def rep(self) -> np.ndarray:
        """The representative: mean of the summarized points.

        For an empty bubble the seed doubles as the representative, so the
        bubble remains placeable (e.g. by OPTICS) until it is recycled.
        """
        return self._set.reps([self._id])[0]

    @property
    def extent(self) -> float:
        """Radius around ``rep`` enclosing the majority of the points.

        Estimated as the average intra-bubble pairwise distance; ``0.0`` for
        empty or singleton bubbles.
        """
        return float(self._set.extents([self._id])[0])

    def nn_dist(self, k: int) -> float:
        """Estimated average ``k``-nearest-neighbour distance inside the bubble.

        ``0.0`` for empty bubbles (consistent with a zero extent).
        """
        return float(self._set.features([self._id], k)[3][0])

    @property
    def stats(self) -> SufficientStatistics:
        """A snapshot of the bubble's ``(n, LS, SS)``; later updates of the
        bubble do not reach it, nor do changes to it reach the bubble."""
        bubbles = self._set
        return SufficientStatistics.from_raw(
            self.n, bubbles._ls[self._id], float(bubbles._ss[self._id])
        )

    # ------------------------------------------------------------------
    # Incremental updates (one-bubble calls of the set's grouped update)
    # ------------------------------------------------------------------
    def absorb(self, point: Point) -> None:
        """Add one point: ``(n, LS, SS) -> (n+1, LS+p, SS+p·p)``."""
        self.absorb_many(np.reshape(point, (1, -1)))

    def release(self, point: Point) -> None:
        """Remove one point: ``(n, LS, SS) -> (n-1, LS-p, SS-p·p)``."""
        self.release_many(np.reshape(point, (1, -1)))

    def absorb_many(self, points: np.ndarray) -> None:
        """Add every row of an ``(m, d)`` coordinate matrix."""
        self._set.absorb(points, np.full(len(points), self._id))

    def release_many(self, points: np.ndarray) -> None:
        """Remove every row of an ``(m, d)`` coordinate matrix."""
        self._set.release(points, np.full(len(points), self._id))

    def clear(self) -> None:
        """Empty the bubble (the merge step of Figure 6 releases all of
        its points at once)."""
        self._set.clear([self._id])

    def is_empty(self) -> bool:
        """Whether the bubble currently summarizes no points."""
        return self.n == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataBubble(id={self._id}, n={self.n}, dim={self.dim})"
