"""A set of data bubbles summarizing one database.

:class:`BubbleSet` is the unit the rest of the system works with: the
builder produces one, the maintainers mutate one in place, and the
bubble-aware OPTICS consumes one. It owns the id space of its bubbles
(dense indices ``0 .. B-1``) and offers the vectorised views (representative
matrix, β vector) that the quality machinery and the clustering need.

A set is bound to the :class:`~repro.database.PointStore` it summarizes:
the store's owner column records which bubble holds each point, and
:meth:`BubbleSet.member_csr` reads every bubble's points from it at once.

The number of bubbles is fixed over the lifetime of the set — the paper
maintains "a given number of data bubbles" and recycles under-filled ones
instead of allocating new ones (Section 4.2); growing/shrinking the set is
listed as future work. :meth:`add_bubble` exists for that extension but is
not used by the paper's scheme.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..database import PointStore
from ..exceptions import DimensionMismatchError
from ..types import BubbleId
from .bubble import DataBubble

__all__ = ["BubbleSet", "check_members"]


class BubbleSet:
    """Container of :class:`DataBubble` objects with dense stable ids.

    Args:
        store: the database the bubbles summarize; its owner column is
            the membership record of every bubble in the set.

    The set tracks a monotonic :attr:`version` counter, bumped by every
    mutation of any member bubble (absorb/release/reseed/clear/restore)
    and by :meth:`add_bubble`. Batch consumers — most importantly the
    :class:`~repro.core.assignment.AssignerCache` — key on it to reuse
    derived state (representative matrices and the cached assigner's
    seed-to-seed distance matrix) for exactly as long as it is actually
    valid: any mutation bumps the version, which invalidates the cached
    assigner and its seed matrix, rebuilt lazily on next use.
    """

    def __init__(self, store: PointStore) -> None:
        self._store = store
        self._dim = store.dim
        self._bubbles: list[DataBubble] = []
        self._version = 0
        self._reps_cache: np.ndarray | None = None
        self._dirty_reps: set[int] = set()
        self._touched_log: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_bubble(self, seed: np.ndarray) -> DataBubble:
        """Create a new empty bubble at ``seed`` and return it."""
        seed = np.asarray(seed, dtype=np.float64)
        if seed.shape != (self._dim,):
            raise DimensionMismatchError(
                f"seed shape {seed.shape} does not match dim {self._dim}"
            )
        bubble = DataBubble(bubble_id=len(self._bubbles), seed=seed)
        bubble._on_mutate = self._note_mutation
        self._bubbles.append(bubble)
        self._note_mutation(bubble.bubble_id)
        return bubble

    def _note_mutation(self, bubble_id: BubbleId) -> None:
        self._version += 1
        self._dirty_reps.add(int(bubble_id))
        self._touched_log[int(bubble_id)] = self._version

    @property
    def version(self) -> int:
        """Monotonic mutation counter covering every member bubble."""
        return self._version

    def touched_since(self, version: int) -> set[int]:
        """Ids of bubbles mutated after ``version`` was current.

        The set keeps one last-mutated version per bubble (bounded by the
        bubble count), so incremental consumers — most importantly the
        clustering :class:`~repro.clustering.incremental.ClusterCache` —
        can turn "the version moved from v to v'" into the exact set of
        rows/columns to repair instead of a full invalidation. Asking
        about a version from before this set existed degrades safely:
        every bubble ever mutated is reported.
        """
        return {
            bubble_id
            for bubble_id, mutated_at in self._touched_log.items()
            if mutated_at > version
        }

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Dimensionality of the summarized points."""
        return self._dim

    @property
    def store(self) -> PointStore:
        """The database whose owner column records the membership."""
        return self._store

    def __len__(self) -> int:
        return len(self._bubbles)

    def __iter__(self) -> Iterator[DataBubble]:
        return iter(self._bubbles)

    def __getitem__(self, bubble_id: BubbleId) -> DataBubble:
        return self._bubbles[bubble_id]

    def get(self, bubble_id: BubbleId) -> DataBubble:
        """The bubble with the given id (synonym for indexing)."""
        return self._bubbles[bubble_id]

    @property
    def total_points(self) -> int:
        """Total number of points summarized across all bubbles."""
        return sum(bubble.n for bubble in self._bubbles)

    def counts(self) -> np.ndarray:
        """Per-bubble point counts ``n_i`` in id order."""
        return np.fromiter(
            (bubble.n for bubble in self._bubbles),
            dtype=np.int64,
            count=len(self._bubbles),
        )

    def betas(self, database_size: int | None = None) -> np.ndarray:
        """Data summarization indices ``β_i = n_i / N`` (Definition 2).

        Args:
            database_size: the ``N`` to normalise by. Defaults to the total
                number of summarized points, which equals the database size
                whenever every point is assigned to some bubble.
        """
        counts = self.counts().astype(np.float64)
        n_total = (
            float(database_size)
            if database_size is not None
            else float(counts.sum())
        )
        if n_total <= 0:
            return np.zeros_like(counts)
        return counts / n_total

    def reps(self) -> np.ndarray:
        """``(B, d)`` matrix of representatives, in id order.

        Empty bubbles contribute their seed (see
        :attr:`~repro.core.bubble.DataBubble.rep`).

        The matrix is cached and refreshed incrementally: only rows whose
        bubbles mutated since the last call are recomputed, so a batch
        that touched ``k`` of ``B`` bubbles pays O(k·d), not O(B·d). The
        returned array is a **read-only view** of the cache — consumers
        that need to mutate or outlive it must copy (the assigners copy
        their locations defensively on construction).
        """
        num = len(self._bubbles)
        cache = self._reps_cache
        if cache is None or cache.shape[0] != num:
            cache = np.empty((num, self._dim), dtype=np.float64)
            for i, bubble in enumerate(self._bubbles):
                cache[i] = bubble.rep
            self._reps_cache = cache
            self._dirty_reps.clear()
        elif self._dirty_reps:
            for i in self._dirty_reps:
                cache[i] = self._bubbles[i].rep
            self._dirty_reps.clear()
        view = cache.view()
        view.flags.writeable = False
        return view

    def seeds(self) -> np.ndarray:
        """``(B, d)`` matrix of assignment seeds, in id order."""
        matrix = np.empty((len(self._bubbles), self._dim), dtype=np.float64)
        for i, bubble in enumerate(self._bubbles):
            matrix[i] = bubble.seed
        return matrix

    def extents(self) -> np.ndarray:
        """Per-bubble extents in id order."""
        return np.fromiter(
            (bubble.extent for bubble in self._bubbles),
            dtype=np.float64,
            count=len(self._bubbles),
        )

    def non_empty_ids(self) -> list[BubbleId]:
        """Ids of bubbles that currently summarize at least one point."""
        return [b.bubble_id for b in self._bubbles if not b.is_empty()]

    def member_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Every bubble's points as CSR ``(offsets, ids)`` from the store.

        Bubble ``b`` owns ``ids[offsets[b]:offsets[b + 1]]``, ascending
        (one stable sort of the ascending alive ids by owner);
        ``offsets`` has ``B + 1`` entries. Alive points whose owner is
        not a bubble of this set are left out.
        """
        num = len(self._bubbles)
        ids = self._store.ids()
        owners = self._store.owners_of(ids)
        owned = (owners >= 0) & (owners < num)
        ids, owners = ids[owned], owners[owned]
        offsets = np.zeros(num + 1, dtype=np.int64)
        np.cumsum(np.bincount(owners, minlength=num), out=offsets[1:])
        return offsets, ids[np.argsort(owners, kind="stable")]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BubbleSet(dim={self._dim}, bubbles={len(self._bubbles)}, "
            f"points={self.total_points})"
        )


def check_members(
    bubbles: BubbleSet, offsets: np.ndarray, member_ids: np.ndarray
) -> None:
    """Cross-check persisted member arrays against the owner column.

    Snapshot and session files carry each bubble's member ids as CSR
    arrays. On load they must equal what the store's owner column implies
    (:meth:`BubbleSet.member_csr`), the column may name only bubbles of
    the set, and every bubble's ``n`` must equal the number of points it
    owns.

    Raises:
        ValueError: on any disagreement.
    """
    store = bubbles.store
    owners = store.owners_of(store.ids())
    if ((owners < -1) | (owners >= len(bubbles))).any():
        raise ValueError("the owner column names a nonexistent bubble")
    want_offsets, want_ids = bubbles.member_csr()
    if not (
        np.array_equal(offsets, want_offsets)
        and np.array_equal(member_ids, want_ids)
    ):
        raise ValueError(
            "the stored member arrays disagree with the store's owner "
            "column"
        )
    owned = np.diff(want_offsets)
    drifted = np.flatnonzero(bubbles.counts() != owned)
    if drifted.size:
        b = int(drifted[0])
        raise ValueError(
            f"bubble {b} has n={bubbles[b].n} but owns {int(owned[b])} "
            "point(s)"
        )
