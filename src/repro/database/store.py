"""In-memory dynamic point database.

The paper's setting is an *incremental database*: a large set of
``d``-dimensional points that changes through batches of insertions and
deletions driven by application logic (Section 1). :class:`PointStore` is
that substrate:

* every inserted point receives a **stable integer id** (ids are never
  reused, so a deletion can always be validated);
* each point carries a **ground-truth label** (used only by the evaluation
  harness — the clustering pipeline never reads it);
* each point records which **data bubble owns it**, which is what makes
  deletions O(1): the incremental maintainer looks the owner up instead of
  searching all bubbles (Section 4: "the data bubble B where p was
  previously assigned"). This owner column is the *only* record of
  membership — a bubble keeps just its seed and ``(n, LS, SS)``, and
  :meth:`PointStore.owned_by` answers "the points of bubble b" (Figure 6's
  merge and split) with one mask over the column.

Storage is a set of parallel, capacity-doubling numpy arrays indexed by the
point id itself, plus an aliveness mask. That keeps bulk snapshots (the
complete-rebuild baseline re-summarizes the whole database every batch)
vectorised and cheap. Ids are never reused, so the arrays only grow; every
whole-store scan starts at a *scan floor*, the lowest id that may still be
alive, instead of at id 0 — a sliding window's dead prefix is never read.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..exceptions import (
    DimensionMismatchError,
    UnknownPointError,
)
from ..types import NOISE_LABEL, BubbleId, Label, PointId, PointMatrix

__all__ = ["PointStore"]

_UNOWNED: int = -1
_INITIAL_CAPACITY: int = 1024


class PointStore:
    """Dynamic set of labelled points with stable ids and bubble ownership.

    Args:
        dim: dimensionality of all points in the store.

    Example:
        >>> store = PointStore(dim=2)
        >>> ids = store.insert([[0.0, 0.0], [1.0, 1.0]], labels=[0, 0])
        >>> store.size
        2
        >>> store.delete([ids[0]])
        >>> store.size
        1
    """

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self._dim = int(dim)
        self._capacity = _INITIAL_CAPACITY
        self._points = np.empty((self._capacity, dim), dtype=np.float64)
        self._labels = np.empty(self._capacity, dtype=np.int64)
        self._owners = np.empty(self._capacity, dtype=np.int64)
        self._alive = np.zeros(self._capacity, dtype=bool)
        self._next_id = 0
        self._size = 0
        # Every id below the floor is dead, and every dead id below
        # next_id has owner -1, so scans of [floor, next_id) see it all.
        self._low = 0

    # ------------------------------------------------------------------
    # Reconstruction (persistence support)
    # ------------------------------------------------------------------
    @classmethod
    def from_snapshot(
        cls,
        dim: int,
        ids: np.ndarray,
        points: np.ndarray,
        labels: np.ndarray,
        owners: np.ndarray | None = None,
        next_id: int | None = None,
    ) -> "PointStore":
        """Rebuild a store from persisted state, preserving ids.

        Args:
            dim: point dimensionality.
            ids: alive point ids (ascending, may have gaps from earlier
                deletions).
            points: coordinates aligned with ``ids``.
            labels: ground-truth labels aligned with ``ids``.
            owners: bubble ownership aligned with ``ids`` (``-1`` =
                unowned); all unowned when omitted.
            next_id: the id counter to resume from; defaults to one past
                the largest alive id (safe: ids are never reused, so any
                id gap above that was free anyway).
        """
        ids = np.asarray(ids, dtype=np.int64)
        points = np.asarray(points, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if ids.ndim != 1 or points.shape != (ids.size, dim):
            raise ValueError("ids and points must align as (m,) and (m, dim)")
        if labels.shape != ids.shape:
            raise ValueError("labels must align with ids")
        if ids.size and ((np.diff(ids) <= 0).any() or ids[0] < 0):
            raise ValueError("ids must be non-negative and strictly ascending")
        store = cls(dim=dim)
        resume = int(next_id) if next_id is not None else (
            int(ids[-1]) + 1 if ids.size else 0
        )
        if ids.size and resume <= int(ids[-1]):
            raise ValueError("next_id must exceed every alive id")
        store._ensure_capacity(max(resume, 1))
        store._points[ids] = points
        store._labels[ids] = labels
        store._owners[:resume] = _UNOWNED
        if owners is not None:
            owners = np.asarray(owners, dtype=np.int64)
            if owners.shape != ids.shape:
                raise ValueError("owners must align with ids")
            store._owners[ids] = owners
        store._alive[ids] = True
        store._next_id = resume
        store._size = int(ids.size)
        store._low = int(ids[0]) if ids.size else resume
        return store

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(
        self,
        points: PointMatrix,
        labels: Sequence[Label] | np.ndarray | None = None,
    ) -> list[PointId]:
        """Insert a batch of points; returns their newly assigned ids.

        Args:
            points: ``(m, d)`` matrix of new points.
            labels: optional ground-truth labels, one per point; defaults to
                :data:`~repro.types.NOISE_LABEL` for every point.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points.reshape(1, -1)
        if points.ndim != 2 or points.shape[1] != self._dim:
            raise DimensionMismatchError(
                f"expected (m, {self._dim}) points, got shape {points.shape}"
            )
        count = points.shape[0]
        if labels is None:
            label_array = np.full(count, NOISE_LABEL, dtype=np.int64)
        else:
            label_array = np.asarray(labels, dtype=np.int64)
            if label_array.shape != (count,):
                raise ValueError(
                    f"expected {count} labels, got shape {label_array.shape}"
                )
        start = self._next_id
        self._ensure_capacity(start + count)
        self._points[start : start + count] = points
        self._labels[start : start + count] = label_array
        self._owners[start : start + count] = _UNOWNED
        self._alive[start : start + count] = True
        self._next_id += count
        self._size += count
        return list(range(start, start + count))

    def delete(self, point_ids: Sequence[PointId]) -> None:
        """Delete points by id.

        Raises:
            UnknownPointError: if any id is unknown or already deleted; the
                store is left unchanged in that case.
        """
        ids = np.asarray(point_ids, dtype=np.int64)
        if ids.size == 0:
            return
        bad = (ids < 0) | (ids >= self._next_id)
        if bad.any() or not self._alive[ids].all():
            first = int(ids[bad][0]) if bad.any() else int(
                ids[~self._alive[np.clip(ids, 0, self._next_id - 1)]][0]
            )
            raise UnknownPointError(f"point id {first} is not alive")
        self._alive[ids] = False
        self._owners[ids] = _UNOWNED
        self._size -= ids.size
        if not self._alive[self._low]:
            # argmax stops at the first alive id; none left means the
            # floor moves to next_id.
            rest = self._alive[self._low : self._next_id]
            self._low += int(rest.argmax()) if self._size else rest.size

    def set_owner(self, point_id: PointId, bubble_id: BubbleId) -> None:
        """Record which bubble currently summarizes ``point_id``."""
        self._check_alive(point_id)
        self._owners[point_id] = bubble_id

    def set_owners(
        self, point_ids: Sequence[PointId], bubble_ids: Sequence[BubbleId]
    ) -> None:
        """Vectorised :meth:`set_owner` for parallel sequences."""
        ids = np.asarray(point_ids, dtype=np.int64)
        owners = np.asarray(bubble_ids, dtype=np.int64)
        if ids.shape != owners.shape:
            raise ValueError("point_ids and bubble_ids must align")
        if ids.size == 0:
            return
        if not self._alive[ids].all():
            raise UnknownPointError("cannot set owner of a dead point")
        self._owners[ids] = owners

    def clear_owners(self) -> None:
        """Forget every ownership record (used before a complete rebuild)."""
        self._owners[self._low : self._next_id] = _UNOWNED

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Dimensionality of the stored points."""
        return self._dim

    @property
    def size(self) -> int:
        """Number of currently alive points (the paper's ``N``)."""
        return self._size

    @property
    def next_id(self) -> int:
        """The id the next inserted point will receive.

        Ids are handed out monotonically and never reused, so persisting
        this counter (rather than deriving it from the alive ids) keeps id
        assignment stable across a save/restore even when the most recently
        inserted points have already been deleted again.
        """
        return self._next_id

    def __len__(self) -> int:
        return self._size

    def __contains__(self, point_id: object) -> bool:
        if not isinstance(point_id, (int, np.integer)):
            return False
        idx = int(point_id)
        return 0 <= idx < self._next_id and bool(self._alive[idx])

    def point(self, point_id: PointId) -> np.ndarray:
        """The coordinates of one alive point (read-only view)."""
        self._check_alive(point_id)
        view = self._points[point_id].view()
        view.flags.writeable = False
        return view

    def label(self, point_id: PointId) -> Label:
        """Ground-truth label of one alive point."""
        self._check_alive(point_id)
        return int(self._labels[point_id])

    def owner(self, point_id: PointId) -> BubbleId | None:
        """Bubble currently owning the point, or ``None`` if unassigned."""
        self._check_alive(point_id)
        owner = int(self._owners[point_id])
        return None if owner == _UNOWNED else owner

    def ids(self) -> np.ndarray:
        """Ids of all alive points, ascending."""
        return self._scan(self._alive[self._low : self._next_id])

    def owned_by(self, bubble_id: BubbleId) -> np.ndarray:
        """Ids of the alive points ``bubble_id`` owns, ascending."""
        return self._scan(self._owners[self._low : self._next_id] == bubble_id)

    def points_of(self, point_ids: Sequence[PointId]) -> np.ndarray:
        """Coordinate matrix for the given alive ids."""
        return self._points[self._alive_ids(point_ids)].copy()

    def owners_of(self, point_ids: Sequence[PointId]) -> np.ndarray:
        """Bubble ownership for the given alive ids (``-1`` = unowned)."""
        return self._owners[self._alive_ids(point_ids)].copy()

    def labels_of(self, point_ids: Sequence[PointId]) -> np.ndarray:
        """Ground-truth labels for the given alive ids."""
        return self._labels[self._alive_ids(point_ids)].copy()

    def snapshot(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, points, labels)`` of all alive points in one shot.

        The workhorse of the complete-rebuild baseline and of the evaluation
        harness.
        """
        ids = self.ids()
        return ids, self._points[ids].copy(), self._labels[ids].copy()

    def iter_alive(self) -> Iterator[tuple[PointId, np.ndarray]]:
        """Iterate ``(id, point)`` pairs for all alive points."""
        for point_id in self.ids():
            yield int(point_id), self._points[point_id]

    def ids_with_label(self, label: Label) -> np.ndarray:
        """Alive point ids whose ground-truth label equals ``label``."""
        window = slice(self._low, self._next_id)
        return self._scan(
            self._alive[window] & (self._labels[window] == label)
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _scan(self, mask: np.ndarray) -> np.ndarray:
        """Ids of the set entries of a mask over ``[floor, next_id)``."""
        return (np.flatnonzero(mask) + self._low).astype(np.int64, copy=False)

    def _check_alive(self, point_id: PointId) -> None:
        if not (0 <= point_id < self._next_id) or not self._alive[point_id]:
            raise UnknownPointError(f"point id {point_id} is not alive")

    def _alive_ids(self, point_ids: Sequence[PointId]) -> np.ndarray:
        """``point_ids`` as an int64 array; raises unless all are alive."""
        ids = np.asarray(point_ids, dtype=np.int64)
        if ids.size and not (
            (ids >= 0).all()
            and (ids < self._next_id).all()
            and self._alive[ids].all()
        ):
            raise UnknownPointError("requested a dead point")
        return ids

    def _ensure_capacity(self, needed: int) -> None:
        if needed <= self._capacity:
            return
        new_capacity = self._capacity
        while new_capacity < needed:
            new_capacity *= 2
        self._points = np.resize(self._points, (new_capacity, self._dim))
        self._labels = np.resize(self._labels, new_capacity)
        self._owners = np.resize(self._owners, new_capacity)
        alive = np.zeros(new_capacity, dtype=bool)
        alive[: self._capacity] = self._alive
        self._alive = alive
        self._capacity = new_capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PointStore(dim={self._dim}, size={self._size})"
