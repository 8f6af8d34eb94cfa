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

Storage is a set of parallel numpy arrays plus an aliveness mask; the row
of id ``i`` is ``i - base``. That keeps bulk snapshots (the
complete-rebuild baseline re-summarizes the whole database every batch)
vectorised and cheap. Every whole-store scan starts at a *scan floor*, the
lowest id that may still be alive — a sliding window's dead prefix is
never read — and when the arrays run out of rows the live ids from the
floor on move to row 0 and the base moves up to the floor, so a window
holds a bounded number of rows however many ids it has issued.
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
        # Row r holds id base + r. Every id below the floor is dead, and
        # every dead id in [base, next_id) has owner -1, so scans of
        # [floor, next_id) see it all.
        self._base = 0
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
        # Rows start at the first alive id: the dead ids below it are
        # never stored.
        base = int(ids[0]) if ids.size else resume
        store._base = store._low = store._next_id = base
        store._make_room(resume - base)
        rows = ids - base
        store._points[rows] = points
        store._labels[rows] = labels
        store._owners[: resume - base] = _UNOWNED
        if owners is not None:
            owners = np.asarray(owners, dtype=np.int64)
            if owners.shape != ids.shape:
                raise ValueError("owners must align with ids")
            store._owners[rows] = owners
        store._alive[rows] = True
        store._next_id = resume
        store._size = int(ids.size)
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
        self._make_room(count)
        start = self._next_id
        rows = slice(start - self._base, start - self._base + count)
        self._points[rows] = points
        self._labels[rows] = label_array
        self._owners[rows] = _UNOWNED
        self._alive[rows] = True
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
        rows = self._rows(ids)
        self._alive[rows] = False
        self._owners[rows] = _UNOWNED
        self._size -= ids.size
        if not self._alive[self._low - self._base]:
            # argmax stops at the first alive id; none left means the
            # floor moves to next_id.
            rest = self._alive[self._window()]
            self._low += int(rest.argmax()) if self._size else rest.size

    def set_owner(self, point_id: PointId, bubble_id: BubbleId) -> None:
        """Record which bubble currently summarizes ``point_id``."""
        self._owners[self._rows([point_id])] = bubble_id

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
        self._owners[self._rows(ids)] = owners

    def clear_owners(self) -> None:
        """Forget every ownership record (used before a complete rebuild)."""
        self._owners[self._window()] = _UNOWNED

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
        return self._base <= idx < self._next_id and bool(
            self._alive[idx - self._base]
        )

    def point(self, point_id: PointId) -> np.ndarray:
        """The coordinates of one alive point (read-only view)."""
        view = self._points[self._rows([point_id])[0]].view()
        view.flags.writeable = False
        return view

    def label(self, point_id: PointId) -> Label:
        """Ground-truth label of one alive point."""
        return int(self._labels[self._rows([point_id])[0]])

    def owner(self, point_id: PointId) -> BubbleId | None:
        """Bubble currently owning the point, or ``None`` if unassigned."""
        owner = int(self._owners[self._rows([point_id])[0]])
        return None if owner == _UNOWNED else owner

    def ids(self) -> np.ndarray:
        """Ids of all alive points, ascending."""
        return self._scan(self._alive[self._window()])

    def owned_by(self, bubble_id: BubbleId) -> np.ndarray:
        """Ids of the alive points ``bubble_id`` owns, ascending."""
        return self._scan(self._owners[self._window()] == bubble_id)

    def points_of(self, point_ids: Sequence[PointId]) -> np.ndarray:
        """Coordinate matrix for the given alive ids."""
        return self._points[self._rows(point_ids)]

    def owners_of(self, point_ids: Sequence[PointId]) -> np.ndarray:
        """Bubble ownership for the given alive ids (``-1`` = unowned)."""
        return self._owners[self._rows(point_ids)]

    def labels_of(self, point_ids: Sequence[PointId]) -> np.ndarray:
        """Ground-truth labels for the given alive ids."""
        return self._labels[self._rows(point_ids)]

    def snapshot(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, points, labels)`` of all alive points in one shot.

        The workhorse of the complete-rebuild baseline and of the evaluation
        harness.
        """
        ids = self.ids()
        rows = ids - self._base
        return ids, self._points[rows], self._labels[rows]

    def iter_alive(self) -> Iterator[tuple[PointId, np.ndarray]]:
        """Iterate ``(id, point)`` pairs for all alive points."""
        for point_id in self.ids():
            yield int(point_id), self._points[point_id - self._base]

    def ids_with_label(self, label: Label) -> np.ndarray:
        """Alive point ids whose ground-truth label equals ``label``."""
        window = self._window()
        return self._scan(
            self._alive[window] & (self._labels[window] == label)
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _window(self) -> slice:
        """The rows of ids ``[floor, next_id)``."""
        return slice(self._low - self._base, self._next_id - self._base)

    def _scan(self, mask: np.ndarray) -> np.ndarray:
        """Ids of the set entries of a mask over ``[floor, next_id)``."""
        return (np.flatnonzero(mask) + self._low).astype(np.int64, copy=False)

    def _rows(self, point_ids: Sequence[PointId]) -> np.ndarray:
        """The rows of ``point_ids``; raises unless all are alive."""
        ids = np.asarray(point_ids, dtype=np.int64)
        rows = ids - self._base
        if ids.size and not (
            (rows >= 0).all()
            and (ids < self._next_id).all()
            and self._alive[rows].all()
        ):
            alive = (rows >= 0) & (ids < self._next_id)
            alive[alive] = self._alive[rows[alive]]
            first = int(ids[~alive][0])
            raise UnknownPointError(f"point id {first} is not alive")
        return rows

    def _make_room(self, count: int) -> None:
        """Make rows for ``count`` more ids after ``next_id``.

        When the ids from the floor on plus the new ones fit in half the
        capacity, the capacity stays; otherwise it doubles until they
        fit. Either way the live range ``[floor, next_id)`` is copied to
        row 0 and the base moves up to the floor.
        """
        if self._next_id + count - self._base <= self._capacity:
            return
        needed = self._next_id + count - self._low
        capacity = self._capacity
        if 2 * needed > capacity:
            capacity *= 2
            while capacity < needed:
                capacity *= 2
        live, span = self._window(), self._next_id - self._low
        points = np.empty((capacity, self._dim), dtype=np.float64)
        labels = np.empty(capacity, dtype=np.int64)
        owners = np.empty(capacity, dtype=np.int64)
        alive = np.zeros(capacity, dtype=bool)
        points[:span] = self._points[live]
        labels[:span] = self._labels[live]
        owners[:span] = self._owners[live]
        alive[:span] = self._alive[live]
        self._points, self._labels = points, labels
        self._owners, self._alive = owners, alive
        self._capacity = capacity
        self._base = self._low

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PointStore(dim={self._dim}, size={self._size})"
