"""A set of data bubbles summarizing one database, held as arrays.

:class:`BubbleSet` is the unit the rest of the system works with: the
builder produces one, the maintainers mutate one in place, and the
bubble-aware OPTICS consumes one. It owns the id space of its bubbles
(dense indices ``0 .. K-1``) and the whole summary as four arrays: ``n``
``(K,)``, ``LS`` ``(K, d)``, ``SS`` ``(K,)`` and the seeds ``(K, d)``.

It is the only place the Figure 3 and Figure 6 updates run — grouped
:meth:`~BubbleSet.absorb` / :meth:`~BubbleSet.release` of a point matrix
by an owner vector, plus :meth:`~BubbleSet.clear` and
:meth:`~BubbleSet.reseed` by id — and the one place Definition 1's
representative, extent and ``nnDist`` are derived, for any id subset at
once (:meth:`~BubbleSet.features`). :class:`~repro.core.bubble.DataBubble`
is a stateless ``(set, id)`` handle onto one row. Which points a bubble
holds is the owner column of the :class:`~repro.database.PointStore` the
set is bound to (:meth:`~BubbleSet.member_csr` reads it for every bubble).

The paper maintains "a given number of data bubbles" and recycles
under-filled ones (Section 4.2); :meth:`~BubbleSet.add_bubble` serves the
adaptive maintainer's future-work extension.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..database import PointStore
from ..exceptions import DimensionMismatchError, EmptyBubbleError
from ..types import BubbleId
from .bubble import DataBubble

__all__ = ["BubbleSet", "check_members"]


class BubbleSet:
    """The summary: ``(n, LS, SS)`` and a seed per bubble, as arrays.

    Args:
        store: the database the bubbles summarize; its owner column is
            the membership record of every bubble in the set.

    The set tracks a monotonic :attr:`version` counter, bumped by every
    mutation (absorb/release/reseed/clear/add). The clustering
    :class:`~repro.clustering.incremental.ClusterCache` keys on it to
    reuse derived state, and :meth:`touched_since` names the bubbles a
    version change covers. The
    :class:`~repro.core.assignment.AssignerCache` keeps its seed matrix
    by comparing :meth:`reps` with the last call's instead: a row whose
    representative did not move costs nothing, whatever touched it.
    """

    def __init__(self, store: PointStore) -> None:
        self._store = store
        self._dim = dim = store.dim
        self._n = np.zeros(0, dtype=np.int64)
        self._ls = np.zeros((0, dim), dtype=np.float64)
        self._ss = np.zeros(0, dtype=np.float64)
        self._seeds = np.zeros((0, dim), dtype=np.float64)
        self._version = 0
        self._touched_log: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        store: PointStore,
        seeds: np.ndarray,
        counts: np.ndarray | None = None,
        linear_sums: np.ndarray | None = None,
        square_sums: np.ndarray | None = None,
    ) -> "BubbleSet":
        """A set of ``len(seeds)`` bubbles, empty unless statistics are
        given; those are installed verbatim (copied, never recomputed), so
        a set restored from persisted ``(n, LS, SS)`` is bit-identical to
        the one captured.

        Raises:
            ValueError: the arrays do not align as ``(K, d)``, ``(K,)``,
                ``(K, d)``, ``(K,)``, or a count is negative.
        """
        bubbles = cls(store)
        seeds = np.array(seeds, dtype=np.float64)
        num, dim = (seeds.shape[0] if seeds.ndim else 0), bubbles._dim
        if counts is None:
            counts, linear_sums = np.zeros(num), np.zeros((num, dim))
            square_sums = np.zeros(num)
        arrays = (
            seeds,
            np.array(counts, dtype=np.int64),
            np.array(linear_sums, dtype=np.float64),
            np.array(square_sums, dtype=np.float64),
        )
        shapes = tuple(a.shape for a in arrays)
        if shapes != ((num, dim), (num,), (num, dim), (num,)) or (
            arrays[1] < 0
        ).any():
            raise ValueError(
                f"seeds and statistics of shapes {shapes} do not align at "
                f"dim {dim}, or a count is negative"
            )
        bubbles._seeds, bubbles._n, bubbles._ls, bubbles._ss = arrays
        bubbles._touch(range(num))
        return bubbles

    def add_bubble(self, seed: np.ndarray) -> DataBubble:
        """Create a new empty bubble at ``seed`` and return its handle."""
        seed = np.asarray(seed, dtype=np.float64)
        if seed.shape != (self._dim,):
            raise DimensionMismatchError(
                f"seed shape {seed.shape} does not match dim {self._dim}"
            )
        self._seeds = np.vstack([self._seeds, seed])
        self._ls = np.vstack([self._ls, np.zeros(self._dim)])
        self._n, self._ss = np.append(self._n, 0), np.append(self._ss, 0.0)
        self._touch((len(self) - 1,))
        return self[-1]

    # ------------------------------------------------------------------
    # Versioning
    # ------------------------------------------------------------------
    def _touch(self, bubble_ids) -> None:
        self._version += 1
        for bubble_id in bubble_ids:
            self._touched_log[int(bubble_id)] = self._version

    @property
    def version(self) -> int:
        """Monotonic mutation counter covering every bubble."""
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
    # The Figure 3 / Figure 6 updates
    # ------------------------------------------------------------------
    def absorb(self, points: np.ndarray, owners: Sequence[BubbleId]) -> None:
        """Add each row of the ``(m, d)`` ``points`` to the bubble its
        entry in ``owners`` names: ``(n, LS, SS) += (m_b, Σp, Σp·p)``."""
        self._update(points, owners, sign=1)

    def release(self, points: np.ndarray, owners: Sequence[BubbleId]) -> None:
        """Subtract each row of ``points`` from the bubble its entry in
        ``owners`` names; a bubble left with ``n = 0`` is snapped to exact
        zero, bit-identical to a fresh one.

        Raises:
            EmptyBubbleError: a bubble would give up more points than it
                holds; nothing is changed.
        """
        self._update(points, owners, sign=-1)

    def _update(self, points, owners, sign: int) -> None:
        """Bubbles in ascending id order, each with one row sum and one
        ``einsum`` over its rows in their given order — the float order of
        one per-bubble batch update."""
        points = np.asarray(points, dtype=np.float64)
        owners = np.asarray(owners, dtype=np.int64)
        if points.ndim != 2 or points.shape[1] != self._dim:
            raise DimensionMismatchError(
                f"expected (m, {self._dim}) points, got shape {points.shape}"
            )
        if owners.shape != (points.shape[0],):
            raise ValueError(
                f"owners shape {owners.shape} does not match "
                f"{points.shape[0]} points"
            )
        if owners.size == 0:
            return
        num = len(self)
        if owners.min() < 0 or owners.max() >= num:
            raise IndexError("owner ids must name bubbles of this set")
        moved = np.bincount(owners, minlength=num)
        if sign < 0 and (moved > self._n).any():
            b = int(np.flatnonzero(moved > self._n)[0])
            raise EmptyBubbleError(
                f"cannot release {int(moved[b])} points from bubble {b}, "
                f"which holds {int(self._n[b])}"
            )
        ids = np.flatnonzero(moved)
        for b in ids:
            rows = points[owners == b]
            # x - y and x + (-1 · y) round alike: negation is exact.
            self._ls[b] += sign * rows.sum(axis=0)
            self._ss[b] += sign * float(np.einsum("ij,ij->", rows, rows))
        self._n += sign * moved
        emptied = ids[self._n[ids] == 0]
        self._ls[emptied] = 0.0
        self._ss[emptied] = 0.0
        self._touch(ids)

    def clear(self, bubble_ids: Sequence[BubbleId]) -> None:
        """Empty the given bubbles (the merge step of Figure 6 releases
        all of a donor's points at once)."""
        ids = np.asarray(bubble_ids, dtype=np.int64).reshape(-1)
        self._n[ids] = 0
        self._ls[ids] = 0.0
        self._ss[ids] = 0.0
        self._touch(ids)

    def reseed(self, bubble_id: BubbleId, seed: np.ndarray) -> None:
        """Move an empty bubble's assignment location (Section 4.2).

        Raises:
            EmptyBubbleError: the bubble still summarizes points —
                repositioning it would silently misplace them.
            ValueError: ``seed`` is not a ``(d,)`` point.
        """
        if self._n[bubble_id]:
            raise EmptyBubbleError(
                f"bubble {bubble_id} must be emptied before reseeding"
            )
        seed = np.asarray(seed, dtype=np.float64)
        if seed.shape != (self._dim,):
            raise ValueError(
                f"seed shape {seed.shape} does not match dim {self._dim}"
            )
        self._seeds[bubble_id] = seed
        self._touch((bubble_id,))

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
        return self._n.shape[0]

    def __iter__(self) -> Iterator[DataBubble]:
        return (DataBubble(self, i) for i in range(len(self)))

    def __getitem__(self, bubble_id: BubbleId) -> DataBubble:
        """A handle onto bubble ``bubble_id`` (negative ids count back)."""
        return DataBubble(self, range(len(self))[bubble_id])

    def get(self, bubble_id: BubbleId) -> DataBubble:
        """The bubble with the given id (synonym for indexing)."""
        return self[bubble_id]

    @property
    def total_points(self) -> int:
        """Total number of points summarized across all bubbles."""
        return int(self._n.sum())

    def counts(self) -> np.ndarray:
        """Per-bubble point counts ``n``, in id order (a copy)."""
        return self._n.copy()

    def statistics(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(n, LS, SS)`` of every bubble in id order, as copies."""
        return self._n.copy(), self._ls.copy(), self._ss.copy()

    def seeds(self) -> np.ndarray:
        """``(K, d)`` matrix of assignment seeds, in id order (a copy)."""
        return self._seeds.copy()

    def non_empty_ids(self) -> list[BubbleId]:
        """Ids of bubbles that currently summarize at least one point."""
        return np.flatnonzero(self._n).tolist()

    def betas(self, database_size: int | None = None) -> np.ndarray:
        """Data summarization indices ``β_i = n_i / N`` (Definition 2).

        Args:
            database_size: the ``N`` to normalise by. Defaults to the total
                number of summarized points, which equals the database size
                whenever every point is assigned to some bubble.
        """
        counts = self._n.astype(np.float64)
        total = counts.sum() if database_size is None else database_size
        return counts / float(total) if total > 0 else np.zeros_like(counts)

    # ------------------------------------------------------------------
    # Definition 1
    # ------------------------------------------------------------------
    def features(
        self, bubble_ids: Sequence[BubbleId] | None, k: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Definition 1 for the given ids (all when ``None``):
        ``(counts, reps, extents, nnDist(k))``, aligned with the ids.

        Float for float what :mod:`repro.sufficient`'s ``representative``,
        ``extent`` and ``nn_dist`` give on each row's statistics; an empty
        bubble's rep is its seed and its extent and ``nnDist`` are 0.

        Raises:
            ValueError: ``k`` is not positive.
        """
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        ids = self._select(bubble_ids)
        n = self._n[ids]
        extents = _extents(n, self._ls[ids], self._ss[ids])
        nn = extents.copy()
        big = n > k
        if big.any():
            # A scalar float power per row, as in repro.sufficient.nn_dist:
            # numpy's array power may round differently.
            inv_dim = 1.0 / self._dim
            scale = [(k / count) ** inv_dim for count in n[big].tolist()]
            nn[big] = np.asarray(scale) * extents[big]
        return n, _reps(n, self._ls[ids], self._seeds[ids]), extents, nn

    def reps(self, bubble_ids: Sequence[BubbleId] | None = None) -> np.ndarray:
        """``(m, d)`` representatives of the given ids (all when ``None``),
        an empty bubble's seed in its row; a fresh array the caller owns.
        """
        ids = self._select(bubble_ids)
        return _reps(self._n[ids], self._ls[ids], self._seeds[ids])

    def extents(
        self, bubble_ids: Sequence[BubbleId] | None = None
    ) -> np.ndarray:
        """Extents of the given ids (all when ``None``); ``0.0`` for empty
        and singleton bubbles."""
        ids = self._select(bubble_ids)
        return _extents(self._n[ids], self._ls[ids], self._ss[ids])

    def _select(self, bubble_ids) -> np.ndarray | slice:
        if bubble_ids is None:
            return slice(None)
        return np.asarray(bubble_ids, dtype=np.int64).reshape(-1)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def member_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Every bubble's points as CSR ``(offsets, ids)`` from the store.

        Bubble ``b`` owns ``ids[offsets[b]:offsets[b + 1]]``, ascending
        (one stable sort of the ascending alive ids by owner);
        ``offsets`` has ``K + 1`` entries. Alive points whose owner is
        not a bubble of this set are left out. Up to 65,536 bubbles the
        owners are sorted as ``uint16``, which numpy radix-sorts; a
        stable sort's order does not depend on the key's dtype.
        """
        num = len(self)
        ids = self._store.ids()
        owners = self._store.owners_of(ids)
        owned = (owners >= 0) & (owners < num)
        ids, owners = ids[owned], owners[owned]
        offsets = np.zeros(num + 1, dtype=np.int64)
        np.cumsum(np.bincount(owners, minlength=num), out=offsets[1:])
        keys = owners.astype(np.uint16) if num <= 1 << 16 else owners
        return offsets, ids[np.argsort(keys, kind="stable")]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BubbleSet(dim={self._dim}, bubbles={len(self)}, "
            f"points={self.total_points})"
        )


def _reps(n: np.ndarray, ls: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """``LS / n`` per row; the seed where ``n = 0``."""
    reps = seeds.copy()
    full = n > 0
    reps[full] = ls[full] / n[full, None]
    return reps


def _extents(n: np.ndarray, ls: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """``sqrt(max((2n·SS - 2|LS|²) / (n(n-1)), 0))``; 0 where ``n <= 1``.

    ``|LS|²`` is a stacked ``matmul``, which reduces each row as the
    ``np.dot`` of :func:`repro.sufficient.extent` does (``einsum`` does
    not).
    """
    extents = np.zeros(n.shape[0], dtype=np.float64)
    many = n > 1
    if many.any():
        m, rows = n[many], ls[many]
        dots = np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]
        sq = (2.0 * m * ss[many] - 2.0 * dots) / (m * (m - 1))
        extents[many] = np.sqrt(np.maximum(sq, 0.0))
    return extents


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
    owned, counts = np.diff(want_offsets), bubbles.counts()
    drifted = np.flatnonzero(counts != owned)
    if drifted.size:
        b = int(drifted[0])
        raise ValueError(
            f"bubble {b} has n={int(counts[b])} but owns {int(owned[b])} "
            "point(s)"
        )
