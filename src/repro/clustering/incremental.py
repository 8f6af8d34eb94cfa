"""Incremental, anytime OPTICS over data bubbles.

The paper makes *summarization* incremental; this module makes the
*clustering on top of it* incremental too. Three pieces:

**ClusterCache** — derived clustering state keyed on
:attr:`BubbleSet.version <repro.core.bubble_set.BubbleSet.version>`: the
bubble feature arrays, the K×K bubble distance matrix, the core-distance
vector, and the last reachability plot. A batch that touched ``T`` of
``K`` bubbles (absorb/release/reseed/split/merge — surfaced by
:meth:`BubbleSet.touched_since
<repro.core.bubble_set.BubbleSet.touched_since>` and by maintainer batch
callbacks) invalidates exactly the ``T`` rows and columns: repaired rows
are bit-identical to a cold rebuild (see
:func:`~repro.clustering.bubble_optics.bubble_distance_rows`), repaired
core distances equal the from-scratch weighted computation float for
float, and one walk of the repaired matrix equals a from-scratch
:func:`~repro.clustering.engine.run_optics` **exactly** — same ordering,
same reachability floats, same cores.

**Anytime mode** — ``fit(deadline_seconds=...)`` clusters nested subsets
of the bubbles (largest point counts first), yielding a valid — coarse —
:class:`~repro.clustering.cluster_tree.ClusterTree` after the first
stage and refining while the deadline allows. Quality (the fraction of
summarized points covered by the clustered subset) is monotone over
stages by construction. The clock is injectable, which makes deadline
behaviour deterministic under test.

**ClusterLineage** — vineyard-style tracking of leaf clusters across
fits: clusters are matched by shared summarized points, and ``born`` /
``died`` / ``drifted`` events record how the hierarchy deforms as the
window slides.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.bubble_set import BubbleSet
from ..geometry.counting import DistanceCounter
from ..observability.spans import maybe_span
from .bubble_optics import _nn_dist_arrays, bubble_distance_rows
from .cluster_tree import ClusterNode, ClusterTree
from .engine import run_optics
from .extraction import extract_cluster_tree
from .reachability import ExpandedPlot, ReachabilityPlot

__all__ = [
    "ClusterCache",
    "ClusterFit",
    "ClusterLineage",
    "IncrementalClusterer",
    "LineageEvent",
    "StageResult",
]

# ----------------------------------------------------------------------
# Weighted core distances, many rows at once (satellite: hoist the
# per-object sort work into the version-keyed cache's vectorised kernel)
# ----------------------------------------------------------------------
def _weighted_cores(
    rows: np.ndarray, counts: np.ndarray, min_pts: int, eps: float
) -> np.ndarray:
    """Weighted core distances for a batch of distance rows.

    Float-for-float equal to the per-object computation in
    :func:`~repro.clustering.bubble_optics.optics_over_summaries`: the
    core distance is the row value at which the cumulative point count
    (ascending by distance) first reaches ``min_pts``. That *value* is
    invariant to how equal distances are ordered — the cumulative count
    crossing lands inside an equal-value block wherever its members sit —
    so an ``argpartition`` head (grown geometrically for rows whose head
    does not yet hold ``min_pts`` points) computes the same float as the
    reference's full stable argsort. Beyond-``eps`` entries are masked to
    ``inf``: they sort last, and a crossing that lands on one reproduces
    the reference's "never reached within eps → inf".
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None, :]
    num_rows, num_cols = rows.shape
    result = np.full(num_rows, np.inf)
    if num_rows == 0 or num_cols == 0:
        return result
    vals = rows if np.isinf(eps) else np.where(rows <= eps, rows, np.inf)
    pending = np.arange(num_rows)
    head = min(32, num_cols)
    while True:
        sub = vals[pending]
        if head < num_cols:
            part = np.argpartition(sub, head - 1, axis=1)[:, :head]
            head_vals = np.take_along_axis(sub, part, axis=1)
            order = np.argsort(head_vals, axis=1, kind="stable")
            svals = np.take_along_axis(head_vals, order, axis=1)
            scols = np.take_along_axis(part, order, axis=1)
        else:
            order = np.argsort(sub, axis=1, kind="stable")
            svals = np.take_along_axis(sub, order, axis=1)
            scols = order
        crossed = np.cumsum(counts[scols], axis=1) >= min_pts
        has = crossed.any(axis=1)
        done = np.flatnonzero(has)
        if done.size:
            first = np.argmax(crossed[done], axis=1)
            result[pending[done]] = svals[done, first]
        if head >= num_cols:
            return result  # rows that never cross stay inf
        pending = pending[~has]
        if pending.size == 0:
            return result
        head = min(head * 4, num_cols)


def _sanitize_extents(extents: np.ndarray) -> np.ndarray:
    """Clamp degenerate extents exactly like ``optics_over_summaries``."""
    return np.where(np.isfinite(extents) & (extents > 0.0), extents, 0.0)


def _sanitize_internal_cores(values: np.ndarray) -> np.ndarray:
    """NaN/negative internal cores clamp to 0; ``inf`` stays meaningful."""
    return np.where(np.isnan(values) | (values < 0.0), 0.0, values)


# ----------------------------------------------------------------------
# Cached state
# ----------------------------------------------------------------------
class _CacheState:
    """Everything derived from one ``(BubbleSet.version, id set)``."""

    __slots__ = (
        "version",
        "bubble_ids",
        "id_to_compact",
        "reps",
        "extents",
        "counts",
        "internal_core",
        "nn1",
        "dist",
        "cores",
        "plot",
        "virtual",
        "tree",
    )

    def __init__(self) -> None:
        self.version: int = -1
        self.bubble_ids = np.empty(0, dtype=np.int64)
        self.id_to_compact: dict[int, int] = {}
        self.reps = np.empty((0, 0))
        self.extents = np.empty(0)
        self.counts = np.empty(0, dtype=np.int64)
        self.internal_core = np.empty(0)
        self.nn1 = np.empty(0)
        self.dist = np.empty((0, 0))
        self.cores = np.empty(0)
        self.plot: ReachabilityPlot | None = None
        self.virtual = np.empty(0)
        self.tree: ClusterTree | None = None

    @property
    def num(self) -> int:
        return int(self.bubble_ids.shape[0])


class ClusterCache:
    """Version-keyed cache of the bubble clustering state.

    The key is the :attr:`BubbleSet.version` mutation counter: any
    mutation moves the version, and the refresh decides *how much* of the
    derived state that movement actually invalidates:

    * same version → **hit**: nothing recomputed, zero distances.
    * same non-empty id set → **repair**: only the touched rows/columns
      of the distance matrix and the cores they can actually affect are
      recomputed, then the ordering is walked once.
    * different id set (bubbles inserted/retired) → **rebuild**: full
      walk, but distance entries between surviving untouched bubbles are
      reused from the old matrix (bit-identical to recomputing them).
    * no prior state → **cold**.

    Every outcome yields state *exactly* equal to a cold fit of the
    current bubbles; the cache only changes how much work that takes.

    Args:
        min_pts: MinPts in points (summed over bubbles).
        eps: generating distance over bubble distances.
        counter: optional :class:`~repro.geometry.counting.DistanceCounter`
            that receives the honest matrix-level accounting (computed
            entries per refresh, reused entries as pruned).
    """

    def __init__(
        self,
        min_pts: int = 25,
        eps: float = np.inf,
        counter: DistanceCounter | None = None,
    ) -> None:
        if min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {min_pts}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self._min_pts = int(min_pts)
        self._eps = float(eps)
        self._counter = counter if counter is not None else DistanceCounter()
        self._state: _CacheState | None = None
        self.hits = 0
        self.repairs = 0
        self.rebuilds = 0
        self.cold_fits = 0

    @property
    def min_pts(self) -> int:
        return self._min_pts

    @property
    def eps(self) -> float:
        return self._eps

    @property
    def state(self) -> _CacheState | None:
        """The cached state (``None`` before the first refresh)."""
        return self._state

    def invalidate(self) -> None:
        """Drop the cached state entirely."""
        self._state = None

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    def refresh(
        self,
        bubbles: BubbleSet,
        extra_touched: Sequence[int] = (),
        non_empty: np.ndarray | None = None,
    ) -> tuple[_CacheState, str]:
        """Bring the cache up to date with ``bubbles``.

        Args:
            bubbles: the live bubble set.
            extra_touched: additional bubble ids known to have mutated
                (from maintainer batch callbacks). These are unioned with
                :meth:`BubbleSet.touched_since`, which is authoritative —
                the callbacks only ever narrow *nothing*, they are a
                second witness.
            non_empty: ``bubbles.non_empty_ids()`` as an int64 array, when
                the caller already has it; computed here otherwise.

        Returns:
            ``(state, source)`` with source one of ``"hit"``,
            ``"repair"``, ``"rebuild"``, ``"cold"``.
        """
        version = bubbles.version
        state = self._state
        if state is not None and state.version == version:
            self.hits += 1
            return state, "hit"

        if non_empty is None:
            non_empty = np.asarray(bubbles.non_empty_ids(), dtype=np.int64)
        # Every cached state has a plot: _rebuild and _repair both set it.
        if state is not None and np.array_equal(state.bubble_ids, non_empty):
            touched = bubbles.touched_since(state.version)
            touched.update(int(i) for i in extra_touched)
            self._repair(state, bubbles, touched)
            state.version = version
            self.repairs += 1
            return state, "repair"

        touched = (
            bubbles.touched_since(state.version)
            if state is not None
            else set()
        )
        touched.update(int(i) for i in extra_touched)
        fresh = self._rebuild(state, bubbles, non_empty, touched)
        fresh.version = version
        self._state = fresh
        if state is None:
            self.cold_fits += 1
            return fresh, "cold"
        self.rebuilds += 1
        return fresh, "rebuild"

    # ------------------------------------------------------------------
    # Feature gathering
    # ------------------------------------------------------------------
    def _refresh_features(
        self, state: _CacheState, bubbles: BubbleSet, compact: np.ndarray
    ) -> None:
        """Re-gather rep/extent/count/internal-core for ``compact`` rows."""
        counts, reps, extents, core = bubbles.features(
            state.bubble_ids[compact], self._min_pts
        )
        state.reps[compact] = reps
        state.extents[compact] = _sanitize_extents(extents)
        state.counts[compact] = counts
        state.internal_core[compact] = _sanitize_internal_cores(core)
        state.nn1[compact] = _nn_dist_arrays(
            state.counts[compact],
            state.extents[compact],
            state.reps.shape[1],
            k=1,
        )

    # ------------------------------------------------------------------
    # Rebuild (cold / id-set changed)
    # ------------------------------------------------------------------
    def _rebuild(
        self,
        old: _CacheState | None,
        bubbles: BubbleSet,
        non_empty: np.ndarray,
        touched: set[int],
    ) -> _CacheState:
        state = _CacheState()
        state.bubble_ids = non_empty
        state.id_to_compact = {
            int(bid): c for c, bid in enumerate(non_empty)
        }
        num = state.num
        if num == 0:
            state.plot = ReachabilityPlot(
                ordering=np.empty(0, dtype=np.int64),
                reachability=np.empty(0),
                core_distances=np.empty(0),
            )
            state.virtual = np.empty(0)
            return state

        state.reps = np.empty((num, bubbles.dim), dtype=np.float64)
        state.extents = np.empty(num)
        state.counts = np.empty(num, dtype=np.int64)
        state.internal_core = np.empty(num)
        state.nn1 = np.empty(num)
        self._refresh_features(state, bubbles, np.arange(num))

        # Distance matrix: reuse entries between surviving *untouched*
        # bubbles from the old matrix (bit-identical, per-pair values);
        # recompute rows for inserted and touched bubbles.
        state.dist = np.empty((num, num), dtype=np.float64)
        reuse_new = np.empty(0, dtype=np.int64)
        reuse_old = np.empty(0, dtype=np.int64)
        if old is not None and old.num > 0:
            pairs = [
                (c, old.id_to_compact[int(bid)])
                for c, bid in enumerate(non_empty)
                if int(bid) in old.id_to_compact
                and int(bid) not in touched
            ]
            if len(pairs) >= 2:
                reuse_new = np.asarray([p[0] for p in pairs], dtype=np.int64)
                reuse_old = np.asarray([p[1] for p in pairs], dtype=np.int64)
        reuse_set = set(int(c) for c in reuse_new)
        fresh_rows = np.asarray(
            [c for c in range(num) if c not in reuse_set], dtype=np.int64
        )
        if reuse_new.size:
            state.dist[np.ix_(reuse_new, reuse_new)] = old.dist[
                np.ix_(reuse_old, reuse_old)
            ]
        if fresh_rows.size:
            rows = bubble_distance_rows(
                fresh_rows, state.reps, state.extents, state.nn1
            )
            state.dist[fresh_rows, :] = rows
            state.dist[:, fresh_rows] = rows.T
        total_pairs = num * (num - 1) // 2
        reused_pairs = reuse_new.size * (reuse_new.size - 1) // 2
        self._counter.record_computed(total_pairs - reused_pairs)
        self._counter.record_pruned(reused_pairs)

        # Core distances up front: a bubble holding MinPts points is core
        # within itself; the rest go through the vectorised weighted
        # kernel over their (cached) distance rows.
        cores = np.where(
            state.counts >= self._min_pts, state.internal_core, np.inf
        )
        small = np.flatnonzero(state.counts < self._min_pts)
        if small.size:
            cores[small] = _weighted_cores(
                state.dist[small], state.counts, self._min_pts, self._eps
            )
        state.cores = cores
        state.plot = self._walk(state)
        state.virtual = self._virtual(state)
        return state

    def _walk(self, state: _CacheState) -> ReachabilityPlot:
        """One full walk over the cached matrix and cores."""
        dist, cores = state.dist, state.cores
        return run_optics(
            state.num,
            lambda obj: dist[obj],
            lambda obj, dists: float(cores[obj]),
            eps=self._eps,
        )

    # ------------------------------------------------------------------
    # Repair (same id set)
    # ------------------------------------------------------------------
    def _repair(
        self,
        state: _CacheState,
        bubbles: BubbleSet,
        touched_ids: set[int],
    ) -> None:
        """Refresh the touched rows and the cores they move, then re-walk.

        The walk is the one :meth:`_rebuild` ends with, so the repaired
        plot is exactly a cold walk of the repaired state; the repair
        saves the untouched distances and the untouched cores.
        """
        num = state.num
        if num == 0:
            # An empty set stayed empty across versions: the empty plot
            # is already exact, and a walk over zero objects is illegal.
            return
        touched_c = np.asarray(
            sorted(
                state.id_to_compact[int(i)]
                for i in touched_ids
                if int(i) in state.id_to_compact
            ),
            dtype=np.int64,
        )
        if touched_c.size == 0:
            # Every touched bubble is outside the clustered id set (all
            # empty): the cached plot is already exact, verbatim.
            self._counter.record_pruned(num * (num - 1) // 2)
            return

        # Snapshot the touched columns *before* overwriting them: the
        # core relevance test below needs both the old and new values.
        old_cols = state.dist[:, touched_c].copy()

        self._refresh_features(state, bubbles, touched_c)
        rows = bubble_distance_rows(
            touched_c, state.reps, state.extents, state.nn1
        )
        state.dist[touched_c, :] = rows
        state.dist[:, touched_c] = rows.T
        computed = touched_c.size * (num - touched_c.size)
        computed += touched_c.size * (touched_c.size - 1) // 2
        self._counter.record_computed(computed)
        self._counter.record_pruned(num * (num - 1) // 2 - computed)

        touched_mask = np.zeros(num, dtype=bool)
        touched_mask[touched_c] = True
        small = state.counts < self._min_pts
        # Touched rows: anything about them may have changed.
        t_big = touched_c[~small[touched_c]]
        t_small = touched_c[small[touched_c]]
        if t_big.size:
            state.cores[t_big] = state.internal_core[t_big]
        if t_small.size:
            state.cores[t_small] = _weighted_cores(
                state.dist[t_small], state.counts, self._min_pts, self._eps
            )
        # Untouched small rows: only their touched columns moved. If
        # every changed column value — old *and* new — sits strictly
        # above the old core, the (value, count) multiset up to the old
        # crossing is unchanged and the core stands. If the lowest of
        # them sits exactly on it, the mass strictly below the core is
        # still unchanged (and short of MinPts), so the core stands
        # while the mass at or below it still reaches MinPts — with
        # overlapping bubbles many distances tie at the core, so this
        # spares most recomputations. Otherwise recompute.
        cand = np.flatnonzero(small & ~touched_mask)
        if cand.size:
            core_c = state.cores[cand]
            changed_min = np.minimum(
                old_cols[cand], state.dist[np.ix_(cand, touched_c)]
            ).min(axis=1)
            stands = changed_min > core_c
            at = np.flatnonzero(changed_min == core_c)
            if at.size:
                within = state.dist[cand[at]] <= core_c[at, None]
                stands[at] = within @ state.counts >= self._min_pts
            redo = cand[~stands]
            if redo.size:
                state.cores[redo] = _weighted_cores(
                    state.dist[redo], state.counts, self._min_pts, self._eps
                )

        state.plot = self._walk(state)
        state.virtual = self._virtual(state)
        state.tree = None

    def _virtual(self, state: _CacheState) -> np.ndarray:
        """Virtual reachability per compact index (expansion estimate)."""
        virtual = state.cores.copy()
        fallback = ~np.isfinite(virtual) | (virtual <= 0.0)
        virtual[fallback] = state.extents[fallback]
        return virtual


# ----------------------------------------------------------------------
# Lineage
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LineageEvent:
    """One vineyard event: a leaf cluster appearing, moving, or dying.

    Attributes:
        kind: ``"born"``, ``"died"`` or ``"drifted"``.
        cluster_id: stable lineage id (persists across fits while the
            cluster keeps matching).
        fit_index: which observed fit produced the event (0-based).
        points: summarized points in the cluster at this fit (for
            ``died``, its size at the previous fit).
        gained_bubbles: bubble ids that joined since the previous fit.
        lost_bubbles: bubble ids that left since the previous fit.
    """

    kind: str
    cluster_id: int
    fit_index: int
    points: int
    gained_bubbles: tuple[int, ...] = ()
    lost_bubbles: tuple[int, ...] = ()


class ClusterLineage:
    """Matches leaf clusters across fits and records their life events.

    Leaves are identified by the set of bubble ids they span; across two
    fits, each new leaf greedily claims the previous leaf it shares the
    most summarized points with (every pair of leaves matched at most
    once). A matched leaf keeps its lineage id — identical membership is
    silent, changed membership is ``drifted``; an unmatched new leaf is
    ``born`` and an unclaimed previous leaf is ``died``.
    """

    def __init__(self) -> None:
        self._next_id = 0
        self._fit_index = -1
        self._previous: list[tuple[int, dict[int, int]]] = []
        self.events: list[LineageEvent] = []

    @property
    def fits_observed(self) -> int:
        """How many fits this lineage has seen."""
        return self._fit_index + 1

    @property
    def live_clusters(self) -> int:
        """Leaf clusters alive as of the last observed fit."""
        return len(self._previous)

    def observe(self, fit: "ClusterFit") -> list[LineageEvent]:
        """Fold one (full-quality) fit into the lineage.

        Returns:
            The events this fit produced, in cluster order.
        """
        self._fit_index += 1
        current: list[dict[int, int]] = []
        ordering = fit.plot.ordering
        for leaf in fit.tree.leaves():
            if leaf.end <= leaf.start:
                continue
            members = {
                int(fit.bubble_ids[c]): int(fit.counts[c])
                for c in ordering[leaf.start : leaf.end]
            }
            current.append(members)

        overlaps: list[tuple[int, int, int]] = []
        for new_i, members in enumerate(current):
            for prev_i, (_, prev_members) in enumerate(self._previous):
                shared = sum(
                    count
                    for bid, count in members.items()
                    if bid in prev_members
                )
                if shared > 0:
                    overlaps.append((shared, new_i, prev_i))
        overlaps.sort(key=lambda item: (-item[0], item[1], item[2]))
        new_to_prev: dict[int, int] = {}
        claimed_prev: set[int] = set()
        for _, new_i, prev_i in overlaps:
            if new_i in new_to_prev or prev_i in claimed_prev:
                continue
            new_to_prev[new_i] = prev_i
            claimed_prev.add(prev_i)

        produced: list[LineageEvent] = []
        next_previous: list[tuple[int, dict[int, int]]] = []
        for new_i, members in enumerate(current):
            points = sum(members.values())
            if new_i in new_to_prev:
                lineage_id, prev_members = self._previous[
                    new_to_prev[new_i]
                ]
                gained = tuple(
                    sorted(b for b in members if b not in prev_members)
                )
                lost = tuple(
                    sorted(b for b in prev_members if b not in members)
                )
                if gained or lost:
                    produced.append(
                        LineageEvent(
                            kind="drifted",
                            cluster_id=lineage_id,
                            fit_index=self._fit_index,
                            points=points,
                            gained_bubbles=gained,
                            lost_bubbles=lost,
                        )
                    )
            else:
                lineage_id = self._next_id
                self._next_id += 1
                produced.append(
                    LineageEvent(
                        kind="born",
                        cluster_id=lineage_id,
                        fit_index=self._fit_index,
                        points=points,
                        gained_bubbles=tuple(sorted(members)),
                    )
                )
            next_previous.append((lineage_id, members))
        for prev_i, (lineage_id, prev_members) in enumerate(
            self._previous
        ):
            if prev_i not in claimed_prev:
                produced.append(
                    LineageEvent(
                        kind="died",
                        cluster_id=lineage_id,
                        fit_index=self._fit_index,
                        points=sum(prev_members.values()),
                        lost_bubbles=tuple(sorted(prev_members)),
                    )
                )
        self._previous = next_previous
        self.events.extend(produced)
        return produced


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StageResult:
    """One completed anytime stage."""

    size: int
    quality: float
    elapsed_seconds: float


@dataclass(frozen=True)
class ClusterFit:
    """One clustering answer: plot + tree + provenance.

    Attributes:
        version: the ``BubbleSet.version`` this fit reflects.
        bubble_ids: compact index → bubble id for the clustered subset.
        counts: per compact index, summarized points.
        virtual_reachability: per compact index, the expansion estimate.
        plot: the reachability plot over compact indices.
        tree: the extracted cluster tree over ordering positions.
        source: ``"hit"``, ``"repair"``, ``"rebuild"``, ``"cold"``,
            ``"anytime"`` or ``"empty"``.
        quality: fraction of all summarized points covered by the
            clustered subset (1.0 for complete fits).
        stages: completed anytime stages (empty for direct fits).
        elapsed_seconds: wall time by the clusterer's clock.
    """

    version: int
    bubble_ids: np.ndarray
    counts: np.ndarray
    virtual_reachability: np.ndarray
    plot: ReachabilityPlot
    tree: ClusterTree
    source: str
    quality: float
    stages: tuple[StageResult, ...] = ()
    elapsed_seconds: float = 0.0

    @property
    def num_bubbles(self) -> int:
        return int(self.bubble_ids.shape[0])

    @property
    def splice(self) -> None:
        """Always ``None``: a repair re-walks and replays nothing.

        Read-only; perfbench's ledger reads it to report
        ``cluster.spliced_frac``.
        """
        return None

    def expanded(self) -> ExpandedPlot:
        """One plot entry per summarized point, attributed to bubble ids."""
        raw = self.plot.expand(self.counts, self.virtual_reachability)
        return ExpandedPlot(
            reachability=raw.reachability,
            source=self.bubble_ids[raw.source],
        )


def _empty_tree() -> ClusterTree:
    return ClusterTree(root=ClusterNode(start=0, end=0))


# ----------------------------------------------------------------------
# Clusterer
# ----------------------------------------------------------------------
class IncrementalClusterer:
    """Anytime "cluster me now" answers over a maintained bubble set.

    Wraps a :class:`ClusterCache` with tree extraction, deadline-bounded
    staged refinement, lineage tracking, and observability. One
    clusterer serves one bubble set (one tenant); the service layer
    holds one per shard.

    Args:
        min_pts: MinPts in points.
        eps: generating distance over bubble distances.
        min_size: smallest admissible cluster, in *bubbles*, for tree
            extraction (bubbles stand for many points, so 2 is already
            selective).
        significance: split-significance threshold for tree extraction.
        counter: shared distance counter for honest accounting.
        obs: observability handle (metrics + spans); ``None`` disables.
        clock: monotonic-seconds callable; injectable for deterministic
            deadline tests.
    """

    #: Smallest first anytime stage, in bubbles.
    FIRST_STAGE_BUBBLES = 64
    #: Growth factor between anytime stages.
    STAGE_GROWTH = 4

    def __init__(
        self,
        min_pts: int = 25,
        eps: float = np.inf,
        min_size: int = 2,
        significance: float = 0.75,
        counter: DistanceCounter | None = None,
        obs=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if min_size < 1:
            raise ValueError(f"min_size must be >= 1, got {min_size}")
        self._cache = ClusterCache(
            min_pts=min_pts, eps=eps, counter=counter
        )
        self._min_size = int(min_size)
        self._significance = float(significance)
        self._obs = obs
        self._clock = clock
        self._lineage = ClusterLineage()
        self._attached: list[tuple[object, Callable]] = []
        self._callback_touched: set[int] = set()
        self.last_fit: ClusterFit | None = None
        if obs is not None:
            self._create_metric_handles(obs)

    def _create_metric_handles(self, obs) -> None:
        m = obs.metrics
        self._m_fits = m.counter(
            "repro_cluster_fits_total",
            help="Clustering fits served (all sources).",
        )
        self._m_hits = m.counter(
            "repro_cluster_cache_hits_total",
            help="Fits answered from the version-keyed cache unchanged.",
        )
        self._m_repairs = m.counter(
            "repro_cluster_repairs_total",
            help="Fits served by incremental reachability repair.",
        )
        self._m_rebuilds = m.counter(
            "repro_cluster_rebuilds_total",
            help="Fits that re-walked from scratch (cold or id-set "
            "change).",
        )
        self._m_stages = m.counter(
            "repro_cluster_anytime_stages_total",
            help="Anytime refinement stages completed under a deadline.",
        )
        self._m_lineage = m.counter(
            "repro_cluster_lineage_events_total",
            help="Cluster lineage events recorded (born/died/drifted).",
        )
        self._m_fit_seconds = m.timer(
            "repro_cluster_fit_seconds",
            help="End-to-end latency of one clustering fit.",
        )
        self._g_leaves = m.gauge(
            "repro_cluster_leaves",
            help="Leaf clusters in the most recent full-quality tree.",
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cache(self) -> ClusterCache:
        """The underlying version-keyed cache."""
        return self._cache

    @property
    def lineage(self) -> ClusterLineage:
        """The cluster lineage across observed full-quality fits."""
        return self._lineage

    @property
    def min_pts(self) -> int:
        return self._cache.min_pts

    def stats(self) -> dict:
        """One rollup row for service shard stats."""
        cache = self._cache
        last = self.last_fit
        return {
            "fits": cache.hits
            + cache.repairs
            + cache.rebuilds
            + cache.cold_fits,
            "cache_hits": cache.hits,
            "repairs": cache.repairs,
            "rebuilds": cache.rebuilds + cache.cold_fits,
            "last_source": last.source if last is not None else None,
            "last_quality": last.quality if last is not None else None,
            "last_leaves": (
                len(last.tree.leaves()) if last is not None else 0
            ),
            "lineage_events": len(self._lineage.events),
            "live_clusters": self._lineage.live_clusters,
        }

    # ------------------------------------------------------------------
    # Maintainer wiring
    # ------------------------------------------------------------------
    def attach(self, maintainer) -> None:
        """Subscribe to a maintainer's batch callbacks.

        Each applied batch eagerly marks its rebuilt bubbles as touched,
        so a later :meth:`fit` repairs exactly those rows even if the
        mutation log has been compacted. ``BubbleSet.touched_since``
        remains the authoritative source; the callback is a second
        witness, never a narrower one.
        """

        def _on_batch(batch, report) -> None:
            self._callback_touched.update(
                int(b) for b in report.rebuilt_bubbles
            )

        maintainer.add_batch_callback(_on_batch)
        self._attached.append((maintainer, _on_batch))

    def detach(self, maintainer) -> None:
        """Unsubscribe from a maintainer attached via :meth:`attach`."""
        for i, (owner, callback) in enumerate(self._attached):
            if owner is maintainer:
                maintainer.remove_batch_callback(callback)
                del self._attached[i]
                return

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        bubbles: BubbleSet,
        deadline_seconds: float | None = None,
    ) -> ClusterFit:
        """Cluster the current bubbles, as incrementally as possible.

        Args:
            bubbles: the live bubble set.
            deadline_seconds: soft wall-clock budget. ``None`` computes
                the complete answer directly. With a deadline, and when
                no cached state can be repaired, the fit runs *anytime*:
                nested subsets of the bubbles (largest point counts
                first) are clustered in stages of growing size, and the
                best tree completed inside the budget is returned. A
                valid tree is always produced — the first stage never
                yields to the deadline.

        Returns:
            A :class:`ClusterFit`; ``quality == 1.0`` means it covers
            every summarized point.
        """
        started = self._clock()
        with maybe_span(
            self._obs,
            "cluster_fit",
            bubbles=len(bubbles),
            deadline_seconds=deadline_seconds or 0.0,
        ):
            fit = self._fit_inner(bubbles, deadline_seconds, started)
        elapsed = self._clock() - started
        fit = _with_elapsed(fit, elapsed)
        self.last_fit = fit
        if self._obs is not None:
            self._m_fits.inc()
            if fit.source == "hit":
                self._m_hits.inc()
            elif fit.source == "repair":
                self._m_repairs.inc()
            elif fit.source in ("rebuild", "cold"):
                self._m_rebuilds.inc()
            self._m_fit_seconds.observe(elapsed)
            if fit.stages:
                self._m_stages.inc(len(fit.stages))
            if fit.quality >= 1.0:
                self._g_leaves.set(len(fit.tree.leaves()))
        if fit.quality >= 1.0 and fit.num_bubbles > 0:
            events = self._lineage.observe(fit)
            if self._obs is not None and events:
                self._m_lineage.inc(len(events))
        return fit

    def _fit_inner(
        self,
        bubbles: BubbleSet,
        deadline_seconds: float | None,
        started: float,
    ) -> ClusterFit:
        cache = self._cache
        state = cache.state
        version = bubbles.version
        if state is not None and state.version == version:
            cache.hits += 1
            return self._fit_from_state(state, "hit")

        non_empty = np.asarray(bubbles.non_empty_ids(), dtype=np.int64)
        repairable = state is not None and np.array_equal(
            state.bubble_ids, non_empty
        )
        if deadline_seconds is not None and not repairable:
            return self._fit_anytime(bubbles, deadline_seconds, started)

        extra = tuple(self._callback_touched)
        if repairable:
            with maybe_span(
                self._obs, "cluster_repair", touched=len(extra)
            ):
                state, source = cache.refresh(
                    bubbles, extra_touched=extra, non_empty=non_empty
                )
        else:
            state, source = cache.refresh(
                bubbles, extra_touched=extra, non_empty=non_empty
            )
        self._callback_touched.clear()
        return self._fit_from_state(state, source)

    def _fit_from_state(
        self, state: _CacheState, source: str
    ) -> ClusterFit:
        if state.num == 0:
            return ClusterFit(
                version=state.version,
                bubble_ids=state.bubble_ids,
                counts=state.counts,
                virtual_reachability=state.virtual,
                plot=state.plot,
                tree=_empty_tree(),
                source="empty",
                quality=1.0,
            )
        if state.tree is None:
            state.tree = extract_cluster_tree(
                state.plot.reachability,
                min_size=self._min_size,
                significance=self._significance,
            )
        return ClusterFit(
            version=state.version,
            bubble_ids=state.bubble_ids,
            counts=state.counts,
            virtual_reachability=state.virtual,
            plot=state.plot,
            tree=state.tree,
            source=source,
            quality=1.0,
        )

    # ------------------------------------------------------------------
    # Anytime staged fitting
    # ------------------------------------------------------------------
    def _stage_sizes(self, num: int) -> list[int]:
        sizes: list[int] = []
        size = min(self.FIRST_STAGE_BUBBLES, num)
        while size < num:
            sizes.append(size)
            size *= self.STAGE_GROWTH
        sizes.append(num)
        return sizes

    def _fit_anytime(
        self,
        bubbles: BubbleSet,
        deadline_seconds: float,
        started: float,
    ) -> ClusterFit:
        non_empty = np.asarray(bubbles.non_empty_ids(), dtype=np.int64)
        num = int(non_empty.shape[0])
        if num == 0:
            state, source = self._cache.refresh(bubbles, non_empty=non_empty)
            return self._fit_from_state(state, source)

        counts_all = bubbles.counts()[non_empty]
        total_points = int(counts_all.sum())
        # Largest bubbles first: each stage's subset nests in the next,
        # so covered-points quality is monotone by construction.
        by_weight = np.argsort(-counts_all, kind="stable")

        stages: list[StageResult] = []
        best: ClusterFit | None = None
        for size in self._stage_sizes(num):
            if stages and self._clock() - started >= deadline_seconds:
                break
            if size == num:
                extra = tuple(self._callback_touched)
                with maybe_span(self._obs, "cluster_stage", size=size):
                    state, source = self._cache.refresh(
                        bubbles, extra_touched=extra, non_empty=non_empty
                    )
                self._callback_touched.clear()
                fit = self._fit_from_state(state, source)
                quality = 1.0
            else:
                subset = np.sort(by_weight[:size])
                with maybe_span(self._obs, "cluster_stage", size=size):
                    fit = self._subset_fit(
                        bubbles, non_empty[subset], counts_all[subset]
                    )
                quality = (
                    float(counts_all[subset].sum()) / total_points
                    if total_points
                    else 1.0
                )
            stages.append(
                StageResult(
                    size=size,
                    quality=quality,
                    elapsed_seconds=self._clock() - started,
                )
            )
            best = fit
        assert best is not None
        return ClusterFit(
            version=best.version,
            bubble_ids=best.bubble_ids,
            counts=best.counts,
            virtual_reachability=best.virtual_reachability,
            plot=best.plot,
            tree=best.tree,
            source="anytime" if best.quality < 1.0 or len(stages) > 1
            else best.source,
            quality=stages[-1].quality,
            stages=tuple(stages),
        )

    def _subset_fit(
        self,
        bubbles: BubbleSet,
        subset_ids: np.ndarray,
        subset_counts: np.ndarray,
    ) -> ClusterFit:
        """A complete cold fit of one bubble subset (no caching)."""
        num = int(subset_ids.shape[0])
        _, reps, extents, core = bubbles.features(subset_ids, self.min_pts)
        extents = _sanitize_extents(extents)
        internal_core = _sanitize_internal_cores(core)
        from .bubble_optics import optics_over_summaries

        plot = optics_over_summaries(
            reps,
            extents,
            subset_counts,
            internal_core,
            min_pts=self.min_pts,
            eps=self._cache.eps,
        )
        self._cache._counter.record_computed(num * (num - 1) // 2)
        virtual = plot.core_distances.copy()
        fallback = ~np.isfinite(virtual) | (virtual <= 0.0)
        virtual[fallback] = extents[fallback]
        tree = extract_cluster_tree(
            plot.reachability,
            min_size=self._min_size,
            significance=self._significance,
        )
        return ClusterFit(
            version=-1,
            bubble_ids=subset_ids,
            counts=subset_counts,
            virtual_reachability=virtual,
            plot=plot,
            tree=tree,
            source="anytime",
            quality=0.0,
        )


def _with_elapsed(fit: ClusterFit, elapsed: float) -> ClusterFit:
    """Stamp the elapsed time onto a (frozen) fit."""
    return ClusterFit(
        version=fit.version,
        bubble_ids=fit.bubble_ids,
        counts=fit.counts,
        virtual_reachability=fit.virtual_reachability,
        plot=fit.plot,
        tree=fit.tree,
        source=fit.source,
        quality=fit.quality,
        stages=fit.stages,
        elapsed_seconds=elapsed,
    )
