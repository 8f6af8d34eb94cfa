"""Incremental, anytime OPTICS over data bubbles.

The paper makes *summarization* incremental; this module makes the
*clustering on top of it* incremental too. Three pieces:

**ClusterCache** — derived clustering state keyed on
:attr:`BubbleSet.version <repro.core.bubble_set.BubbleSet.version>`: the
bubble feature arrays, the K×K bubble distance matrix, the core-distance
vector, and the last reachability plot. Every refresh runs one update.
A row whose bubble was clustered before and not touched since
(absorb/release/reseed/split/merge — all surfaced by
:meth:`BubbleSet.touched_since
<repro.core.bubble_set.BubbleSet.touched_since>`) is *kept*: its
features and its distances to the other kept rows carry over. Every
other row — touched, or new to the id set — is *fresh*: its distance row
is bit-identical to a cold build (see
:func:`~repro.clustering.bubble_optics.bubble_distance_rows`). Every
core is derived as a cold fit derives it, and one walk of the updated
matrix equals a from-scratch :func:`~repro.clustering.engine.run_optics`
**exactly** — same ordering, same reachability floats, same cores.

**Anytime mode** — ``fit(deadline_seconds=...)`` clusters nested subsets
of the bubbles (largest point counts first), yielding a valid — coarse —
:class:`~repro.clustering.cluster_tree.ClusterTree` after the first
stage and refining while the deadline allows. Each subset stage is the
same update with no prior state, kept out of the cache. Quality (the
fraction of summarized points covered by the clustered subset) is
monotone over stages by construction. The clock is injectable, which
makes deadline behaviour deterministic under test.

**ClusterLineage** — vineyard-style tracking of leaf clusters across
fits: clusters are matched by shared summarized points, and ``born`` /
``died`` / ``drifted`` events record how the hierarchy deforms as the
window slides.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..core.bubble_set import BubbleSet
from ..geometry.counting import DistanceCounter
from ..observability.spans import maybe_span
from .bubble_optics import (
    _MATRIX_BLOCK_ROWS,
    _clamp_extents,
    _clamp_internal_cores,
    _nn_dist_arrays,
    _virtual_reachability,
    bubble_distance_rows,
)
from .cluster_tree import ClusterNode, ClusterTree
from .engine import OpticsWalk
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
# Weighted core distances, many rows at once
# ----------------------------------------------------------------------
def _weighted_cores(
    rows: np.ndarray, counts: np.ndarray, min_pts: int
) -> np.ndarray:
    """Weighted core distances for a ``(m, K)`` batch of distance rows.

    Float-for-float equal to the per-object computation in
    :func:`~repro.clustering.bubble_optics.optics_over_summaries`: the
    core distance is the row value at which the cumulative point count
    (ascending by distance) first reaches ``min_pts``, and ``inf`` for a
    row that never reaches it. That *value* is invariant to how equal
    distances are ordered — the cumulative count crossing lands inside
    an equal-value block wherever its members sit — so an
    ``argpartition`` head (grown geometrically for rows whose head does
    not yet hold ``min_pts`` points) computes the same float as the
    reference's full stable argsort.
    """
    num_rows, num_cols = rows.shape
    result = np.full(num_rows, np.inf)
    pending = np.arange(num_rows)
    head = min(32, num_cols)
    sub = rows
    while True:
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
        pending = pending[~has]
        if head >= num_cols or not pending.size:
            return result  # rows that never cross stay inf
        head = min(head * 4, num_cols)
        sub = rows[pending]


# ----------------------------------------------------------------------
# Cached state
# ----------------------------------------------------------------------
class _CacheState:
    """Everything derived from one ``(BubbleSet.version, id set)``."""

    __slots__ = (
        "version",
        "bubble_ids",
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

    #: The per-row arrays a kept row carries over to a new state.
    ROWS = ("reps", "extents", "counts", "internal_core", "nn1")

    def __init__(self) -> None:
        self.version: int = -1
        self.bubble_ids = np.empty(0, dtype=np.int64)
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
    * same non-empty id set → **repair**: the cached state is updated in
      place.
    * different id set (bubbles inserted/retired) → **rebuild**: the
      update fills a new state.
    * no prior state → **cold**: every row is computed.

    Repairs, rebuilds and cold fits are one update (:meth:`_update`): a
    bubble clustered before and not touched since keeps its features
    and its distances to the other such bubbles; the other distances
    and every core are recomputed, and one walk orders the result (the
    complete ordering, generating distance ``inf``). Every outcome
    yields state *exactly* equal to a cold fit of the current bubbles;
    the cache only changes how much work that takes.

    Args:
        min_pts: MinPts in points (summed over bubbles).
        counter: optional :class:`~repro.geometry.counting.DistanceCounter`
            that receives the honest matrix-level accounting (computed
            entries per refresh, reused entries as pruned).
    """

    def __init__(
        self,
        min_pts: int = 25,
        counter: DistanceCounter | None = None,
    ) -> None:
        if min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {min_pts}")
        self._min_pts = int(min_pts)
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
        non_empty: np.ndarray | None = None,
    ) -> tuple[_CacheState, str]:
        """Bring the cache up to date with ``bubbles``.

        The bubbles touched since the cached state are read from
        :meth:`BubbleSet.touched_since`, which keeps one version per
        bubble and so names every bubble a batch mutated.

        Args:
            bubbles: the live bubble set.
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
        touched = (
            bubbles.touched_since(state.version)
            if state is not None
            else set()
        )
        state, source = self._update(state, bubbles, non_empty, touched)
        state.version = version
        self._state = state
        if source == "repair":
            self.repairs += 1
        elif source == "rebuild":
            self.rebuilds += 1
        else:
            self.cold_fits += 1
        return state, source

    # ------------------------------------------------------------------
    # The update
    # ------------------------------------------------------------------
    def _update(
        self,
        old: _CacheState | None,
        bubbles: BubbleSet,
        ids: np.ndarray,
        touched: set[int],
    ) -> tuple[_CacheState, str]:
        """Derive the state of ``ids`` (sorted bubble ids) from ``old``.

        A row is *kept* when its bubble is in both id sets and not in
        ``touched``: it keeps ``old``'s features and its distances to the
        other kept rows. Every other row is *fresh* and recomputed. The
        state is ``old`` itself when the id set is unchanged
        (``"repair"``), a new one otherwise (``"rebuild"``, or ``"cold"``
        without ``old``). Unless no row is fresh, every core is derived
        anew and the update ends with the one walk a cold fit ends with.
        """
        num = int(ids.shape[0])
        kept = np.zeros(num, dtype=bool)
        if old is not None and old.num:
            where = np.minimum(
                old.bubble_ids.searchsorted(ids), old.num - 1
            )
            kept = old.bubble_ids[where] == ids
        same = old is not None and old.num == num and bool(kept.all())
        if touched and kept.any():
            t = np.fromiter(touched, dtype=np.int64, count=len(touched))
            at = np.minimum(ids.searchsorted(t), num - 1)
            kept[at[ids[at] == t]] = False
        keep = np.flatnonzero(kept)
        fresh = np.flatnonzero(~kept)
        kept_pairs = keep.size * (keep.size - 1) // 2
        self._counter.record_computed(num * (num - 1) // 2 - kept_pairs)
        self._counter.record_pruned(kept_pairs)
        if same and not fresh.size:
            # Only bubbles outside the id set (all empty) were touched:
            # the cached plot is already exact, verbatim.
            return old, "repair"

        if same:
            state, source = old, "repair"
            # A fit handed out earlier holds the counts array: the
            # refreshed features go into a new one.
            state.counts = state.counts.copy()
        else:
            state = _CacheState()
            state.bubble_ids = ids
            state.reps = np.empty((num, bubbles.dim))
            state.counts = np.empty(num, dtype=np.int64)
            state.extents, state.internal_core, state.nn1 = (
                np.empty(num) for _ in range(3)
            )
            state.dist = np.empty((num, num))
            if keep.size:
                src = where[keep]
                for name in _CacheState.ROWS:
                    getattr(state, name)[keep] = getattr(old, name)[src]
                state.dist[np.ix_(keep, keep)] = old.dist[np.ix_(src, src)]
            source = "cold" if old is None else "rebuild"

        if fresh.size:
            self._refresh_features(state, bubbles, fresh)
        for lo in range(0, fresh.size, _MATRIX_BLOCK_ROWS):
            block = fresh[lo : lo + _MATRIX_BLOCK_ROWS]
            rows = bubble_distance_rows(
                block, state.reps, state.extents, state.nn1
            )
            state.dist[block, :] = rows
            state.dist[:, block] = rows.T

        # One core rule, as a cold fit applies it: a bubble holding
        # MinPts points is core within itself, and every other bubble's
        # core is the weighted crossing of its distance row.
        small = (state.counts < self._min_pts).nonzero()[0]
        state.cores = state.internal_core.copy()
        state.cores[small] = _weighted_cores(
            state.dist[small], state.counts, self._min_pts
        )
        state.plot = self._walk(state)
        state.virtual = _virtual_reachability(state.cores, state.extents)
        state.tree = None
        return state, source

    def _refresh_features(
        self, state: _CacheState, bubbles: BubbleSet, compact: np.ndarray
    ) -> None:
        """Re-gather rep/extent/count/internal-core for ``compact`` rows."""
        counts, reps, extents, core = bubbles.features(
            state.bubble_ids[compact], self._min_pts
        )
        state.reps[compact] = reps
        state.extents[compact] = _clamp_extents(extents)
        state.counts[compact] = counts
        state.internal_core[compact] = _clamp_internal_cores(core)
        state.nn1[compact] = _nn_dist_arrays(
            state.counts[compact],
            state.extents[compact],
            state.reps.shape[1],
            k=1,
        )

    def _walk(self, state: _CacheState) -> ReachabilityPlot:
        """One full walk over the cached matrix and cores."""
        if state.num == 0:
            # A walk over zero objects is illegal; the empty plot is exact.
            return ReachabilityPlot(
                ordering=np.empty(0, dtype=np.int64),
                reachability=np.empty(0),
                core_distances=np.empty(0),
            )
        return OpticsWalk(state.dist, state.cores).run()


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
        ordering = fit.plot.ordering
        ids = fit.bubble_ids[ordering].tolist()
        counts = fit.counts[ordering].tolist()
        current: list[dict[int, int]] = []
        for leaf in fit.tree.leaves():
            if leaf.end > leaf.start:
                span = slice(leaf.start, leaf.end)
                current.append(dict(zip(ids[span], counts[span])))

        # Leaves are disjoint, so each bubble lies in one previous leaf.
        prev_leaf = {
            bid: prev_i
            for prev_i, (_, prev_members) in enumerate(self._previous)
            for bid in prev_members
        }
        shared: dict[tuple[int, int], int] = {}
        for new_i, members in enumerate(current):
            for bid, count in members.items():
                prev_i = prev_leaf.get(bid)
                if prev_i is not None:
                    pair = (new_i, prev_i)
                    shared[pair] = shared.get(pair, 0) + count
        overlaps = [
            (points, new_i, prev_i)
            for (new_i, prev_i), points in shared.items()
            if points > 0
        ]
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

    A fit is a value: later fits never write into its arrays (a hit
    hands out the same ones again).

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
        min_size: int = 2,
        significance: float = 0.75,
        counter: DistanceCounter | None = None,
        obs=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if min_size < 1:
            raise ValueError(f"min_size must be >= 1, got {min_size}")
        self._cache = ClusterCache(min_pts=min_pts, counter=counter)
        self._min_size = int(min_size)
        self._significance = float(significance)
        self._obs = obs
        self._clock = clock
        self._lineage = ClusterLineage()
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
        self._m_distance_computed = m.counter(
            "repro_distance_computed_total",
            help="Distance computations executed (DistanceCounter; "
            "Figures 10-11).",
        )
        self._m_distance_pruned = m.counter(
            "repro_distance_pruned_total",
            help="Distance computations avoided via Lemma 1 "
            "(DistanceCounter; Figures 10-11).",
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
        """A no-op: a fit needs no subscription to the maintainer.

        Every fit reads the touched bubbles from
        :meth:`BubbleSet.touched_since`, which names every bubble a
        batch mutated. The method stays only because perfbench's
        ``cluster_live`` workload calls it.
        """

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
        if self._obs is not None:
            before = self._cache._counter.snapshot()
        with maybe_span(
            self._obs,
            "cluster_fit",
            bubbles=len(bubbles),
            deadline_seconds=deadline_seconds or 0.0,
        ):
            fit = self._fit_inner(bubbles, deadline_seconds, started)
        elapsed = self._clock() - started
        fit = replace(fit, elapsed_seconds=elapsed)
        self.last_fit = fit
        if self._obs is not None:
            # The fit's counter delta feeds the registry, as a batch's
            # does, so the registry stays in lockstep with the counter.
            delta = self._cache._counter.snapshot() - before
            self._m_distance_computed.inc(delta.computed)
            self._m_distance_pruned.inc(delta.pruned)
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
            return self._fit_anytime(
                bubbles, non_empty, deadline_seconds, started
            )
        with maybe_span(
            self._obs if repairable else None, "cluster_repair"
        ):
            state, source = cache.refresh(bubbles, non_empty=non_empty)
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
        non_empty: np.ndarray,
        deadline_seconds: float,
        started: float,
    ) -> ClusterFit:
        num = int(non_empty.shape[0])
        if num == 0:
            return self._fit_from_state(
                *self._cache.refresh(bubbles, non_empty=non_empty)
            )

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
            with maybe_span(self._obs, "cluster_stage", size=size):
                if size == num:
                    state, source = self._cache.refresh(
                        bubbles, non_empty=non_empty
                    )
                    quality = 1.0
                else:
                    # A subset stage is the cache's update from nothing,
                    # kept out of the cache.
                    subset = np.sort(by_weight[:size])
                    state, _ = self._cache._update(
                        None, bubbles, non_empty[subset], set()
                    )
                    source = "anytime"
                    quality = float(counts_all[subset].sum()) / total_points
                best = self._fit_from_state(state, source)
            stages.append(
                StageResult(
                    size=size,
                    quality=quality,
                    elapsed_seconds=self._clock() - started,
                )
            )
        assert best is not None
        return replace(
            best,
            source="anytime" if len(stages) > 1 else best.source,
            quality=stages[-1].quality,
            stages=tuple(stages),
        )
