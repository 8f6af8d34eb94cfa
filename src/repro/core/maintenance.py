"""Incremental maintenance of a data-bubble summary (Section 4, Figure 3).

:class:`IncrementalMaintainer` owns a :class:`~repro.core.bubble_set.BubbleSet`
and keeps it synchronized with a dynamic :class:`~repro.database.PointStore`
across batches of updates:

1. **Deletions** decrement the sufficient statistics of each deleted
   point's owning bubble — ``(n, LS, SS) → (n-1, LS-p, SS-p·p)`` — an O(d)
   update per point with *zero* distance computations (ownership is looked
   up, not searched).
2. **Insertions** assign each new point to its closest bubble
   (triangle-inequality pruned) and increment that bubble's statistics.
3. **Quality control**: the configured quality measure (β by default)
   classifies all bubbles; every over-filled bubble is rebuilt by a
   synchronized merge/split with a donor — an under-filled bubble when one
   exists, otherwise the lowest-quality good bubble (Section 4.2).

Every batch returns a :class:`BatchReport` carrying the bookkeeping the
experiments need: how many bubbles were rebuilt (Figure 9), how many
distance computations were spent and pruned (Figures 10–11).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..database import PointStore, UpdateBatch
from ..exceptions import InvalidPointError, UnknownPointError
from ..geometry import DistanceCounter
from ..observability import Observability
from ..observability.spans import maybe_span
from ..types import BubbleId
from .assignment import Assigner, AssignerCache
from .bubble_set import BubbleSet
from .config import DonorPolicy, MaintenanceConfig
from .quality import BetaQuality, BubbleClass, QualityMeasure, QualityReport
from .split_merge import RebuildOutcome, rebuild_pair

__all__ = ["IncrementalMaintainer", "BatchReport"]


@dataclass(frozen=True)
class BatchReport:
    """What one :meth:`IncrementalMaintainer.apply_batch` call did.

    Attributes:
        num_deletions: points removed from the database in this batch.
        num_insertions: points added to the database in this batch.
        num_over_filled: over-filled bubbles found in the *first*
            classification pass (before any rebuilds).
        num_under_filled: under-filled bubbles found in the first pass.
        rebuilt_bubbles: ids of all bubbles touched by merge/split this
            batch (donors and split bubbles alike) — the numerator of
            Figure 9's rebuilt-percentage.
        rounds_run: classification → merge/split passes executed.
        computed_distances: distance computations spent by this batch.
        pruned_distances: distance computations avoided by Lemma 1.
        insertion_pruned_fraction: pruning rate of the insertion
            assignments only (the Figure 10 quantity).
    """

    num_deletions: int
    num_insertions: int
    num_over_filled: int
    num_under_filled: int
    rebuilt_bubbles: tuple[BubbleId, ...]
    rounds_run: int
    computed_distances: int
    pruned_distances: int
    insertion_pruned_fraction: float

    @property
    def num_rebuilt(self) -> int:
        """How many distinct bubbles were rebuilt."""
        return len(self.rebuilt_bubbles)

    @property
    def pruned_fraction(self) -> float:
        """Overall fraction of distance computations avoided this batch."""
        considered = self.computed_distances + self.pruned_distances
        if considered == 0:
            return 0.0
        return self.pruned_distances / considered


class IncrementalMaintainer:
    """Keeps a bubble summary in sync with a dynamic database.

    Args:
        bubbles: the summary to maintain (typically fresh from
            :class:`~repro.core.builder.BubbleBuilder`).
        store: the database the summary describes. Ownership records in the
            store must already match ``bubbles`` (the builder guarantees
            this).
        config: maintenance parameters (Chebyshev probability, donor
            policy, split strategy, pruning, rebuild rounds).
        quality: quality-measure strategy; defaults to the paper's β
            measure at ``config.probability``. Pass
            :class:`~repro.core.extent_quality.ExtentQuality` to reproduce
            the failing baseline of Figure 7.
        counter: shared distance counter; a private one is created when
            omitted.
        obs: observability handle receiving maintenance metrics and
            events; ``None`` (the default) disables instrumentation — the
            hot paths then pay nothing.
    """

    def __init__(
        self,
        bubbles: BubbleSet,
        store: PointStore,
        config: MaintenanceConfig | None = None,
        quality: QualityMeasure | None = None,
        counter: DistanceCounter | None = None,
        obs: Observability | None = None,
    ) -> None:
        self._bubbles = bubbles
        self._store = store
        self._config = config if config is not None else MaintenanceConfig()
        self._quality = (
            quality
            if quality is not None
            else BetaQuality(self._config.probability)
        )
        self._counter = counter if counter is not None else DistanceCounter()
        self._rng = np.random.default_rng(self._config.seed)
        self._assigner_cache = AssignerCache()
        self._obs = obs
        self._prev_classes: tuple[BubbleClass, ...] | None = None
        self._last_report: QualityReport | None = None
        if obs is not None:
            self._create_metric_handles(obs)

    def _create_metric_handles(self, obs: Observability) -> None:
        m = obs.metrics
        self._m_batches = m.counter(
            "repro_maintenance_batches_total",
            help="Update batches applied by the maintainer.",
        )
        self._m_batch_seconds = m.timer(
            "repro_maintenance_batch_seconds",
            help="End-to-end latency of one maintenance batch.",
        )
        self._m_deletions = m.counter(
            "repro_maintenance_deletions_total",
            help="Points deleted through the maintainer.",
            unit="points",
        )
        self._m_insertions = m.counter(
            "repro_maintenance_insertions_total",
            help="Points inserted through the maintainer.",
            unit="points",
        )
        self._m_rounds = m.counter(
            "repro_maintenance_rebuild_rounds_total",
            help="Classification + merge/split rounds executed "
            "(Section 4.2).",
        )
        self._m_splits = m.counter(
            "repro_maintenance_bubble_splits_total",
            help="Synchronized merge/split rebuilds (Figure 6 units; "
            "the Figure 9 numerator).",
        )
        self._m_migrations = m.counter(
            "repro_maintenance_donor_migrations_total",
            help="Donor bubbles emptied and migrated to a split site.",
        )
        self._m_points_migrated = m.counter(
            "repro_maintenance_points_migrated_total",
            help="Points re-homed by donor merges.",
            unit="points",
        )
        self._m_points_redistributed = m.counter(
            "repro_maintenance_points_redistributed_total",
            help="Points redistributed between new seeds by splits.",
            unit="points",
        )
        self._m_class_changes = m.counter(
            "repro_maintenance_class_changes_total",
            help="Per-bubble quality-class transitions between "
            "consecutive batches (Definitions 2-3).",
        )
        self._m_over_filled = m.gauge(
            "repro_maintenance_over_filled_bubbles",
            help="Over-filled bubbles at the last classification.",
        )
        self._m_under_filled = m.gauge(
            "repro_maintenance_under_filled_bubbles",
            help="Under-filled bubbles at the last classification.",
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
        self._m_assignment_points = m.counter(
            "repro_assignment_points_total",
            help="Points run through nearest-seed assignment.",
            unit="points",
        )
        self._m_assignment_seconds = m.timer(
            "repro_assignment_seconds",
            help="Latency of the point-to-seed assignment phase per "
            "batch.",
        )
        self._m_assignment_batch_points = m.histogram(
            "repro_assignment_batch_points",
            help="Points per batch run through the vectorized "
            "assignment engine.",
            unit="points",
            buckets=(1, 8, 64, 256, 1024, 4096, 16384, 65536),
        )
        self._m_assigner_cache_hits = m.counter(
            "repro_assigner_cache_hits_total",
            help="Batch assignments served by the kept seed matrix.",
        )
        self._m_assigner_cache_misses = m.counter(
            "repro_assigner_cache_misses_total",
            help="Full rebuilds of the kept seed matrix: batch "
            "assignments that found it empty, invalidated or with a "
            "different bubble count.",
        )
        self._m_matrix_distances = m.counter(
            "repro_assignment_matrix_distances_total",
            help="Distances the kept seed matrix counted: full rebuilds, "
            "drifts and row rebases (part of "
            "repro_distance_computed_total).",
            unit="distances",
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def bubbles(self) -> BubbleSet:
        """The maintained summary."""
        return self._bubbles

    @property
    def store(self) -> PointStore:
        """The underlying database."""
        return self._store

    @property
    def counter(self) -> DistanceCounter:
        """The distance counter accumulating this maintainer's costs."""
        return self._counter

    @property
    def config(self) -> MaintenanceConfig:
        """The maintenance parameters in force."""
        return self._config

    @property
    def obs(self) -> Observability | None:
        """The observability handle, or ``None`` when uninstrumented."""
        return self._obs

    @property
    def assigner_cache(self) -> AssignerCache:
        """The kept seed matrix serving this maintainer's assigners."""
        return self._assigner_cache

    def classify(self) -> QualityReport:
        """Classify the current bubbles without performing any rebuilds."""
        return self._quality.classify(self._bubbles, self._store.size)

    @property
    def last_quality_report(self) -> QualityReport | None:
        """The final classification of the last batch's repair loop.

        ``None`` before the first batch. The telemetry gauges read this
        instead of re-classifying every window; it can trail the live
        state by one adaptive steering step, which is fine for trend
        monitoring (and costs nothing).
        """
        return self._last_report

    @property
    def rng_state(self) -> dict:
        """The maintenance RNG's bit-generator state (JSON-serializable).

        Capturing and restoring this is what makes WAL replay reproduce an
        uninterrupted run bit-for-bit: every random choice (candidate
        probing order, split-seed selection) resumes exactly where the
        crashed process left off.
        """
        return self._rng.bit_generator.state

    @rng_state.setter
    def rng_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state

    # ------------------------------------------------------------------
    # The scheme of Figure 3
    # ------------------------------------------------------------------
    def apply_batch(self, batch: UpdateBatch) -> BatchReport:
        """Apply one batch of deletions + insertions and repair quality.

        Raises:
            InvalidPointError: the batch is malformed (NaN/Inf insertion
                coordinates, a dimension mismatch, or duplicate deletion
                ids) — applying it would silently corrupt the summary.
        """
        self._guard_batch(batch)
        if self._obs is None:
            report = self._apply_batch_inner(batch)
        else:
            before = self._counter.snapshot()
            matrix_before = self._assigner_cache.matrix_computed
            started = time.perf_counter()
            with maybe_span(
                self._obs,
                "apply_batch",
                deletions=batch.num_deletions,
                insertions=batch.num_insertions,
            ):
                report = self._apply_batch_inner(batch)
            elapsed = time.perf_counter() - started
            # The counter delta — not the report's fields — feeds the
            # registry: subclass work after the inner report is cut (the
            # adaptive count steering) spends distances too, and the
            # registry must stay in lockstep with the DistanceCounter.
            delta = self._counter.snapshot() - before
            self._record_batch(report, delta.computed, delta.pruned, elapsed)
            self._m_matrix_distances.inc(
                self._assigner_cache.matrix_computed - matrix_before
            )
        return report

    def _guard_batch(self, batch: UpdateBatch) -> None:
        """Last line of defense against malformed updates.

        Streaming front-ends screen input under a configurable policy
        (:func:`~repro.core.validate.screen_chunk`); anything reaching
        the maintainer is applied verbatim, so here malformed data is
        always a hard error. A poisoned insertion would propagate through
        ``(n, LS, SS)`` forever; a duplicated deletion would subtract a
        point's statistics twice.
        """
        if batch.num_insertions:
            ins = batch.insertions
            if ins.ndim != 2 or ins.shape[1] != self._store.dim:
                raise InvalidPointError(
                    f"batch insertions have shape {ins.shape}, expected "
                    f"(m, {self._store.dim})"
                )
            if not np.isfinite(ins).all():
                bad = np.flatnonzero(
                    ~np.isfinite(ins).all(axis=1)
                )[:5].tolist()
                raise InvalidPointError(
                    f"batch insertions carry NaN/Inf coordinates "
                    f"(rows {bad})"
                )
        if batch.deletions and len(set(batch.deletions)) != len(
            batch.deletions
        ):
            raise InvalidPointError(
                "batch deletions contain duplicate point ids; applying "
                "them would decrement a bubble's statistics twice"
            )

    def _record_batch(
        self,
        report: BatchReport,
        computed: int,
        pruned: int,
        elapsed: float,
    ) -> None:
        self._m_batches.inc()
        self._m_batch_seconds.observe(elapsed)
        self._m_deletions.inc(report.num_deletions)
        self._m_insertions.inc(report.num_insertions)
        self._m_rounds.inc(report.rounds_run)
        self._m_distance_computed.inc(computed)
        self._m_distance_pruned.inc(pruned)
        self._m_over_filled.set(report.num_over_filled)
        self._m_under_filled.set(report.num_under_filled)

    def _apply_batch_inner(self, batch: UpdateBatch) -> BatchReport:
        """The batch application itself (subclasses extend this, not
        :meth:`apply_batch`, so its instrumentation covers the whole
        batch, subclass post-processing included)."""
        before = self._counter.snapshot()

        self._apply_deletions(batch)
        insertion_pruned = self._apply_insertions(batch)

        first_report: QualityReport | None = None
        rebuilt: list[BubbleId] = []
        rounds = 0
        for _ in range(self._config.rebuild_rounds):
            with maybe_span(
                self._obs, "classify", bubbles=len(self._bubbles)
            ):
                report = self._quality.classify(
                    self._bubbles, self._store.size
                )
            self._last_report = report
            if first_report is None:
                first_report = report
            over_ids = report.over_filled_ids
            if not over_ids:
                break
            rounds += 1
            rebuilt.extend(self._rebuild_over_filled(report))

        if first_report is None:  # rebuild_rounds >= 1, so never taken
            first_report = self._quality.classify(
                self._bubbles, self._store.size
            )

        if self._obs is not None:
            self._record_classification(first_report)

        delta = self._counter.snapshot() - before
        return BatchReport(
            num_deletions=batch.num_deletions,
            num_insertions=batch.num_insertions,
            num_over_filled=len(first_report.over_filled_ids),
            num_under_filled=len(first_report.under_filled_ids),
            rebuilt_bubbles=tuple(sorted(set(rebuilt))),
            rounds_run=rounds,
            computed_distances=delta.computed,
            pruned_distances=delta.pruned,
            insertion_pruned_fraction=insertion_pruned,
        )

    def _record_classification(self, report: QualityReport) -> None:
        """Emit one ``class_change`` event per bubble whose Definition 3
        class differs from the previous batch's classification."""
        previous = self._prev_classes
        self._prev_classes = report.classes
        if previous is None:
            return
        for bubble_id, now in enumerate(report.classes):
            was = (
                previous[bubble_id] if bubble_id < len(previous) else None
            )
            if was is now:
                continue
            self._m_class_changes.inc()
            self._obs.emit(
                "class_change",
                bubble=bubble_id,
                was="new" if was is None else was.value,
                now=now.value,
            )

    # ------------------------------------------------------------------
    # Step 1: deletions
    # ------------------------------------------------------------------
    def _apply_deletions(self, batch: UpdateBatch) -> None:
        if not batch.deletions:
            return
        with maybe_span(
            self._obs, "maintain_delete", points=len(batch.deletions)
        ):
            self._apply_deletions_inner(batch)

    def _apply_deletions_inner(self, batch: UpdateBatch) -> None:
        ids = np.asarray(batch.deletions, dtype=np.int64)
        owners = self._store.owners_of(ids)
        if (owners < 0).any():
            raise UnknownPointError(
                f"point {int(ids[owners < 0][0])} is not summarized by any "
                "bubble; points must be inserted through the maintainer (or "
                "assigned by the builder) before they can be deleted"
            )
        self._bubbles.release(self._store.points_of(ids), owners)
        self._store.delete(ids)

    # ------------------------------------------------------------------
    # Step 2: insertions
    # ------------------------------------------------------------------
    def _apply_insertions(self, batch: UpdateBatch) -> float:
        if batch.num_insertions == 0:
            return 0.0
        with maybe_span(
            self._obs, "maintain_insert", points=batch.num_insertions
        ):
            return self._apply_insertions_inner(batch)

    def _apply_insertions_inner(self, batch: UpdateBatch) -> float:
        new_ids = np.asarray(
            self._store.insert(batch.insertions, batch.insertion_labels),
            dtype=np.int64,
        )
        points = batch.insertions
        active = self._assignable_ids()
        assigner = self._batch_assigner(active)
        assignment = self._timed_assign(assigner, points)
        if active is not None:
            assignment = np.asarray(active, dtype=np.int64)[assignment]
        self._bubbles.absorb(points, assignment)
        self._store.set_owners(new_ids, assignment)
        # Every get returns a fresh assigner: its totals are this batch's.
        return assigner.pruned_fraction

    def _batch_assigner(
        self, active_ids: list[BubbleId] | None
    ) -> Assigner:
        """The batch assignment engine for the current bubble set.

        Served from :class:`~repro.core.assignment.AssignerCache`, whose
        seed matrix follows the moved representatives instead of being
        rebuilt every batch.
        """
        hits = self._assigner_cache.hits
        assigner = self._assigner_cache.get(
            self._bubbles,
            counter=self._counter,
            use_triangle_inequality=self._config.use_triangle_inequality,
            rng=self._rng,
            active_ids=active_ids,
            obs=self._obs,
        )
        if self._obs is not None:
            if self._assigner_cache.hits > hits:
                self._m_assigner_cache_hits.inc()
            else:
                self._m_assigner_cache_misses.inc()
        return assigner

    def _assignable_ids(self) -> list[BubbleId] | None:
        """Bubble ids insertions may be assigned to; ``None`` means all
        (hook for subclasses — the adaptive maintainer excludes retired
        bubbles)."""
        return None

    def _timed_assign(
        self, assigner, points: np.ndarray
    ) -> np.ndarray:
        """Run ``assign_many`` with batch-granular timing (two monotonic
        reads per batch — the vectorized kernel itself is untouched)."""
        if self._obs is None:
            return assigner.assign_many(points)
        started = time.perf_counter()
        assignment = assigner.assign_many(points)
        self._m_assignment_seconds.observe(time.perf_counter() - started)
        self._m_assignment_points.inc(points.shape[0])
        self._m_assignment_batch_points.observe(points.shape[0])
        return assignment

    # ------------------------------------------------------------------
    # Step 3: quality repair (Section 4.2)
    # ------------------------------------------------------------------
    def _rebuild_over_filled(self, report: QualityReport) -> list[BubbleId]:
        """Split every over-filled bubble, worst (highest value) first."""
        over_ids = sorted(
            report.over_filled_ids,
            key=lambda i: report.values[i],
            reverse=True,
        )
        donors = self._donor_queue(report)
        rebuilt: list[BubbleId] = []
        for over_id in over_ids:
            donor_id = next(
                (d for d in donors if d != over_id and d not in rebuilt),
                None,
            )
            if donor_id is None:
                break  # donor pool exhausted; remaining splits wait a batch
            donors.remove(donor_id)
            outcome = rebuild_pair(
                self._bubbles,
                self._store,
                over_id=over_id,
                donor_id=donor_id,
                counter=self._counter,
                rng=self._rng,
                strategy=self._config.split_strategy,
                use_triangle_inequality=self._config.use_triangle_inequality,
                merge_exclude=self._merge_exclude(),
                assigner_cache=self._assigner_cache,
                obs=self._obs,
            )
            rebuilt.extend((over_id, donor_id))
            if self._obs is not None:
                self._record_rebuild(over_id, donor_id, outcome)
        return rebuilt

    def _record_rebuild(
        self,
        over_id: BubbleId,
        donor_id: BubbleId,
        outcome: RebuildOutcome,
    ) -> None:
        self._m_migrations.inc()
        self._m_points_migrated.inc(outcome.points_migrated)
        self._obs.emit(
            "donor_migration",
            donor=int(donor_id),
            over=int(over_id),
            points_migrated=outcome.points_migrated,
        )
        self._m_splits.inc()
        self._m_points_redistributed.inc(outcome.points_redistributed)
        self._obs.emit(
            "bubble_split",
            over=int(over_id),
            donor=int(donor_id),
            donor_size=outcome.donor_size,
            over_size=outcome.over_size,
        )
        self._obs.emit(
            "seed_redistribution",
            over=int(over_id),
            donor=int(donor_id),
            points=outcome.points_redistributed,
        )

    def _merge_exclude(self) -> frozenset[BubbleId]:
        """Bubble ids merges must never target (hook for subclasses)."""
        return frozenset()

    def _donor_queue(self, report: QualityReport) -> list[BubbleId]:
        """Donor candidates in preference order.

        The paper's policy: under-filled bubbles first (emptiest first, so
        merges move the fewest points), then — only when those run out —
        the lowest-quality good bubbles. The ablation policy ranks all
        non-over-filled bubbles purely by ascending quality value.
        """
        if self._config.donor_policy is DonorPolicy.LOWEST_BETA:
            eligible = [
                i
                for i, cls in enumerate(report.classes)
                if cls is not BubbleClass.OVER_FILLED
            ]
            return sorted(eligible, key=lambda i: report.values[i])
        under = sorted(
            report.under_filled_ids, key=lambda i: report.values[i]
        )
        good = sorted(report.good_ids, key=lambda i: report.values[i])
        return list(under) + list(good)
