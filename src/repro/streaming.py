"""Sliding-window stream summarization — the paper's other future-work item.

Section 1 positions a data stream as "a degenerate case of an incremental
database where the database size is extremely small (the size of a window
in a stream), and insertions and deletions arise such that the current
database content is completely replaced"; Section 6 lists "compressing
data streams ... using incremental data bubbles" as future research.

:class:`SlidingWindowSummarizer` is exactly that degenerate case wired up:
every appended chunk of stream points is one :class:`UpdateBatch` whose
insertions are the chunk and whose deletions are the points that fall out
of the window (FIFO — point ids are handed out monotonically, so the
oldest alive ids are the smallest). The summary is maintained by an
:class:`~repro.core.adaptive.AdaptiveMaintainer`, so the bubble count also
tracks the window as it fills.

Example:
    >>> import numpy as np
    >>> stream = SlidingWindowSummarizer(dim=2, window_size=1_000,
    ...                                  points_per_bubble=50, seed=0)
    >>> rng = np.random.default_rng(0)
    >>> for _ in range(20):
    ...     _ = stream.append(rng.normal(size=(100, 2)))
    >>> stream.size
    1000
"""

from __future__ import annotations

import pathlib
import time

import numpy as np

from .core import (
    AdaptiveMaintainer,
    BubbleBuilder,
    BubbleConfig,
    BubbleSet,
    MaintenanceConfig,
)
from .core.audit import AuditReport, InvariantAuditor
from .core.bubble_set import check_members
from .core.maintenance import BatchReport
from .core.validate import RejectedPoint, check_policy, screen_chunk
from .database import PointStore, UpdateBatch
from .exceptions import (
    CorruptStateError,
    InvalidConfigError,
    NotFittedError,
    PersistenceError,
)
from .geometry import DistanceCounter
from .observability import Observability
from .observability.spans import maybe_span
from .persistence import (
    CheckpointManager,
    SummarizerState,
    config_from_dict,
    config_to_dict,
    read_manifest,
    recover_state,
)
from .types import Label

__all__ = ["SlidingWindowSummarizer", "DurableSummarizer"]

#: How many rejected points the ``quarantine`` policy retains for
#: diagnostics before older ones are dropped (in-memory only).
QUARANTINE_CAPACITY = 1024


class SlidingWindowSummarizer:
    """Incremental data bubbles over the most recent ``window_size`` points.

    Args:
        dim: stream dimensionality.
        window_size: how many of the most recent points the summary
            describes.
        points_per_bubble: target compression rate (the adaptive
            maintainer steers the bubble count toward
            ``window / points_per_bubble``).
        config: maintenance parameters; defaults to the paper's.
        seed: RNG seed for construction and maintenance randomness.
        obs: observability handle; streaming events/gauges land here and
            the handle is passed down to the maintainer. ``None``
            disables instrumentation.
        on_bad_point: how malformed input (NaN/Inf coordinates, a
            dimension mismatch) is treated — ``"strict"`` raises
            :class:`~repro.exceptions.InvalidPointError`, ``"skip"``
            drops the bad rows (counted and traced), ``"quarantine"``
            drops them but retains them in :attr:`quarantined` for
            diagnostics.
        audit_every: run a self-healing
            :class:`~repro.core.audit.InvariantAuditor` pass every this
            many appended chunks (0, the default, disables periodic
            audits).

    The summarizer bootstraps lazily: chunks are buffered in the store
    until at least ``2 · points_per_bubble`` points have arrived, then the
    initial bubbles are built and maintenance takes over.
    """

    def __init__(
        self,
        dim: int,
        window_size: int,
        points_per_bubble: int,
        config: MaintenanceConfig | None = None,
        seed: int | None = None,
        obs: Observability | None = None,
        on_bad_point: str = "strict",
        audit_every: int = 0,
    ) -> None:
        if window_size < 2:
            raise InvalidConfigError(
                f"window_size must be >= 2, got {window_size}"
            )
        if points_per_bubble < 1:
            raise InvalidConfigError(
                f"points_per_bubble must be >= 1, got {points_per_bubble}"
            )
        if points_per_bubble * 2 > window_size:
            raise InvalidConfigError(
                "window_size must hold at least two bubbles' worth of points"
            )
        if audit_every < 0:
            raise InvalidConfigError(
                f"audit_every must be >= 0, got {audit_every}"
            )
        self._window = window_size
        self._points_per_bubble = points_per_bubble
        self._on_bad_point = check_policy(on_bad_point)
        self._audit_every = int(audit_every)
        self._chunks_seen = 0
        self._rejected_total = 0
        self._quarantined: list[RejectedPoint] = []
        self._last_audit: AuditReport | None = None
        self._config = (
            config if config is not None else MaintenanceConfig(seed=seed)
        )
        self._seed = seed
        self._store = PointStore(dim=dim)
        self._counter = DistanceCounter()
        self._maintainer: AdaptiveMaintainer | None = None
        self._obs = obs
        if obs is not None:
            m = obs.metrics
            self._m_chunks = m.counter(
                "repro_stream_chunks_total",
                help="Stream chunks appended to the sliding window.",
            )
            self._m_points = m.counter(
                "repro_stream_points_total",
                help="Stream points ingested.",
                unit="points",
            )
            self._m_evicted = m.counter(
                "repro_stream_evictions_total",
                help="Points evicted FIFO from the sliding window.",
                unit="points",
            )
            self._m_window = m.gauge(
                "repro_stream_window_points",
                help="Points currently held by the sliding window.",
                unit="points",
            )
            self._m_active = m.gauge(
                "repro_stream_active_bubbles",
                help="Active (non-retired) bubbles summarizing the "
                "window.",
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
    # Accessors
    # ------------------------------------------------------------------
    @property
    def window_size(self) -> int:
        """The window capacity in points."""
        return self._window

    @property
    def size(self) -> int:
        """How many points the window currently holds."""
        return self._store.size

    @property
    def store(self) -> PointStore:
        """The live window content."""
        return self._store

    @property
    def counter(self) -> DistanceCounter:
        """Distance-computation accounting across the whole stream."""
        return self._counter

    @property
    def obs(self) -> Observability | None:
        """The observability handle, or ``None`` when uninstrumented."""
        return self._obs

    @property
    def points_per_bubble(self) -> int:
        """The target compression rate."""
        return self._points_per_bubble

    @property
    def config(self) -> MaintenanceConfig:
        """The maintenance parameters in force."""
        return self._config

    @property
    def seed(self) -> int | None:
        """The construction seed."""
        return self._seed

    @property
    def on_bad_point(self) -> str:
        """The bad-point policy in force."""
        return self._on_bad_point

    @property
    def rejected_points(self) -> int:
        """Total points rejected at the ingestion boundary so far."""
        return self._rejected_total

    @property
    def quarantined(self) -> tuple[RejectedPoint, ...]:
        """Rejected points retained under the ``quarantine`` policy.

        In-memory only (bounded at :data:`QUARANTINE_CAPACITY`); not
        persisted across crashes — rejected points are by definition
        excluded from the durable history.
        """
        return tuple(self._quarantined)

    @property
    def last_audit(self) -> AuditReport | None:
        """The most recent periodic audit's report, if any ran."""
        return self._last_audit

    def is_ready(self) -> bool:
        """Whether the summary has been bootstrapped."""
        return self._maintainer is not None

    @property
    def summary(self) -> BubbleSet:
        """The current bubble summary.

        Raises:
            NotFittedError: before enough points arrived to bootstrap.
        """
        if self._maintainer is None:
            raise NotFittedError(
                "the stream summary is not bootstrapped yet; append more "
                "points"
            )
        return self._maintainer.bubbles

    @property
    def maintainer(self) -> AdaptiveMaintainer | None:
        """The underlying adaptive maintainer (``None`` while buffering)."""
        return self._maintainer

    # ------------------------------------------------------------------
    # Stream ingestion
    # ------------------------------------------------------------------
    def append(
        self,
        points: np.ndarray,
        labels: list[Label] | np.ndarray | None = None,
    ) -> BatchReport | None:
        """Ingest one chunk of stream points.

        Evicts the oldest points beyond the window capacity in the same
        batch. Returns the maintainer's :class:`BatchReport`, or ``None``
        while the summarizer is still buffering toward bootstrap.

        Raises:
            InvalidPointError: the chunk is malformed and the policy is
                ``strict`` (see the ``on_bad_point`` constructor arg).
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points.reshape(1, -1)
        if points.shape[0] > self._window:
            raise ValueError(
                f"chunk of {points.shape[0]} exceeds the window of "
                f"{self._window}"
            )
        if labels is None:
            label_tuple = tuple([-1] * points.shape[0])
        else:
            label_tuple = tuple(int(l) for l in np.asarray(labels))
        screened = screen_chunk(
            points, label_tuple, self._store.dim, self._on_bad_point
        )
        if screened.num_rejected:
            self._note_rejected(screened.rejected)
        points = screened.points
        label_tuple = screened.labels

        overflow = max(0, self._store.size + points.shape[0] - self._window)
        evicted = (
            tuple(int(i) for i in self._store.ids()[:overflow])
            if overflow
            else ()
        )

        self._chunks_seen += 1
        if self._maintainer is None:
            # Buffering phase: mutate the store directly.
            with maybe_span(
                self._obs, "stream_append", points=points.shape[0]
            ):
                if evicted:
                    self._store.delete(np.asarray(evicted, dtype=np.int64))
                self._store.insert(points, label_tuple)
                self._maybe_bootstrap()
            self._record_append(points.shape[0], len(evicted))
            self._maybe_audit()
            self._tick_timeseries()
            return None

        batch = UpdateBatch(
            deletions=evicted,
            insertions=points,
            insertion_labels=label_tuple,
        )
        with maybe_span(
            self._obs,
            "stream_append",
            points=points.shape[0],
            evicted=len(evicted),
        ):
            report = self._maintainer.apply_batch(batch)
        self._record_append(points.shape[0], len(evicted))
        self._maybe_audit()
        self._tick_timeseries()
        return report

    def _tick_timeseries(self) -> None:
        """Advance the windowed telemetry by one appended batch."""
        obs = self._obs
        if obs is None or obs.timeseries is None:
            return
        obs.timeseries.maybe_roll(self._timeseries_gauges)

    def flush_timeseries(self) -> None:
        """Close the current partial telemetry window (end of a run)."""
        obs = self._obs
        if obs is None or obs.timeseries is None:
            return
        obs.timeseries.flush(self._timeseries_gauges)

    def _timeseries_gauges(self) -> dict:
        """Instantaneous gauges probed at each closed telemetry window.

        Everything here is counts-only arithmetic over existing state —
        no distance computations, no RNG draws — so probing cannot
        perturb the summarization stream.
        """
        gauges: dict = {"window_points": self._store.size}
        maintainer = self._maintainer
        if maintainer is None:
            return gauges
        gauges["active_bubbles"] = maintainer.active_count
        report = maintainer.last_quality_report
        if report is None:
            report = maintainer.classify()
        values = report.values
        if values.size:
            gauges["beta_min"] = float(values.min())
            gauges["beta_median"] = float(np.median(values))
            gauges["beta_max"] = float(values.max())
        gauges["under_filled"] = len(report.under_filled_ids)
        gauges["over_filled"] = len(report.over_filled_ids)
        cache = maintainer.assigner_cache
        lookups = cache.hits + cache.misses
        gauges["assigner_cache_hit_rate"] = (
            cache.hits / lookups if lookups else 0.0
        )
        return gauges

    def audit(self, repair: bool = True) -> AuditReport:
        """Audit (and by default repair) summary/database consistency.

        Delegates to :class:`~repro.core.audit.InvariantAuditor`. Before
        bootstrap there is no summary to drift, so a trivially-ok report
        is returned.
        """
        if self._maintainer is None:
            return AuditReport(ok=True)
        auditor = InvariantAuditor.for_maintainer(
            self._maintainer, obs=self._obs
        )
        report = auditor.audit(repair=repair)
        self._last_audit = report
        return report

    def _maybe_audit(self) -> None:
        if self._audit_every == 0 or self._maintainer is None:
            return
        if self._chunks_seen % self._audit_every == 0:
            self.audit(repair=True)

    def _note_rejected(
        self, rejected: tuple[RejectedPoint, ...]
    ) -> None:
        self._rejected_total += len(rejected)
        if self._on_bad_point == "quarantine":
            space = QUARANTINE_CAPACITY - len(self._quarantined)
            if space > 0:
                self._quarantined.extend(rejected[:space])
        if self._obs is None:
            return
        reasons: dict[str, int] = {}
        for reject in rejected:
            reasons[reject.reason] = reasons.get(reject.reason, 0) + 1
        for reason, count in sorted(reasons.items()):
            self._obs.metrics.counter(
                "repro_points_rejected_total",
                help="Stream points rejected at the ingestion boundary.",
                unit="points",
                labels={"reason": reason},
            ).inc(count)
        self._obs.emit(
            "bad_points_rejected",
            count=len(rejected),
            policy=self._on_bad_point,
            **reasons,
        )

    def _record_append(self, inserted: int, evicted: int) -> None:
        if self._obs is None:
            return
        self._m_chunks.inc()
        self._m_points.inc(inserted)
        self._m_window.set(self._store.size)
        if self._maintainer is not None:
            self._m_active.set(self._maintainer.active_count)
        self._obs.emit(
            "insert_batch", points=inserted, evicted=evicted
        )
        if evicted:
            self._m_evicted.inc(evicted)
            self._obs.emit("fifo_eviction", points=evicted)

    def _maybe_bootstrap(self) -> None:
        if self._store.size < 2 * self._points_per_bubble:
            return
        num_bubbles = max(
            2, self._store.size // self._points_per_bubble
        )
        builder = BubbleBuilder(
            BubbleConfig(num_bubbles=num_bubbles, seed=self._seed),
            counter=self._counter,
        )
        before = self._counter.snapshot()
        started = time.perf_counter()
        with maybe_span(
            self._obs,
            "bootstrap",
            points=self._store.size,
            bubbles=num_bubbles,
        ):
            bubbles = builder.build(self._store)
            self._maintainer = AdaptiveMaintainer(
                bubbles,
                self._store,
                points_per_bubble=self._points_per_bubble,
                config=self._config,
                counter=self._counter,
                obs=self._obs,
            )
        if self._obs is not None:
            # Construction is the one distance-spending phase outside the
            # maintainer, so its delta is folded into the registry here to
            # keep registry totals identical to the DistanceCounter's.
            delta = self._counter.snapshot() - before
            self._m_distance_computed.inc(delta.computed)
            self._m_distance_pruned.inc(delta.pruned)
            self._obs.emit(
                "bootstrap",
                points=self._store.size,
                bubbles=num_bubbles,
                seconds=time.perf_counter() - started,
            )

    # ------------------------------------------------------------------
    # Persistence (capture / restore)
    # ------------------------------------------------------------------
    def capture_state(self, batches_applied: int = 0) -> SummarizerState:
        """Freeze the complete summarizer state for snapshotting.

        Everything a later :meth:`from_state` needs to resume
        *bit-identically* is captured: store content (with id counter and
        owner column), raw per-bubble sufficient statistics (never
        recomputed — they carry insertion-order floating-point history),
        seeds, the maintainer's RNG state and retired set, and the
        distance totals. The per-bubble member ids the snapshot format
        carries are derived from the owner column.

        Args:
            batches_applied: stream position this state corresponds to
                (tracked by the caller, typically a
                :class:`DurableSummarizer`).
        """
        ids, points, labels = self._store.snapshot()
        owners = self._store.owners_of(ids)
        state = SummarizerState(
            dim=self._store.dim,
            window_size=self._window,
            points_per_bubble=self._points_per_bubble,
            seed=self._seed,
            config=self._config,
            batches_applied=int(batches_applied),
            bootstrapped=self._maintainer is not None,
            store_ids=ids,
            store_points=points,
            store_labels=labels,
            store_owners=owners,
            store_next_id=self._store.next_id,
            counter_computed=self._counter.computed,
            counter_pruned=self._counter.pruned,
        )
        if self._maintainer is None:
            return state

        bubbles = self._maintainer.bubbles
        state.seeds = bubbles.seeds()
        state.ns, state.linear_sums, state.square_sums = bubbles.statistics()
        state.member_offsets, state.member_ids = bubbles.member_csr()
        state.retired = tuple(sorted(self._maintainer.retired_ids))
        state.max_adjust = self._maintainer.max_adjust_per_batch
        state.rng_state = self._maintainer.rng_state
        return state

    @classmethod
    def from_state(
        cls,
        state: SummarizerState,
        obs: Observability | None = None,
        on_bad_point: str = "strict",
        audit_every: int = 0,
    ) -> "SlidingWindowSummarizer":
        """Reconstruct a summarizer captured by :meth:`capture_state`.

        ``on_bad_point`` and ``audit_every`` are runtime policies, not
        summary state — the caller (e.g. ``DurableSummarizer.recover``,
        which reads them from the manifest) re-supplies them.

        Raises:
            ValueError: the state is internally inconsistent — among
                others, its member arrays or ``ns`` disagree with what
                the store's owner column implies.
        """
        stream = cls(
            dim=state.dim,
            window_size=state.window_size,
            points_per_bubble=state.points_per_bubble,
            config=state.config,
            seed=state.seed,
            obs=obs,
            on_bad_point=on_bad_point,
            audit_every=audit_every,
        )
        stream._store = PointStore.from_snapshot(
            dim=state.dim,
            ids=state.store_ids,
            points=state.store_points,
            labels=state.store_labels,
            owners=state.store_owners,
            next_id=state.store_next_id,
        )
        stream._counter.record_computed(state.counter_computed)
        stream._counter.record_pruned(state.counter_pruned)
        if obs is not None:
            # Restored historical totals enter the registry too, so the
            # registry == DistanceCounter invariant spans recoveries.
            stream._m_distance_computed.inc(state.counter_computed)
            stream._m_distance_pruned.inc(state.counter_pruned)
            stream._m_window.set(stream._store.size)
        if not state.bootstrapped:
            return stream

        bubbles = BubbleSet.from_arrays(
            stream._store, state.seeds, state.ns, state.linear_sums,
            state.square_sums,
        )
        check_members(bubbles, state.member_offsets, state.member_ids)
        maintainer = AdaptiveMaintainer(
            bubbles,
            stream._store,
            points_per_bubble=state.points_per_bubble,
            max_adjust_per_batch=state.max_adjust,
            config=state.config,
            counter=stream._counter,
            obs=obs,
        )
        if state.rng_state is not None:
            maintainer.rng_state = state.rng_state
        maintainer.restore_retired(set(state.retired))
        stream._maintainer = maintainer
        return stream


class DurableSummarizer:
    """A :class:`SlidingWindowSummarizer` whose state survives crashes.

    Durability follows the classic write-ahead discipline
    (:mod:`repro.persistence`): every appended chunk is logged — and
    flushed to disk — *before* it is applied in memory, and a snapshot of
    the full summarizer state is checkpointed every ``checkpoint_every``
    batches (after which the log is truncated). After a crash,
    :meth:`recover` loads the newest valid snapshot and replays the log
    tail through the normal maintenance path, reproducing the
    pre-crash summary bit-for-bit — the paper's incremental-vs-rebuild
    advantage (Figure 7), applied to process lifetimes.

    Args:
        wal_dir: state directory; must not already hold durable state
            (use :meth:`recover` to resume one that does).
        dim, window_size, points_per_bubble, config, seed: as for
            :class:`SlidingWindowSummarizer`.
        checkpoint_every: batches between snapshots.
        keep_snapshots: how many snapshots to retain as corruption
            fallbacks.
        fsync: flush appends and snapshots through to disk. Leave on for
            power-loss durability; turning it off retains process-crash
            durability and is markedly faster.
        obs: observability handle; WAL/snapshot/recovery metrics and
            events land here and the handle is shared with the wrapped
            summarizer. ``None`` disables instrumentation.
        on_bad_point: bad-point policy, as for
            :class:`SlidingWindowSummarizer`. Screening runs **before**
            the WAL append, so a rejected point is never durably logged
            — replay sees only clean history. Recorded in the manifest
            and restored by :meth:`recover`.
        audit_every: periodic self-healing audit cadence, as for
            :class:`SlidingWindowSummarizer`.

    Example:
        >>> stream = DurableSummarizer(                     # doctest: +SKIP
        ...     "state/", dim=2, window_size=1000, points_per_bubble=50,
        ...     seed=0)
        >>> stream.append(chunk)                            # doctest: +SKIP
        ... # -- crash --
        >>> stream = DurableSummarizer.recover("state/")    # doctest: +SKIP
    """

    def __init__(
        self,
        wal_dir: str | pathlib.Path,
        dim: int,
        window_size: int,
        points_per_bubble: int,
        config: MaintenanceConfig | None = None,
        seed: int | None = None,
        checkpoint_every: int = 16,
        keep_snapshots: int = 2,
        fsync: bool = True,
        obs: Observability | None = None,
        on_bad_point: str = "strict",
        audit_every: int = 0,
    ) -> None:
        manager = CheckpointManager(
            wal_dir,
            interval=checkpoint_every,
            keep=keep_snapshots,
            fsync=fsync,
            obs=obs,
        )
        if manager.has_state():
            manager.close()
            raise PersistenceError(
                f"{wal_dir} already holds durable summarizer state; "
                "use DurableSummarizer.recover() to resume it"
            )
        inner = SlidingWindowSummarizer(
            dim=dim,
            window_size=window_size,
            points_per_bubble=points_per_bubble,
            config=config,
            seed=seed,
            obs=obs,
            on_bad_point=on_bad_point,
            audit_every=audit_every,
        )
        manager.write_manifest(
            {
                "dim": int(dim),
                "window_size": int(window_size),
                "points_per_bubble": int(points_per_bubble),
                "seed": None if seed is None else int(seed),
                "config": config_to_dict(inner.config),
                "checkpoint_every": int(checkpoint_every),
                "keep_snapshots": int(keep_snapshots),
                "on_bad_point": inner.on_bad_point,
            }
        )
        self._inner = inner
        self._manager = manager
        self._seq = 0
        self._replaying = False
        self._closed = False
        self._obs = obs
        self._create_wal_metrics(obs)

    def _create_wal_metrics(self, obs: Observability | None) -> None:
        if obs is None:
            return
        m = obs.metrics
        self._m_wal_appends = m.counter(
            "repro_wal_appends_total",
            help="Batches durably appended to the write-ahead log.",
        )
        self._m_wal_bytes = m.counter(
            "repro_wal_bytes_total",
            help="Bytes written to the write-ahead log (records incl. "
            "headers).",
            unit="bytes",
        )
        self._m_wal_seconds = m.timer(
            "repro_wal_append_seconds",
            help="Latency of one durable WAL append (encode + write + "
            "flush).",
        )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        wal_dir: str | pathlib.Path,
        fsync: bool = True,
        obs: Observability | None = None,
        audit_every: int = 0,
    ) -> "DurableSummarizer":
        """Resume a durable summarizer from its state directory.

        Loads the newest valid snapshot (falling back to older ones when
        the newest is damaged), repairs a torn final WAL record, and
        replays the remaining log tail through the normal maintenance
        path. Finishes with a fresh checkpoint when anything was
        replayed, so a recovery is never repeated.

        Raises:
            PersistenceError: ``wal_dir`` holds no durable state, or the
                snapshot and log cannot be reconciled.
            WalCorruptionError: the log is damaged before its tail.
        """
        # Read the manifest before touching the directory: probing a
        # manifest-less (or nonexistent) path must not mutate it —
        # opening a CheckpointManager would create the directory and an
        # empty wal.log, and a stray/empty wal.log would otherwise
        # surface as a confusing corruption error instead of "nothing to
        # resume".
        manifest = read_manifest(wal_dir)
        started = time.perf_counter()
        manager = CheckpointManager(
            wal_dir,
            interval=int(manifest["checkpoint_every"]),
            keep=int(manifest["keep_snapshots"]),
            fsync=fsync,
            obs=obs,
        )
        try:
            return cls._recover_with(
                manager, manifest, wal_dir, obs, audit_every, started
            )
        except BaseException:
            # A failed recovery must not leak the WAL file handle the
            # manager opened — the service layer retries/raises past
            # this and the directory must stay openable.
            manager.close()
            raise

    @classmethod
    def _recover_with(
        cls,
        manager: CheckpointManager,
        manifest: dict,
        wal_dir: str | pathlib.Path,
        obs: Observability | None,
        audit_every: int,
        started: float,
    ) -> "DurableSummarizer":
        with maybe_span(obs, "recovery"):
            recovered = recover_state(manager, obs=obs)
            stream = cls.__new__(cls)
            stream._manager = manager
            stream._replaying = False
            stream._closed = False
            stream._obs = obs
            stream._create_wal_metrics(obs)
            # Older manifests predate the bad-point policy; default strict.
            on_bad_point = str(manifest.get("on_bad_point", "strict"))
            if recovered.state is not None:
                try:
                    stream._inner = SlidingWindowSummarizer.from_state(
                        recovered.state,
                        obs=obs,
                        on_bad_point=on_bad_point,
                        audit_every=audit_every,
                    )
                except ValueError as exc:
                    # The snapshot decoded but violates internal invariants
                    # (a buggy writer, or tampering the checksum cannot see).
                    raise CorruptStateError(
                        f"snapshot state for {wal_dir} is internally "
                        f"inconsistent ({exc}); rename the newest "
                        f"snapshot-*.npz aside to fall back to an older "
                        f"generation, or rebuild from the source stream"
                    ) from exc
                stream._seq = recovered.state.batches_applied
            else:
                stream._inner = SlidingWindowSummarizer(
                    dim=int(manifest["dim"]),
                    window_size=int(manifest["window_size"]),
                    points_per_bubble=int(manifest["points_per_bubble"]),
                    config=config_from_dict(manifest["config"]),
                    seed=(
                        None
                        if manifest["seed"] is None
                        else int(manifest["seed"])
                    ),
                    obs=obs,
                    on_bad_point=on_bad_point,
                    audit_every=audit_every,
                )
                stream._seq = 0

            if recovered.tail:
                stream._replaying = True
                try:
                    with maybe_span(
                        obs, "replay", batches=len(recovered.tail)
                    ):
                        for record in recovered.tail:
                            stream._apply(
                                record.batch.insertions,
                                list(record.batch.insertion_labels),
                            )
                finally:
                    stream._replaying = False
                # Re-establish the invariant "snapshot + log tail == state":
                # everything replayed is now captured in one fresh snapshot
                # and the log is truncated, so the next crash recovers from
                # here instead of repeating this replay.
                stream.checkpoint()
        if obs is not None:
            obs.metrics.counter(
                "repro_recovery_replays_total",
                help="Crash recoveries performed.",
            ).inc()
            obs.metrics.counter(
                "repro_recovery_replayed_batches_total",
                help="WAL-tail batches replayed during recoveries.",
            ).inc(len(recovered.tail))
            obs.emit(
                "recovery_replay",
                snapshot_batches=recovered.snapshot_batches,
                replayed_batches=len(recovered.tail),
                seconds=time.perf_counter() - started,
            )
        return stream

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def append(
        self,
        points: np.ndarray,
        labels: list[Label] | np.ndarray | None = None,
    ) -> BatchReport | None:
        """Durably ingest one chunk: WAL first, then the in-memory apply.

        Returns the maintainer's report (``None`` while buffering), like
        :meth:`SlidingWindowSummarizer.append`.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points.reshape(1, -1)
        if points.shape[0] > self._inner.window_size:
            raise ValueError(
                f"chunk of {points.shape[0]} exceeds the window of "
                f"{self._inner.window_size}"
            )
        if labels is None:
            label_tuple = tuple([-1] * points.shape[0])
        else:
            label_tuple = tuple(int(l) for l in np.asarray(labels))
        # Screen up front: a point the in-memory summarizer would reject
        # must not be acknowledged into the log — replay would either
        # re-raise (strict) or have to re-screen (skip/quarantine); only
        # clean history is durable.
        screened = screen_chunk(
            points,
            label_tuple,
            self._inner.store.dim,
            self._inner.on_bad_point,
        )
        if screened.num_rejected:
            self._inner._note_rejected(screened.rejected)
        points = screened.points
        label_tuple = screened.labels
        batch = UpdateBatch(
            deletions=(),
            insertions=points,
            insertion_labels=label_tuple,
        )

        if self._obs is None:
            self._manager.wal.append(self._seq, batch)
        else:
            started = time.perf_counter()
            # "wal_seq", not "seq": a field named "seq" would collide
            # with the trace line's own sequence number on serialization.
            with maybe_span(
                self._obs,
                "wal_append",
                wal_seq=self._seq,
                points=points.shape[0],
            ):
                nbytes = self._manager.wal.append(self._seq, batch)
            elapsed = time.perf_counter() - started
            self._m_wal_appends.inc()
            self._m_wal_bytes.inc(nbytes)
            self._m_wal_seconds.observe(elapsed)
            self._obs.emit(
                "wal_append",
                wal_seq=self._seq,
                bytes=nbytes,
                points=points.shape[0],
                seconds=elapsed,
            )
        return self._apply(points, list(label_tuple))

    # ------------------------------------------------------------------
    # Checkpoint control
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Snapshot the current state now and truncate the WAL."""
        self._manager.checkpoint(self._inner.capture_state(self._seq))

    def close(self, checkpoint: bool = True) -> None:
        """Release file handles, by default after a final checkpoint.

        Idempotent: a second (or later) close is a no-op — it neither
        writes another checkpoint nor touches the already-released
        handles. The service's drain path closes shards from several
        code paths (worker failure, drain, context exit), so double
        closes are normal, not a bug.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if checkpoint:
                self.checkpoint()
        finally:
            # Even when the goodbye checkpoint fails, the handles are
            # released — the WAL still covers everything applied.
            self._manager.close()

    def __enter__(self) -> "DurableSummarizer":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        # Skip the goodbye checkpoint on error: the WAL already covers
        # everything applied, and the failed batch was never acknowledged.
        self.close(checkpoint=exc_type is None)

    # ------------------------------------------------------------------
    # Accessors (delegating to the wrapped summarizer)
    # ------------------------------------------------------------------
    @property
    def batches_applied(self) -> int:
        """How many chunks have been durably applied over all lifetimes."""
        return self._seq

    @property
    def wal_dir(self) -> pathlib.Path:
        """The durable state directory."""
        return self._manager.directory

    @property
    def checkpoints(self) -> CheckpointManager:
        """The underlying checkpoint manager."""
        return self._manager

    @property
    def inner(self) -> SlidingWindowSummarizer:
        """The wrapped in-memory summarizer."""
        return self._inner

    @property
    def window_size(self) -> int:
        """The window capacity in points."""
        return self._inner.window_size

    @property
    def size(self) -> int:
        """How many points the window currently holds."""
        return self._inner.size

    @property
    def store(self) -> PointStore:
        """The live window content."""
        return self._inner.store

    @property
    def counter(self) -> DistanceCounter:
        """Distance-computation accounting across the whole stream."""
        return self._inner.counter

    def is_ready(self) -> bool:
        """Whether the summary has been bootstrapped."""
        return self._inner.is_ready()

    @property
    def summary(self) -> BubbleSet:
        """The current bubble summary (raises before bootstrap)."""
        return self._inner.summary

    @property
    def maintainer(self) -> AdaptiveMaintainer | None:
        """The underlying adaptive maintainer (``None`` while buffering)."""
        return self._inner.maintainer

    @property
    def on_bad_point(self) -> str:
        """The bad-point policy in force."""
        return self._inner.on_bad_point

    @property
    def rejected_points(self) -> int:
        """Total points rejected at the ingestion boundary so far."""
        return self._inner.rejected_points

    @property
    def quarantined(self) -> tuple[RejectedPoint, ...]:
        """Rejected points retained under the ``quarantine`` policy."""
        return self._inner.quarantined

    def audit(self, repair: bool = True) -> AuditReport:
        """Audit (and by default repair) the summary's invariants."""
        return self._inner.audit(repair=repair)

    def flush_timeseries(self) -> None:
        """Close the current partial telemetry window (end of a run)."""
        self._inner.flush_timeseries()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _apply(
        self, points: np.ndarray, labels: list[Label]
    ) -> BatchReport | None:
        """Apply one logged batch in memory, then keep the checkpoint
        schedule — the one step live appends and WAL replay share."""
        self._seq += 1
        report = self._inner.append(points, labels)
        self._maybe_checkpoint()
        return report

    def _maybe_checkpoint(self) -> None:
        if self._seq % self._manager.interval:
            return
        maintainer = self._inner.maintainer
        if maintainer is not None:
            # The kept seed matrix is not persisted, so a recovery starts
            # without one. Dropping it at every scheduled position, in
            # replay too, makes a recovered run count the distances an
            # uninterrupted one counts.
            maintainer.assigner_cache.invalidate()
        if self._replaying:
            # Checkpointing mid-replay would truncate WAL records that are
            # not yet reflected in any snapshot; recover() writes one
            # checkpoint after the whole tail is applied instead.
            return
        self.checkpoint()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DurableSummarizer(dir={str(self._manager.directory)!r}, "
            f"batches={self._seq}, size={self._inner.size})"
        )
