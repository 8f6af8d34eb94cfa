"""One tenant's shard: bounded queue, backpressure, micro-batched appends.

A :class:`Shard` pairs one tenant's
:class:`~repro.streaming.DurableSummarizer` with a bounded in-memory
queue of arrived-but-unapplied points. The dispatcher calls
:meth:`Shard.submit` for every event; a flusher (a pool worker thread,
or the dispatcher itself in synchronous mode) calls
:meth:`Shard.flush_once` to drain up to ``batch_points`` queued points
into one :meth:`~repro.streaming.DurableSummarizer.append` — the
batch-incremental framing: bursty per-point arrivals become per-shard
micro-batches, so maintenance cost is paid per batch, not per point.

Backpressure engages when the queue holds ``queue_points`` points:

* ``block`` (default) — :meth:`submit` waits until the flusher frees
  space. Every submission that had to wait increments the block counter
  and the total blocked seconds, so saturation is visible in rollups.
* ``shed`` — :meth:`submit` drops the event immediately, counts it, and
  returns ``False``. Nothing shed ever reaches the WAL.

Ingestion latency is measured per point from arrival (``submit``) to
durable application (the end of the ``append`` that consumed it) and
recorded in the ``repro_service_ingest_seconds`` histogram of the
shard's own metrics registry — each shard has a private
:class:`~repro.observability.Observability` handle, so per-tenant
signals never mix.

Thread contract: exactly one flusher at a time may call
:meth:`flush_once` (the fleet stripes shards over pool workers so a
shard always belongs to one worker); any thread may call
:meth:`submit`. A shard whose ``append`` raised enters the ``failed``
state, wakes every blocked submitter, and refuses further traffic —
other shards are unaffected. The poisoned micro-batch and anything
still queued are *kept* (:meth:`take_failed_items` /
:meth:`take_pending_items`): the fleet dead-letters the batch and a
:class:`~repro.service.supervisor.ShardSupervisor`, when attached, can
restart the tenant from its WAL and adopt the queue — see
docs/ROBUSTNESS.md for the full failure-handling pipeline.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from ..clustering.incremental import ClusterFit, IncrementalClusterer
from ..exceptions import InvalidConfigError, ServiceError
from ..faults import FAILPOINTS, declare_failpoint
from ..observability import NULL_SPAN, Observability, bucket_quantile
from ..streaming import DurableSummarizer

__all__ = [
    "BACKPRESSURE_POLICIES",
    "BATCH_POINTS_BUCKETS",
    "SHARD_STATES",
    "Shard",
]

# Fired between dequeuing a micro-batch and handing it to the durable
# append — the service-side moment where a crash leaves arrived points
# neither applied nor acknowledged, and an error poisons the shard with
# the batch in hand. The fleet chaos matrix kills/errors here.
_FP_APPLY_BEFORE_APPEND = declare_failpoint("shard.apply.before_append")

#: Legal backpressure policies for a full shard queue.
BACKPRESSURE_POLICIES = ("block", "shed")

#: Shard lifecycle states surfaced in fleet rollups.
SHARD_STATES = ("running", "draining", "stopped", "failed")

#: Bucket bounds for the micro-batch size histogram (points per append).
BATCH_POINTS_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class Shard:
    """One tenant's queue + durable summarizer (see module docstring).

    Args:
        tenant: the tenant/stream id this shard serves.
        summarizer: the tenant's durable summarizer (the shard takes
            ownership: :meth:`close` closes it).
        queue_points: queue capacity in points; arrivals beyond it hit
            the backpressure policy.
        batch_points: at most this many queued points are folded into
            one ``append`` micro-batch.
        backpressure: ``"block"`` or ``"shed"``.
        obs: the shard's observability handle; when ``None`` a private
            metrics-only handle is created (service counters need a
            registry to live in).
    """

    def __init__(
        self,
        tenant: str,
        summarizer: DurableSummarizer,
        queue_points: int = 1024,
        batch_points: int = 64,
        backpressure: str = "block",
        obs: Observability | None = None,
    ) -> None:
        if queue_points < 1:
            raise InvalidConfigError(
                f"queue_points must be >= 1, got {queue_points}"
            )
        if batch_points < 1:
            raise InvalidConfigError(
                f"batch_points must be >= 1, got {batch_points}"
            )
        if batch_points > queue_points:
            raise InvalidConfigError(
                f"batch_points ({batch_points}) must not exceed "
                f"queue_points ({queue_points}); synchronous flushing "
                "could never assemble a full batch"
            )
        if backpressure not in BACKPRESSURE_POLICIES:
            raise InvalidConfigError(
                f"unknown backpressure policy {backpressure!r} "
                f"(expected one of {BACKPRESSURE_POLICIES})"
            )
        self.tenant = tenant
        self.summarizer = summarizer
        self.queue_points = int(queue_points)
        self.batch_points = int(batch_points)
        self.backpressure = backpressure
        self.obs = obs if obs is not None else Observability()
        self.error: str | None = None
        #: ``time.monotonic()`` of the failure that poisoned this shard
        #: (``None`` while healthy) — surfaced in fleet rollups so an
        #: operator can tell a fresh failure from a stale one.
        self.failed_at: float | None = None
        #: Set by the fleet once this shard's failure has been harvested
        #: (batch dead-lettered, supervisor notified) — makes the
        #: failure path idempotent across dispatcher and worker threads.
        self.failure_handled = False
        #: Optional ``callable(tenant) -> str`` minting one trace id per
        #: micro-batch (the fleet installs its fleet-unique minter); a
        #: standalone shard falls back to a batch-index id.
        self.trace_minter = None
        #: Trace id of the most recent micro-batch (``None`` before the
        #: first flush) — the rollup's metrics→trace exemplar link.
        self.last_trace_id: str | None = None

        self._clusterer: IncrementalClusterer | None = None
        self._cluster_attached = None

        self._queue: deque[tuple[tuple[float, ...], int, float]] = deque()
        #: The micro-batch whose append poisoned the shard, held for the
        #: fleet to dead-letter (it reached neither the WAL nor the
        #: summary, and must not simply vanish from the accounting).
        self._failed_items: list[tuple[tuple[float, ...], int, float]] = []
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._state = "running"

        self.enqueued_points = 0
        self.applied_points = 0
        self.applied_batches = 0
        self.shed_points = 0
        self.failed_points = 0
        self.dead_lettered_points = 0
        self.breaker_rejected_points = 0
        self.blocked_submissions = 0
        self.blocked_seconds = 0.0

        m = self.obs.metrics
        self._m_enqueued = m.counter(
            "repro_service_enqueued_points_total",
            help="Points accepted into this shard's queue.",
            unit="points",
        )
        self._m_applied = m.counter(
            "repro_service_applied_points_total",
            help="Points durably applied by micro-batched appends.",
            unit="points",
        )
        self._m_batches = m.counter(
            "repro_service_batches_total",
            help="Micro-batches flushed into the summarizer.",
        )
        self._m_shed = m.counter(
            "repro_service_shed_points_total",
            help="Points dropped by the 'shed' backpressure policy.",
            unit="points",
        )
        self._m_failed = m.counter(
            "repro_service_failed_points_total",
            help="Points rejected because the shard had failed.",
            unit="points",
        )
        self._m_dead_lettered = m.counter(
            "repro_service_dead_lettered_points_total",
            help="Points parked in the durable dead-letter queue.",
            unit="points",
        )
        self._m_blocks = m.counter(
            "repro_service_backpressure_blocks_total",
            help="Submissions that had to wait for queue space "
            "('block' policy).",
        )
        self._m_block_seconds = m.counter(
            "repro_service_backpressure_seconds_total",
            help="Total seconds submissions spent blocked on a full "
            "queue.",
            unit="seconds",
        )
        self._m_queue = m.gauge(
            "repro_service_queue_points",
            help="Points currently queued ahead of the summarizer.",
            unit="points",
        )
        self._h_ingest = m.histogram(
            "repro_service_ingest_seconds",
            help="Per-point latency from arrival to durable "
            "application.",
            unit="seconds",
        )
        self._h_batch = m.histogram(
            "repro_service_batch_points",
            help="Micro-batch sizes (points per append).",
            unit="points",
            buckets=BATCH_POINTS_BUCKETS,
        )

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Lifecycle state (one of :data:`SHARD_STATES`)."""
        return self._state

    @property
    def pending(self) -> int:
        """Points queued but not yet applied."""
        return len(self._queue)

    @property
    def submitted_points(self) -> int:
        """Every point ever aimed at this shard, whatever became of it.

        The left side of the service accounting identity::

            applied + pending + shed + failed + dead_lettered == submitted

        which holds exactly because every submission lands in one
        bucket: accepted into the queue (``enqueued`` = applied +
        pending + queue-harvested dead letters), dropped by
        backpressure (``shed``), rejected by a failed shard
        (``failed``), or parked straight into the dead-letter queue by
        an open circuit breaker (``breaker_rejected``, a subset of
        ``dead_lettered``).
        """
        return (
            self.enqueued_points
            + self.shed_points
            + self.failed_points
            + self.breaker_rejected_points
        )

    def ingest_p95_seconds(self) -> float | None:
        """p95 arrival→applied latency bound (bucket-granular)."""
        histogram = self._h_ingest
        return bucket_quantile(
            histogram.bounds, histogram.bucket_counts(), 0.95
        )

    # ------------------------------------------------------------------
    # Clustering
    # ------------------------------------------------------------------
    def clusterer(self, min_pts: int = 25) -> IncrementalClusterer:
        """This shard's incremental clusterer, created on first use.

        The clusterer shares the shard's observability handle (so the
        ``repro_cluster_*`` metrics land in the same per-tenant
        registry) and the summarizer's distance counter (so clustering
        distance work shows up in the same accounting as maintenance).
        ``min_pts`` only applies to the creating call.
        """
        if self._clusterer is None:
            self._clusterer = IncrementalClusterer(
                min_pts=min_pts,
                counter=self.summarizer.counter,
                obs=self.obs,
            )
        return self._clusterer

    def cluster_now(
        self,
        deadline_seconds: float | None = None,
        min_pts: int = 25,
    ) -> ClusterFit:
        """Cluster the shard's current summary, as incrementally as possible.

        Serves the paper's "cluster me now" request against the live
        bubble summary: a cache hit when nothing changed, an incremental
        reachability repair when only some bubbles were touched, and an
        anytime staged fit under ``deadline_seconds`` otherwise.

        Thread contract: like :meth:`flush_once`, one caller at a time —
        call from the shard's flusher thread or while the shard is
        quiescent; a fit does not synchronize with a concurrent append.

        Raises:
            NotFittedError: the stream has not bootstrapped a summary.
        """
        clusterer = self.clusterer(min_pts=min_pts)
        bubbles = self.summarizer.summary
        maintainer = self.summarizer.maintainer
        if maintainer is not None and maintainer is not self._cluster_attached:
            # (Re)bootstrap and recovery swap the maintainer out from
            # under a long-lived shard; follow it so batch callbacks
            # keep witnessing touched bubbles.
            if self._cluster_attached is not None:
                clusterer.detach(self._cluster_attached)
            clusterer.attach(maintainer)
            self._cluster_attached = maintainer
        return clusterer.fit(bubbles, deadline_seconds=deadline_seconds)

    # ------------------------------------------------------------------
    # Dispatcher side
    # ------------------------------------------------------------------
    def submit(self, point: tuple[float, ...], label: int = -1) -> bool:
        """Queue one point; returns whether it was accepted.

        Blocks while the queue is full under the ``block`` policy;
        returns ``False`` (and counts the shed) under ``shed``.

        Raises:
            ServiceError: the shard is draining, stopped, or failed.
        """
        with self._not_full:
            self._check_accepting()
            if len(self._queue) >= self.queue_points:
                if self.backpressure == "shed":
                    self.shed_points += 1
                    self._m_shed.inc()
                    return False
                self.blocked_submissions += 1
                self._m_blocks.inc()
                started = time.perf_counter()
                while len(self._queue) >= self.queue_points:
                    self._not_full.wait(timeout=0.05)
                    self._check_accepting()
                waited = time.perf_counter() - started
                self.blocked_seconds += waited
                self._m_block_seconds.inc(waited)
            self._queue.append((point, int(label), time.perf_counter()))
            self.enqueued_points += 1
            self._m_enqueued.inc()
            self._m_queue.set(len(self._queue))
        return True

    def _check_accepting(self) -> None:
        if self._state == "running":
            return
        if self._state == "failed":
            # Distinguish "aimed at a dead shard" from backpressure
            # shedding: rollups report these as failed_points.
            self.failed_points += 1
            self._m_failed.inc()
            raise ServiceError(
                f"shard {self.tenant!r} has failed: {self.error}"
            )
        raise ServiceError(
            f"shard {self.tenant!r} is {self._state} and no longer "
            "accepts events"
        )

    def note_dead_lettered(self, count: int) -> None:
        """Record ``count`` points parked in the dead-letter queue."""
        self.dead_lettered_points += int(count)
        self._m_dead_lettered.inc(int(count))

    def note_breaker_rejected(self, count: int) -> None:
        """Record ``count`` submissions refused by an open breaker.

        These never touch the queue; the fleet dead-letters them, so
        they are also counted via :meth:`note_dead_lettered`.
        """
        self.breaker_rejected_points += int(count)

    # ------------------------------------------------------------------
    # Flusher side (single-threaded per shard)
    # ------------------------------------------------------------------
    def flush_once(self) -> int:
        """Apply up to one micro-batch; returns the points applied.

        Raises:
            ServiceError: the wrapped ``append`` failed; the shard is now
                ``failed`` and every blocked submitter has been woken.
        """
        with self._not_full:
            if not self._queue or self._state in ("stopped", "failed"):
                return 0
            take = min(self.batch_points, len(self._queue))
            items = [self._queue.popleft() for _ in range(take)]
            self._m_queue.set(len(self._queue))
            self._not_full.notify_all()
        points = np.asarray([item[0] for item in items], dtype=np.float64)
        labels = [item[1] for item in items]
        if self.obs.spans is not None:
            # Mint one trace id per micro-batch and open the root span
            # of its trace: every span the append itself opens (WAL
            # write, maintenance, assignment) nests under it and
            # inherits the id, so the batch's full latency tree can be
            # reassembled across the fleet→shard→maintainer boundary.
            minter = self.trace_minter
            trace_id = (
                minter(self.tenant)
                if minter is not None
                else f"{self.tenant}:{self.applied_batches:06d}"
            )
            self.last_trace_id = trace_id
            span = self.obs.span(
                "ingest_batch",
                trace=trace_id,
                tenant=self.tenant,
                points=take,
            )
        else:
            span = NULL_SPAN
        try:
            with span:
                FAILPOINTS.fire(_FP_APPLY_BEFORE_APPEND)
                self.summarizer.append(points, labels)
        except BaseException as exc:
            self._fail(exc, items)
            raise ServiceError(
                f"shard {self.tenant!r} failed applying a batch of "
                f"{take} points: {exc}"
            ) from exc
        now = time.perf_counter()
        for _, _, arrived in items:
            self._h_ingest.observe(now - arrived)
        self._h_batch.observe(take)
        self.applied_points += take
        self.applied_batches += 1
        self._m_applied.inc(take)
        self._m_batches.inc()
        return take

    def _fail(
        self,
        exc: BaseException,
        items: list[tuple[tuple[float, ...], int, float]] | None = None,
    ) -> None:
        with self._not_full:
            self._state = "failed"
            self.error = f"{type(exc).__name__}: {exc}"
            self.failed_at = time.monotonic()
            # The poisoned batch and anything still queued are kept for
            # the fleet: the batch is dead-lettered, the queue either
            # adopted by a supervisor restart or dead-lettered at drain.
            if items:
                self._failed_items.extend(items)
            self._not_full.notify_all()
        # Handles are released without checkpointing: the WAL already
        # covers everything acknowledged, and the failed batch was
        # applied to neither the log nor the summary.
        try:
            self.summarizer.close(checkpoint=False)
        except Exception:
            pass
        # The errored span_end is already emitted; push it to disk so
        # the poisoned batch's trace survives even if nothing restarts
        # this tenant. The sink stays open for a supervisor restart
        # (the replacement shard inherits this observability handle).
        tracer = self.obs.tracer
        if tracer is not None:
            try:
                tracer.flush()
            except Exception:
                pass

    def take_failed_items(
        self,
    ) -> list[tuple[tuple[float, ...], int, float]]:
        """Hand over (and forget) the batch that poisoned this shard."""
        with self._not_full:
            items = self._failed_items
            self._failed_items = []
            return items

    def take_pending_items(
        self,
    ) -> list[tuple[tuple[float, ...], int, float]]:
        """Hand over (and forget) everything still queued.

        Used by the supervisor to move a failed shard's arrivals onto
        its replacement, and by drain to dead-letter the residue of a
        shard nobody restarted.
        """
        with self._not_full:
            items = list(self._queue)
            self._queue.clear()
            self._m_queue.set(0)
            self._not_full.notify_all()
            return items

    def adopt_items(
        self, items: list[tuple[tuple[float, ...], int, float]]
    ) -> None:
        """Take over queued-but-unapplied points from a failed shard.

        The points were already counted as enqueued by their original
        shard, so this restores the queue without touching counters
        (pair with :meth:`inherit_accounting`, which carries those
        counts over).
        """
        with self._not_full:
            self._queue.extend(items)
            self._m_queue.set(len(self._queue))

    def inherit_accounting(self, old: "Shard") -> None:
        """Carry a replaced shard's lifetime counters into this one.

        A supervisor restart swaps the Shard object but not the tenant:
        rollups must keep counting from where the failed incarnation
        stopped, and the accounting identity must keep holding across
        the swap. Metric objects are already shared when both shards
        use the same Observability handle (the registry is
        get-or-create), so only the plain attributes need copying.
        """
        self.enqueued_points += old.enqueued_points
        self.applied_points += old.applied_points
        self.applied_batches += old.applied_batches
        self.shed_points += old.shed_points
        self.failed_points += old.failed_points
        self.dead_lettered_points += old.dead_lettered_points
        self.breaker_rejected_points += old.breaker_rejected_points
        self.blocked_submissions += old.blocked_submissions
        self.blocked_seconds += old.blocked_seconds

    # ------------------------------------------------------------------
    # Drain / shutdown
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop accepting events; queued points may still be flushed."""
        with self._not_full:
            if self._state == "running":
                self._state = "draining"
            self._not_full.notify_all()

    def drain_flush(self) -> int:
        """Flush everything still queued; returns the points applied."""
        applied = 0
        while True:
            flushed = self.flush_once()
            if flushed == 0:
                return applied
            applied += flushed

    def close(self, checkpoint: bool = True) -> None:
        """Release the shard's durable handles (idempotent).

        A ``failed`` shard was already closed without a checkpoint;
        otherwise the summarizer is closed (by default after a final
        checkpoint) and the shard becomes ``stopped``.
        """
        with self._not_full:
            if self._state in ("stopped", "failed"):
                return
            self._state = "stopped"
            self._not_full.notify_all()
        # Close the final partial telemetry window before the handles go
        # away; without this flush the last window of every run would be
        # silently missing from timeseries output.
        self.summarizer.flush_timeseries()
        self.summarizer.close(checkpoint=checkpoint)
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.close()

    def stats(self) -> dict:
        """One rollup row: queue/backpressure/latency/summary signals."""
        summarizer = self.summarizer
        maintainer = summarizer.maintainer
        return {
            "state": self._state,
            "pending_points": self.pending,
            "submitted_points": self.submitted_points,
            "enqueued_points": self.enqueued_points,
            "applied_points": self.applied_points,
            "applied_batches": self.applied_batches,
            "shed_points": self.shed_points,
            "failed_points": self.failed_points,
            "dead_lettered_points": self.dead_lettered_points,
            "blocked_submissions": self.blocked_submissions,
            "blocked_seconds": self.blocked_seconds,
            "ingest_p95_seconds": self.ingest_p95_seconds(),
            "batches_durable": summarizer.batches_applied,
            "window_points": summarizer.size,
            "active_bubbles": (
                maintainer.active_count if maintainer is not None else 0
            ),
            "rejected_points": summarizer.rejected_points,
            "clustering": (
                self._clusterer.stats()
                if self._clusterer is not None
                else None
            ),
            "error": self.error,
            "failed_at": self.failed_at,
            "last_trace_id": self.last_trace_id,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Shard(tenant={self.tenant!r}, state={self._state!r}, "
            f"pending={self.pending})"
        )
