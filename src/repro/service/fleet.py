"""Fleet of shards: tenant routing, worker pool, rollups, recovery.

One :class:`FleetManager` owns one fleet root directory::

    <root>/
        fleet.json                 fleet-wide construction parameters
        tenants/
            <tenant-a>/            one DurableSummarizer state dir
                manifest.json      (see repro.persistence.checkpoint)
                wal.log
                snapshot-*.snap    (.npz from earlier versions)
            <tenant-b>/
                ...

Shards are created lazily on a tenant's first event: the tenant id (a
directory-safe string, validated by the NDJSON parser) becomes the
state-directory name, and the shard's summarizer seed is derived
deterministically from the fleet seed and the tenant id — so a fleet
rebuilt from the same event stream produces the same per-tenant
summaries regardless of tenant arrival order.

Dispatch model: exactly one dispatcher thread calls :meth:`submit`.
With ``workers > 0`` the fleet runs that many flusher threads and each
tenant is striped onto one of them (``crc32(tenant) % workers``), so a
shard is only ever flushed by a single thread and per-tenant event
order is preserved end to end. With ``workers == 0`` the dispatcher
flushes inline whenever a shard's queue reaches one full micro-batch —
the *synchronous* mode, whose batch boundaries are a pure function of
the event stream (the determinism contract in docs/SERVICE.md).

Crash recovery is fleet-wide: :meth:`FleetManager.recover` re-opens
every tenant directory under ``tenants/`` through
:meth:`~repro.streaming.DurableSummarizer.recover`, which replays each
shard's WAL tail through the normal maintenance path — the recovered
per-shard summaries are bit-identical to the state the crashed (or
drained) process had durably acknowledged.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
import zlib
from dataclasses import dataclass, replace

from ..exceptions import (
    EventError,
    InvalidConfigError,
    PersistenceError,
    ServiceError,
)
from ..faults import FAILPOINTS, declare_failpoint, fsync_directory
from ..observability import (
    EventTracer,
    Observability,
    SpanTracer,
    bucket_quantile,
    collect_health,
)
from ..streaming import DurableSummarizer
from .deadletter import (
    DeadLetter,
    append_dead_letters,
    deadletter_path,
)
from .events import PointEvent, valid_tenant
from .shard import BACKPRESSURE_POLICIES, Shard

__all__ = [
    "FLEET_VERSION",
    "FleetConfig",
    "FleetManager",
    "render_rollup",
    "tenant_seed",
]

#: Version stamped on ``fleet.json``.
FLEET_VERSION = 1

# Fired at the top of FleetManager.submit, before the event is routed
# anywhere — a crash here loses only the one in-flight, unacknowledged
# event; an error surfaces to the dispatcher as a plain OSError.
_FP_SUBMIT_START = declare_failpoint("fleet.submit.start")


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-wide parameters.

    The first block (``dim`` … ``on_bad_point``) is durable — persisted
    in ``fleet.json`` and applied to every shard's summarizer. The
    second block (``queue_points`` … ``trace``) is runtime-only service
    tuning: it shapes queues and threading, never the durable history,
    so it may change freely between runs of the same fleet.
    """

    dim: int = 2
    window_size: int = 5_000
    points_per_bubble: int = 50
    checkpoint_every: int = 16
    seed: int | None = 0
    fsync: bool = True
    on_bad_point: str = "skip"

    queue_points: int = 1_024
    batch_points: int = 64
    backpressure: str = "block"
    workers: int = 4
    #: Runtime-only: write each shard's span events to
    #: ``tenants/<tenant>/trace.jsonl`` and stamp fleet trace ids onto
    #: every micro-batch, enabling cross-shard trace queries
    #: (``repro-bubbles trace``). Off by default — span *metrics* are
    #: always on; this adds the per-event JSONL sink.
    trace: bool = False

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise InvalidConfigError(
                f"workers must be >= 0, got {self.workers}"
            )
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise InvalidConfigError(
                f"unknown backpressure policy {self.backpressure!r} "
                f"(expected one of {BACKPRESSURE_POLICIES})"
            )


def tenant_seed(fleet_seed: int | None, tenant: str) -> int | None:
    """Deterministic per-tenant summarizer seed.

    Mixes the fleet seed with a CRC of the tenant id, so two tenants
    never share an RNG stream and the derivation is stable across
    processes, platforms, and tenant arrival order.
    """
    if fleet_seed is None:
        return None
    return (int(fleet_seed) ^ zlib.crc32(tenant.encode("utf-8"))) & 0x7FFFFFFF


def _shard_observability(
    config: FleetConfig, tenant_dir: pathlib.Path
) -> Observability:
    """One shard's private handle: spans always, a trace sink on demand.

    With ``config.trace`` the handle gets an append-mode JSONL sink at
    ``<tenant_dir>/trace.jsonl`` so span (and event) payloads survive
    the run; trace files accumulate across resumes of the same fleet —
    the trace query layer segments them by span-id generation.
    """
    tracer = None
    if config.trace:
        tracer = EventTracer(sink=pathlib.Path(tenant_dir) / "trace.jsonl")
    return Observability(tracer=tracer, spans=SpanTracer())


class _PoolWorker(threading.Thread):
    """One flusher thread draining a fixed stripe of shards."""

    def __init__(self, index: int, on_failure=None) -> None:
        super().__init__(name=f"repro-shard-worker-{index}", daemon=True)
        self.cond = threading.Condition()
        self.shards: list[Shard] = []
        self._on_failure = on_failure
        self._stop_when_idle = False
        self._stop_now = False

    def add(self, shard: Shard) -> None:
        with self.cond:
            self.shards.append(shard)
            self.cond.notify()

    def replace(self, old: Shard, new: Shard) -> None:
        """Swap a failed shard for its supervisor-built replacement."""
        with self.cond:
            self.shards = [new if s is old else s for s in self.shards]
            self.cond.notify()

    def shutdown(self, immediate: bool = False) -> None:
        with self.cond:
            if immediate:
                self._stop_now = True
            self._stop_when_idle = True
            self.cond.notify()

    def _idle(self) -> bool:
        return all(
            shard.pending == 0 or shard.state in ("failed", "stopped")
            for shard in self.shards
        )

    def run(self) -> None:
        while True:
            with self.cond:
                shards = list(self.shards)
            applied = 0
            for shard in shards:
                if self._stop_now:
                    return
                try:
                    applied += shard.flush_once()
                except ServiceError:
                    # The shard is failed (recorded in its stats); let
                    # the fleet dead-letter the batch and — when a
                    # supervisor is attached — restart it on this very
                    # thread, so the stripe's ordering is preserved.
                    if self._on_failure is not None:
                        try:
                            self._on_failure(shard)
                        except Exception:
                            pass  # supervision must never kill a worker
                    continue
            with self.cond:
                if self._stop_now:
                    return
                if self._stop_when_idle and self._idle():
                    return
                if applied == 0:
                    # Timed wait doubles as the missed-notify backstop:
                    # a submit between the scan and this wait is picked
                    # up at the next tick.
                    self.cond.wait(timeout=0.02)


class FleetManager:
    """Hosts many tenant shards under one fleet root (see module doc).

    Args:
        root: the fleet directory; created when missing. Must not
            already hold a fleet (use :meth:`recover` for that).
        config: fleet-wide parameters; defaults to :class:`FleetConfig`.
        obs: optional fleet-level observability handle used only for
            dispatcher-side events; each shard always gets its own
            private handle so per-tenant metrics never mix.
    """

    def __init__(
        self,
        root: str | pathlib.Path,
        config: FleetConfig | None = None,
        obs: Observability | None = None,
        _recovered_shards: dict[str, Shard] | None = None,
    ) -> None:
        self._root = pathlib.Path(root)
        self._config = config if config is not None else FleetConfig()
        self._obs = obs
        self._shards: dict[str, Shard] = {}
        self._shard_worker: dict[str, _PoolWorker] = {}
        self._lock = threading.Lock()
        self._failure_lock = threading.Lock()
        self._supervisor = None
        self._slo = None
        self._draining = False
        self._closed = False
        self._started = time.perf_counter()
        self.invalid_points = 0
        self.failed_submissions = 0
        self._trace_lock = threading.Lock()
        self._trace_seq = 0
        # Wall-clock epoch token (constructor only — never a hot path):
        # disambiguates trace ids across resumed runs of one fleet,
        # since trace.jsonl files are append-mode and span numbering
        # restarts with each process.
        self._trace_epoch = format(int(time.time()) & 0xFFFFFF, "06x")

        if _recovered_shards is None:
            if (self._root / "fleet.json").exists():
                raise PersistenceError(
                    f"{self._root} already holds a fleet; use "
                    "FleetManager.recover() to resume it"
                )
            self._tenants_dir.mkdir(parents=True, exist_ok=True)
            self._write_fleet_manifest()
        self._workers: list[_PoolWorker] = [
            _PoolWorker(i, on_failure=self._on_shard_failed)
            for i in range(self._config.workers)
        ]
        for worker in self._workers:
            worker.start()
        if _recovered_shards:
            for tenant, shard in sorted(_recovered_shards.items()):
                self._adopt(tenant, shard)

    # ------------------------------------------------------------------
    # Layout + manifest
    # ------------------------------------------------------------------
    @property
    def root(self) -> pathlib.Path:
        """The fleet directory."""
        return self._root

    @property
    def config(self) -> FleetConfig:
        """The fleet-wide parameters in force."""
        return self._config

    @property
    def _tenants_dir(self) -> pathlib.Path:
        return self._root / "tenants"

    def tenant_dir(self, tenant: str) -> pathlib.Path:
        """The durable state directory backing ``tenant``'s shard."""
        return self._tenants_dir / tenant

    def _write_fleet_manifest(self) -> None:
        document = {
            "fleet_version": FLEET_VERSION,
            "dim": int(self._config.dim),
            "window_size": int(self._config.window_size),
            "points_per_bubble": int(self._config.points_per_bubble),
            "checkpoint_every": int(self._config.checkpoint_every),
            "seed": (
                None if self._config.seed is None else int(self._config.seed)
            ),
            "on_bad_point": self._config.on_bad_point,
        }
        payload = json.dumps(document, indent=2, sort_keys=True) + "\n"
        tmp = self._root / "fleet.json.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            if self._config.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, self._root / "fleet.json")
        if self._config.fsync:
            fsync_directory(self._root)

    @staticmethod
    def read_fleet_manifest(root: str | pathlib.Path) -> dict:
        """Load and validate ``fleet.json`` under ``root``."""
        path = pathlib.Path(root) / "fleet.json"
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise PersistenceError(
                f"{pathlib.Path(root)} holds no fleet (fleet.json is "
                "missing); start a new fleet instead of recovering"
            ) from None
        except (OSError, json.JSONDecodeError) as exc:
            raise PersistenceError(
                f"unreadable fleet.json in {root}: {exc}"
            ) from exc
        version = int(document.get("fleet_version", -1))
        if version != FLEET_VERSION:
            raise PersistenceError(
                f"unsupported fleet version {version} in {root}"
            )
        return document

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        root: str | pathlib.Path,
        config: FleetConfig | None = None,
        obs: Observability | None = None,
    ) -> "FleetManager":
        """Re-open a fleet: every tenant directory is crash-recovered.

        Durable parameters come from ``fleet.json``; the runtime block
        of ``config`` (queues, batching, backpressure, workers, fsync)
        overrides the defaults when given. Each shard's summarizer is
        recovered through the normal snapshot + WAL-tail replay, so the
        fleet resumes bit-identical to its durably acknowledged state.
        """
        manifest = cls.read_fleet_manifest(root)
        runtime = config if config is not None else FleetConfig()
        merged = replace(
            runtime,
            dim=int(manifest["dim"]),
            window_size=int(manifest["window_size"]),
            points_per_bubble=int(manifest["points_per_bubble"]),
            checkpoint_every=int(manifest["checkpoint_every"]),
            seed=(
                None if manifest["seed"] is None else int(manifest["seed"])
            ),
            on_bad_point=str(manifest["on_bad_point"]),
        )
        shards: dict[str, Shard] = {}
        tenants_dir = pathlib.Path(root) / "tenants"
        tenant_dirs = (
            sorted(p for p in tenants_dir.iterdir() if p.is_dir())
            if tenants_dir.exists()
            else []
        )
        try:
            for tenant_path in tenant_dirs:
                if not (tenant_path / "manifest.json").exists():
                    continue  # never initialized (crashed pre-manifest)
                shard_obs = _shard_observability(merged, tenant_path)
                summarizer = DurableSummarizer.recover(
                    tenant_path, fsync=merged.fsync, obs=shard_obs
                )
                shards[tenant_path.name] = Shard(
                    tenant_path.name,
                    summarizer,
                    queue_points=merged.queue_points,
                    batch_points=merged.batch_points,
                    backpressure=merged.backpressure,
                    obs=shard_obs,
                )
        except BaseException:
            for shard in shards.values():
                shard.close(checkpoint=False)
            raise
        return cls(
            root, config=merged, obs=obs, _recovered_shards=shards
        )

    # ------------------------------------------------------------------
    # Shard routing
    # ------------------------------------------------------------------
    @property
    def tenants(self) -> tuple[str, ...]:
        """Tenant ids with live shards, sorted."""
        with self._lock:
            return tuple(sorted(self._shards))

    def shard(self, tenant: str) -> Shard:
        """The live shard for ``tenant``.

        Raises:
            ServiceError: no shard exists for ``tenant``.
        """
        with self._lock:
            try:
                return self._shards[tenant]
            except KeyError:
                raise ServiceError(
                    f"no shard for tenant {tenant!r}"
                ) from None

    def _mint_trace(self, tenant: str) -> str:
        """Mint one fleet-unique trace id for a tenant micro-batch.

        The id is ``<tenant>:<epoch>:<seq>`` — ``:`` cannot occur in a
        valid tenant id, the epoch token survives fleet resumes, and the
        locked sequence makes ids unique across every shard and worker
        thread of this process.
        """
        with self._trace_lock:
            self._trace_seq += 1
            seq = self._trace_seq
        return f"{tenant}:{self._trace_epoch}:{seq:06d}"

    def _adopt(self, tenant: str, shard: Shard) -> None:
        """Register a shard and stripe it onto its pool worker."""
        shard.trace_minter = self._mint_trace
        with self._lock:
            self._shards[tenant] = shard
            if self._workers:
                worker = self._workers[
                    zlib.crc32(tenant.encode("utf-8")) % len(self._workers)
                ]
                self._shard_worker[tenant] = worker
                worker.add(shard)

    def _get_or_create(self, tenant: str) -> Shard:
        with self._lock:
            shard = self._shards.get(tenant)
        if shard is not None:
            return shard
        config = self._config
        shard_obs = _shard_observability(config, self.tenant_dir(tenant))
        shard_seed = tenant_seed(config.seed, tenant)
        summarizer = DurableSummarizer(
            self.tenant_dir(tenant),
            dim=config.dim,
            window_size=config.window_size,
            points_per_bubble=config.points_per_bubble,
            seed=shard_seed,
            checkpoint_every=config.checkpoint_every,
            fsync=config.fsync,
            obs=shard_obs,
            on_bad_point=config.on_bad_point,
        )
        shard = Shard(
            tenant,
            summarizer,
            queue_points=config.queue_points,
            batch_points=config.batch_points,
            backpressure=config.backpressure,
            obs=shard_obs,
        )
        self._adopt(tenant, shard)
        if self._obs is not None:
            self._obs.emit("shard_created", tenant=tenant)
        return shard

    # ------------------------------------------------------------------
    # Failure handling / self-healing
    # ------------------------------------------------------------------
    def attach_supervisor(self, supervisor) -> None:
        """Wire a :class:`~repro.service.supervisor.ShardSupervisor` in.

        From then on every shard failure is handed to the supervisor
        (restart under budget/backoff, circuit breaking); without one,
        failed shards stay failed and their residue is dead-lettered at
        drain.
        """
        self._supervisor = supervisor
        supervisor.bind(self)

    @property
    def supervisor(self):
        """The attached supervisor, or ``None``."""
        return self._supervisor

    @property
    def draining(self) -> bool:
        """Whether :meth:`drain` / :meth:`close` has begun."""
        return self._draining

    @property
    def closed(self) -> bool:
        """Whether the fleet has fully shut down."""
        return self._closed

    @property
    def obs(self) -> Observability | None:
        """The fleet-level observability handle, or ``None``."""
        return self._obs

    # ------------------------------------------------------------------
    # SLO evaluation
    # ------------------------------------------------------------------
    @property
    def slo(self):
        """The attached :class:`~repro.observability.SLOEngine`, or
        ``None``."""
        return self._slo

    def attach_slo(self, engine) -> None:
        """Wire an SLO engine in; its alerts surface in :meth:`rollup`.

        The engine is fed by :meth:`slo_tick` — called on a wall-clock
        cadence by the telemetry plane's ticker thread, and once more by
        :meth:`drain` so the final window is evaluated.
        """
        self._slo = engine

    def slo_tick(self, now: float | None = None) -> list[dict]:
        """Feed the SLO engine one fleet sample; returns firing alerts.

        A no-op (empty list) without an attached engine. Safe to call
        from any thread on any cadence.
        """
        engine = self._slo
        if engine is None:
            return []
        return engine.observe(self._slo_sample(), now=now)

    def _slo_sample(self) -> dict[str, int | float]:
        """Cumulative fleet totals in :data:`~repro.observability.slo.SAMPLE_KEYS` form.

        ``ingest_slow`` counts applied points whose queue-to-applied
        latency exceeded the engine's bound, split exactly at a bucket
        boundary of the per-shard ingest histogram. Counters are read
        without the fleet lock on purpose — each total is monotone, and
        the SLO engine clamps torn-read deltas.
        """
        with self._lock:
            shards = list(self._shards.values())
        submitted = shed = dead_lettered = 0
        ingest_count = ingest_slow = 0
        bound = (
            self._slo.ingest_latency_bound if self._slo is not None else 0.25
        )
        for shard in shards:
            submitted += shard.submitted_points
            shed += shard.shed_points
            dead_lettered += shard.dead_lettered_points
            histogram = shard._h_ingest
            fast = 0
            for upper, count in zip(
                histogram.bounds, histogram.bucket_counts()
            ):
                if upper <= bound:
                    fast += count
                else:
                    break
            total = histogram.count
            ingest_count += total
            ingest_slow += max(0, total - fast)
        breakers_open = 0
        supervisor = self._supervisor
        if supervisor is not None:
            breakers_open = (
                supervisor.stats()["breaker_states"].get("open", 0)
            )
        return {
            "submitted": submitted,
            "shed": shed,
            "dead_lettered": dead_lettered,
            "ingest_count": ingest_count,
            "ingest_slow": ingest_slow,
            "breakers_open": breakers_open,
        }

    def _dead_letter_items(
        self, shard: Shard, items, reason: str, error: str | None = None
    ) -> int:
        """Durably park queue items of ``shard`` in its dead-letter file."""
        if not items:
            return 0
        letters = [
            DeadLetter(
                event=PointEvent(
                    tenant=shard.tenant, point=tuple(point), label=label
                ),
                reason=reason,
                error=error,
            )
            for point, label, _arrival in items
        ]
        try:
            append_dead_letters(
                deadletter_path(self.tenant_dir(shard.tenant)),
                letters,
                fsync=self._config.fsync,
            )
        except OSError as exc:
            # The dead-letter file itself failed: put the items back in
            # the queue so they stay counted as pending (a later drain
            # or restart re-parks or re-applies them) rather than
            # vanishing from the accounting identity. Replay is
            # at-least-once, so a flush that made it to disk before the
            # error surfaced merely leaves duplicate letters behind.
            shard.adopt_items(items)
            if self._obs is not None:
                self._obs.emit(
                    "dead_letter_failed",
                    tenant=shard.tenant,
                    count=len(letters),
                    error=str(exc),
                )
            return 0
        shard.note_dead_lettered(len(letters))
        if self._obs is not None:
            self._obs.emit(
                "dead_lettered",
                tenant=shard.tenant,
                count=len(letters),
                reason=reason,
            )
        return len(letters)

    def _dead_letter_event(
        self, shard: Shard, event: PointEvent, reason: str,
        error: str | None = None,
    ) -> None:
        """Durably park one in-flight event (breaker-open path)."""
        append_dead_letters(
            deadletter_path(self.tenant_dir(shard.tenant)),
            [DeadLetter(event=event, reason=reason, error=error)],
            fsync=self._config.fsync,
        )
        shard.note_dead_lettered(1)
        if self._obs is not None:
            self._obs.emit(
                "dead_lettered", tenant=shard.tenant, count=1, reason=reason
            )

    def _on_shard_failed(self, shard: Shard) -> None:
        """Harvest one shard-failure incident (idempotent).

        The poisoned micro-batch — which reached neither the WAL nor
        the summary — is dead-lettered durably, then the incident is
        handed to the supervisor (when one is attached and the fleet is
        not draining) to restart the tenant or trip its breaker.
        Callable from the dispatcher and any pool worker; only the
        first caller per incident does the work.
        """
        if shard.state != "failed":
            return
        with self._failure_lock:
            first = not shard.failure_handled
            shard.failure_handled = True
        if not first:
            return
        self._dead_letter_items(
            shard, shard.take_failed_items(), "append_failed", shard.error
        )
        if self._obs is not None:
            self._obs.emit(
                "shard_failed", tenant=shard.tenant, error=shard.error
            )
        supervisor = self._supervisor
        if supervisor is not None and not self._draining:
            supervisor.handle_failure(shard.tenant)

    def _replace_shard(self, old: Shard, new: Shard) -> None:
        """Adopt a supervisor-built replacement for a failed shard."""
        with self._lock:
            self._shards[new.tenant] = new
            worker = self._shard_worker.get(new.tenant)
        if worker is not None:
            worker.replace(old, new)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def submit(self, event: PointEvent) -> bool:
        """Route one event to its tenant's shard; returns acceptance.

        ``False`` means the event was dropped: shed by backpressure,
        rejected for a dimension mismatch, or aimed at a failed shard
        (each counted separately). Dimension screening happens *here*
        because a wrong-arity row cannot even be assembled into the
        micro-batch matrix, let alone reach the summarizer's own
        screening.

        Raises:
            ServiceError: the fleet is draining or closed.
            EventError: the tenant id is invalid (the NDJSON parser
                normally rejects these earlier).
        """
        FAILPOINTS.fire(_FP_SUBMIT_START)
        if self._draining or self._closed:
            raise ServiceError(
                "the fleet is draining and no longer accepts events"
            )
        if not valid_tenant(event.tenant):
            raise EventError(f"invalid tenant {event.tenant!r}")
        if len(event.point) != self._config.dim:
            self.invalid_points += 1
            return False
        supervisor = self._supervisor
        if supervisor is not None and supervisor.breaker_blocks(
            event.tenant
        ):
            # The tenant is persistently poisoned: degrade to durable
            # shed-with-accounting instead of crash-looping restarts.
            shard = self._get_or_create(event.tenant)
            # Park first, count second: if the dead-letter append fails
            # the error propagates with nothing counted, so the
            # accounting identity never claims a point that is neither
            # durable nor acknowledged.
            self._dead_letter_event(
                shard, event, "breaker_open", error=shard.error
            )
            shard.note_breaker_rejected(1)
            return False
        # Fetched *after* the breaker check: a half-open probe may have
        # just swapped a restarted shard into the routing table.
        shard = self._get_or_create(event.tenant)
        try:
            accepted = shard.submit(event.point, event.label)
        except ServiceError:
            # The shard failed earlier; its error is in the rollup.
            self.failed_submissions += 1
            self._on_shard_failed(shard)
            return False
        if not accepted:
            return False
        if self._workers:
            if shard.pending == 1:
                # Empty→non-empty transition: wake the stripe's worker
                # now instead of waiting out its idle tick.
                worker = self._shard_worker[event.tenant]
                with worker.cond:
                    worker.cond.notify()
        else:
            try:
                while shard.pending >= shard.batch_points:
                    shard.flush_once()
            except ServiceError:
                # Same isolation as the pool workers: the shard is now
                # failed, the fleet carries on. The poisoned batch is
                # dead-lettered and a supervisor (when attached) can
                # restart the tenant right here on the dispatcher
                # thread, keeping synchronous mode deterministic.
                self.failed_submissions += 1
                self._on_shard_failed(shard)
                return False
        return True

    # ------------------------------------------------------------------
    # Drain / shutdown
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Gracefully stop: flush every queue, checkpoint, close.

        Idempotent. After it returns, every non-failed shard has applied
        all accepted events, written a final checkpoint, and released
        its file handles; :meth:`rollup` remains readable.
        """
        if self._closed:
            return
        self._draining = True
        with self._lock:
            shards = list(self._shards.values())
        for shard in shards:
            shard.begin_drain()
        for worker in self._workers:
            worker.shutdown()
        for worker in self._workers:
            worker.join()
        # Re-capture: a worker-thread supervisor restart may have
        # swapped replacement shards in while the first list was taken.
        with self._lock:
            shards = list(self._shards.values())
        for shard in shards:
            shard.begin_drain()
        for shard in shards:
            if shard.state == "failed":
                continue
            try:
                shard.drain_flush()
            except ServiceError:
                # Entered failed state during the final flush: harvest
                # the poisoned batch (no restart — we are draining).
                self._on_shard_failed(shard)
                continue
        for shard in shards:
            if shard.state == "failed":
                # Nothing will ever flush these again: the poisoned
                # batch (if still unharvested) and the queued residue
                # go to the dead-letter file, keeping the accounting
                # identity exact and the points replayable.
                self._dead_letter_items(
                    shard,
                    shard.take_failed_items(),
                    "append_failed",
                    shard.error,
                )
                self._dead_letter_items(
                    shard,
                    shard.take_pending_items(),
                    "drain_failed_shard",
                    shard.error,
                )
        for shard in shards:
            shard.close(checkpoint=True)
        # Failed shards skip Shard.close (their tracer sink stayed open
        # for a possible supervisor restart); close every sink now so
        # trace.jsonl tails are durable. EventTracer.close is idempotent.
        for shard in shards:
            tracer = shard.obs.tracer
            if tracer is not None:
                tracer.close()
        self.slo_tick()
        self._closed = True
        if self._obs is not None:
            self._obs.emit("fleet_drained", tenants=len(shards))

    def close(self) -> None:
        """Stop immediately without flushing queues (crash-like).

        Queued-but-unapplied points are lost *from memory only* — they
        were never acknowledged as durable. Durably appended batches
        survive in each shard's WAL; :meth:`recover` replays them.
        """
        if self._closed:
            return
        self._draining = True
        for worker in self._workers:
            worker.shutdown(immediate=True)
        for worker in self._workers:
            worker.join()
        with self._lock:
            shards = list(self._shards.values())
        for shard in shards:
            shard.close(checkpoint=False)
        for shard in shards:
            tracer = shard.obs.tracer
            if tracer is not None:
                tracer.close()
        self._closed = True

    def __enter__(self) -> "FleetManager":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        if exc_type is None:
            self.drain()
        else:
            self.close()

    # ------------------------------------------------------------------
    # Rollups
    # ------------------------------------------------------------------
    def rollup(self) -> dict:
        """Fleet-wide health rollup (``schema: 1``).

        Aggregates every shard's stats plus fleet totals: applied
        points/sec over the fleet's lifetime, the fleet-wide p95 ingest
        latency (merged across the shard histograms, bucket-granular),
        shard state counts, and backpressure/shed/invalid tallies.
        """
        with self._lock:
            shards = dict(sorted(self._shards.items()))
        tenants = {t: shard.stats() for t, shard in shards.items()}
        states: dict[str, int] = {}
        totals = {
            "submitted_points": 0,
            "enqueued_points": 0,
            "applied_points": 0,
            "applied_batches": 0,
            "shed_points": 0,
            "failed_points": 0,
            "dead_lettered_points": 0,
            "blocked_submissions": 0,
            "blocked_seconds": 0.0,
            "pending_points": 0,
        }
        for row in tenants.values():
            states[row["state"]] = states.get(row["state"], 0) + 1
            for key in totals:
                totals[key] += row[key]
        elapsed = time.perf_counter() - self._started
        merged_p95 = self._merged_ingest_p95(shards.values())
        fleet_section = {
            "tenants": len(shards),
            "states": states,
            "elapsed_seconds": elapsed,
            "points_per_second": (
                totals["applied_points"] / elapsed if elapsed else 0.0
            ),
            "ingest_p95_seconds": merged_p95,
            "invalid_points": self.invalid_points,
            "failed_submissions": self.failed_submissions,
            **totals,
        }
        if self._supervisor is not None:
            fleet_section["supervision"] = self._supervisor.stats()
        if self._slo is not None:
            fleet_section["slo"] = self._slo.summary()
        return {
            "schema": 1,
            "root": str(self._root),
            "fleet": fleet_section,
            "tenants": tenants,
        }

    @staticmethod
    def _merged_ingest_p95(shards) -> float | None:
        """p95 over the union of all shards' ingest histograms."""
        histograms = [shard._h_ingest for shard in shards]
        if not histograms:
            return None
        counts = [
            sum(bucket)
            for bucket in zip(*(h.bucket_counts() for h in histograms))
        ]
        return bucket_quantile(histograms[0].bounds, counts, 0.95)

    def fleet_health(self) -> dict:
        """Rollup plus one full per-shard health document per tenant."""
        with self._lock:
            shards = dict(sorted(self._shards.items()))
        return {
            "schema": 1,
            "root": str(self._root),
            "rollup": self.rollup(),
            "shards": {
                tenant: collect_health(
                    shard.obs,
                    summarizer=shard.summarizer,
                    source=str(self.tenant_dir(tenant)),
                )
                for tenant, shard in shards.items()
            },
        }


def render_rollup(rollup: dict) -> str:
    """Render a fleet rollup as an aligned plain-text report."""
    fleet = rollup["fleet"]
    lines = [
        f"fleet rollup (schema {rollup['schema']})",
        f"root: {rollup['root']}",
        "",
        (
            f"tenants {fleet['tenants']}  states "
            + " ".join(
                f"{state}={count}"
                for state, count in sorted(fleet["states"].items())
            )
        ),
        (
            f"applied {fleet['applied_points']} points in "
            f"{fleet['applied_batches']} batches "
            f"({fleet['points_per_second']:.0f} points/s over "
            f"{fleet['elapsed_seconds']:.2f}s)"
        ),
        (
            f"backpressure: {fleet['blocked_submissions']} blocked "
            f"submissions ({fleet['blocked_seconds']:.3f}s), "
            f"{fleet['shed_points']} shed"
        ),
        (
            f"dropped: {fleet['invalid_points']} invalid points, "
            f"{fleet['failed_points']} rejected by failed shards "
            f"({fleet['failed_submissions']} failed submissions)"
        ),
        (
            f"dead-lettered: {fleet['dead_lettered_points']} points "
            "(inspect/replay with 'repro-bubbles dlq')"
        ),
        (
            "fleet ingest p95 <= "
            + (
                f"{fleet['ingest_p95_seconds'] * 1e3:.1f}ms"
                if fleet["ingest_p95_seconds"] is not None
                else "inf"
            )
        ),
    ]
    supervision = fleet.get("supervision")
    if supervision is not None:
        lines.append(
            f"supervision: {supervision['restarts']} restarts "
            f"({supervision['restart_failures']} failed), breakers "
            + " ".join(
                f"{state}={count}"
                for state, count in sorted(
                    supervision["breaker_states"].items()
                )
            )
        )
    slo = fleet.get("slo")
    if slo is not None:
        lines.append(
            f"slo: {slo['firing']} firing / "
            f"{len(slo['objectives'])} objectives "
            + " ".join(
                f"{row['name']}={row['state']}"
                for row in slo["objectives"]
            )
        )
    lines.append("")
    tenants = rollup["tenants"]
    if not tenants:
        lines.append("(no tenants)")
        return "\n".join(lines) + "\n"
    width = max(len(t) for t in tenants)
    lines.append(
        f"{'tenant'.ljust(width)}  {'state':>8}  {'points':>8}  "
        f"{'batches':>7}  {'shed':>6}  {'failed':>6}  {'dlq':>5}  "
        f"{'blocked':>7}  {'p95_ms':>8}  {'window':>7}  {'bubbles':>7}"
    )
    failed_rows: list[tuple[str, dict]] = []
    for tenant, row in tenants.items():
        p95 = row["ingest_p95_seconds"]
        p95_text = "-" if p95 is None else f"{p95 * 1e3:.1f}"
        lines.append(
            f"{tenant.ljust(width)}  {row['state']:>8}  "
            f"{row['applied_points']:>8}  {row['applied_batches']:>7}  "
            f"{row['shed_points']:>6}  {row['failed_points']:>6}  "
            f"{row['dead_lettered_points']:>5}  "
            f"{row['blocked_submissions']:>7}  "
            f"{p95_text:>8}  {row['window_points']:>7}  "
            f"{row['active_bubbles']:>7}"
        )
        if row["state"] == "failed":
            failed_rows.append((tenant, row))
    for tenant, row in failed_rows:
        failed_at = row.get("failed_at")
        age = (
            "unknown age"
            if failed_at is None
            else f"{max(0.0, time.monotonic() - failed_at):.1f}s ago"
        )
        lines.append(
            f"!! {tenant}: failed {age}: {row.get('error') or 'unknown'}"
        )
    return "\n".join(lines) + "\n"
