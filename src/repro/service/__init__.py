"""Multi-tenant sharded ingestion service over durable summarizers.

The single-process engine summarizes *one* stream; this package turns
it into a long-running service hosting many independent streams — the
system-level realization of the paper's framing of data-bubble
summarization as the online front-end for dynamic hierarchical
clustering, serving many concurrently evolving databases at once.

Layers (each its own module):

* :mod:`~repro.service.events` — the NDJSON point-event wire format
  (parse/encode/stream, with strict/skip malformed-line policies);
* :mod:`~repro.service.shard` — one tenant's bounded queue with
  explicit backpressure (block or shed) and micro-batched appends into
  its :class:`~repro.streaming.DurableSummarizer`;
* :mod:`~repro.service.fleet` — tenant routing, the flusher worker
  pool, the fleet directory layout (one WAL dir per tenant under
  ``tenants/``), graceful drain with checkpointing, fleet-wide crash
  recovery, and health rollups;
* :mod:`~repro.service.loadgen` — a seeded load generator with
  Zipf-skewed tenant sizes and bursty Poisson arrivals;
* :mod:`~repro.service.server` — the serve loop gluing an NDJSON
  source to a fleet, with drop accounting and drain-on-exit;
* :mod:`~repro.service.deadletter` — the durable per-tenant
  dead-letter queue for events the fleet could not apply (poisoned
  batches, breaker-shed traffic, failed-shard drain residue);
* :mod:`~repro.service.supervisor` — shard self-healing: bounded
  restarts with exponential backoff and per-tenant circuit breakers.

CLI surface: ``repro-bubbles loadgen`` writes an event stream,
``repro-bubbles serve`` ingests one into a fleet directory. See
docs/SERVICE.md for the architecture, the backpressure policy, and the
determinism contract.
"""

from __future__ import annotations

from .deadletter import (
    DEADLETTER_REASONS,
    DEADLETTER_SCHEMA_VERSION,
    DeadLetter,
    ReplayReport,
    append_dead_letters,
    deadletter_path,
    read_dead_letters,
    replay_dead_letters,
)
from .events import (
    EVENT_SCHEMA_VERSION,
    PointEvent,
    encode_event,
    parse_event,
    read_events,
    valid_tenant,
    write_events,
)
from .fleet import (
    FLEET_VERSION,
    FleetConfig,
    FleetManager,
    render_rollup,
    tenant_seed,
)
from .loadgen import LoadSpec, generate_events, tenant_ids, tenant_weights
from .server import ServeStats, serve_events, serve_ndjson
from .shard import (
    BACKPRESSURE_POLICIES,
    SHARD_STATES,
    Shard,
)
from .supervisor import BREAKER_STATES, CircuitBreaker, ShardSupervisor

__all__ = [
    "BACKPRESSURE_POLICIES",
    "BREAKER_STATES",
    "CircuitBreaker",
    "DEADLETTER_REASONS",
    "DEADLETTER_SCHEMA_VERSION",
    "DeadLetter",
    "EVENT_SCHEMA_VERSION",
    "FLEET_VERSION",
    "FleetConfig",
    "FleetManager",
    "LoadSpec",
    "PointEvent",
    "ReplayReport",
    "SHARD_STATES",
    "ServeStats",
    "Shard",
    "ShardSupervisor",
    "append_dead_letters",
    "deadletter_path",
    "encode_event",
    "generate_events",
    "parse_event",
    "read_dead_letters",
    "read_events",
    "render_rollup",
    "replay_dead_letters",
    "serve_events",
    "serve_ndjson",
    "tenant_ids",
    "tenant_seed",
    "tenant_weights",
    "valid_tenant",
    "write_events",
]
