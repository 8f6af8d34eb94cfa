"""Unified observability: metrics registry, event tracing, exposition.

The paper evaluates the incremental scheme in *numbers of distance
computations* (Figures 10-11) and in maintenance activity — merge/split
rounds and over-/under-filled transitions (Section 4.2). This package
makes those signals first-class at runtime:

* :mod:`~repro.observability.registry` — counters, gauges, fixed-bucket
  histograms, and monotonic-clock timers, collected per run or in the
  process-wide registry (:func:`get_registry`);
* :mod:`~repro.observability.tracer` — structured maintenance/streaming/
  persistence events as timestamped JSON lines;
* :mod:`~repro.observability.spans` — hierarchical (parented) spans
  timing every instrumented operation, folded into per-op latency
  histograms;
* :mod:`~repro.observability.timeseries` — bounded-ring windowed
  counter deltas and gauges (JSONL);
* :mod:`~repro.observability.health` — one-page health reports (text +
  JSON) aggregating all of the above;
* :mod:`~repro.observability.export` — JSON and Prometheus text
  exposition of registry snapshots;
* :mod:`~repro.observability.slo` — multi-window burn-rate evaluation
  of declared service objectives, with firing/resolved alerts;
* :mod:`~repro.observability.plane` — the live HTTP telemetry plane
  (``/metrics``, ``/health``, ``/ready``, ``/tenants/<id>/stats``);
* :mod:`~repro.observability.tracequery` — span-tree reconstruction,
  per-op quantiles, and critical paths from per-tenant trace JSONL.

Instrumented components (:class:`~repro.core.maintenance.IncrementalMaintainer`,
:class:`~repro.streaming.SlidingWindowSummarizer`,
:class:`~repro.streaming.DurableSummarizer`,
:class:`~repro.persistence.checkpoint.CheckpointManager`) accept one
:class:`Observability` handle; passing ``None`` (the default) disables
instrumentation entirely, so un-instrumented hot paths pay nothing.

Example:
    >>> from repro.observability import Observability
    >>> obs = Observability()
    >>> obs.metrics.counter("demo_total").inc()
    >>> obs.metrics.snapshot().value("demo_total")
    1

Metric names, units, and the paper figures they back are catalogued in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from .export import (
    escape_help,
    escape_label_value,
    render_text,
    to_json,
    to_prometheus,
    write_metrics,
)
from .health import (
    HEALTH_SCHEMA_VERSION,
    collect_health,
    render_health,
    write_health,
)
from .registry import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricSample,
    MetricsRegistry,
    MetricsSnapshot,
    Timer,
    bucket_quantile,
    get_registry,
)
from .spans import NULL_SPAN, Span, SpanTracer, maybe_span
from .timeseries import (
    TIMESERIES_SCHEMA_VERSION,
    TimeseriesRecorder,
    WindowSample,
)
from .tracer import (
    EVENT_KINDS,
    TRACE_SCHEMA_VERSION,
    EventTracer,
    TraceEvent,
)

__all__ = [
    "Counter",
    "DEFAULT_OBJECTIVES",
    "DEFAULT_TIME_BUCKETS",
    "EVENT_KINDS",
    "EventTracer",
    "Gauge",
    "HEALTH_SCHEMA_VERSION",
    "Histogram",
    "MetricSample",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_SPAN",
    "Observability",
    "PLANE_SCHEMA_VERSION",
    "SLO_SCHEMA_VERSION",
    "SLOEngine",
    "SLObjective",
    "Span",
    "SpanRecord",
    "SpanTracer",
    "TIMESERIES_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "TelemetryListener",
    "Timer",
    "TimeseriesRecorder",
    "TraceEvent",
    "TraceSet",
    "WindowSample",
    "bucket_quantile",
    "collect_health",
    "critical_path",
    "escape_help",
    "escape_label_value",
    "get_registry",
    "load_fleet_traces",
    "maybe_span",
    "merged_fleet_snapshot",
    "read_span_records",
    "render_health",
    "render_text",
    "render_trace_report",
    "to_json",
    "to_prometheus",
    "write_health",
    "write_metrics",
]


class Observability:
    """One handle bundling metrics, tracing, spans, and time-series.

    Args:
        registry: the metrics sink; a fresh private
            :class:`MetricsRegistry` when omitted (pass
            :func:`get_registry` for the process-wide one).
        tracer: the event sink; ``None`` records no event payloads —
            events are still *counted* in the registry
            (``repro_events_total{kind=...}``), so split/migration counts
            survive even metric-only runs.
        spans: a :class:`SpanTracer` enabling hierarchical operation
            timing via :meth:`span`; ``None`` (the default) makes
            :meth:`span` a true no-op (it returns the shared
            :data:`NULL_SPAN`).
        timeseries: a :class:`TimeseriesRecorder` enabling windowed
            counter deltas; ``None`` disables it. The streaming layer
            ticks the recorder once per appended batch.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: EventTracer | None = None,
        spans: SpanTracer | None = None,
        timeseries: TimeseriesRecorder | None = None,
    ) -> None:
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self.spans = spans
        self.timeseries = timeseries
        self._event_counters: dict[str, Counter] = {}
        if spans is not None:
            spans.bind(self)
        if timeseries is not None:
            timeseries.bind(self)

    def span(self, op: str, **fields):
        """A context manager timing ``op`` as a parented span.

        Returns :data:`NULL_SPAN` (a shared no-op) when no
        :class:`SpanTracer` is attached, so call sites never branch.
        """
        if self.spans is None:
            return NULL_SPAN
        return self.spans.span(op, fields)

    def emit(self, kind: str, **fields) -> None:
        """Record one event: counted in the registry, traced if a tracer
        is attached."""
        self.emit_fields(kind, fields)

    def emit_fields(self, kind: str, fields: dict) -> None:
        """:meth:`emit` with a pre-built payload dict (hot-path form)."""
        counter = self._event_counters.get(kind)
        if counter is None:
            counter = self.metrics.counter(
                "repro_events_total",
                help="Structured events emitted, by kind.",
                labels={"kind": kind},
            )
            self._event_counters[kind] = counter
        counter.inc()
        if self.tracer is not None:
            self.tracer.emit_fields(kind, fields)

    def event_count(self, kind: str) -> int:
        """How many events of ``kind`` this handle has recorded."""
        counter = self._event_counters.get(kind)
        return 0 if counter is None else int(counter.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{len(self.metrics)} metrics"]
        parts.append("traced" if self.tracer is not None else "untraced")
        if self.spans is not None:
            parts.append("spans")
        if self.timeseries is not None:
            parts.append("timeseries")
        return f"Observability({', '.join(parts)})"


# These modules build on the Observability handle defined above, so
# their imports must follow the class definition.
from .plane import (  # noqa: E402
    PLANE_SCHEMA_VERSION,
    TelemetryListener,
    merged_fleet_snapshot,
)
from .slo import (  # noqa: E402
    DEFAULT_OBJECTIVES,
    SLO_SCHEMA_VERSION,
    SLOEngine,
    SLObjective,
)
from .tracequery import (  # noqa: E402
    SpanRecord,
    TraceSet,
    critical_path,
    load_fleet_traces,
    read_span_records,
    render_trace_report,
)
