"""Health reports: one-page summary of a run's quality and cost signals.

The metrics registry, the event trace, the span histograms, and the
windowed time-series each expose one axis of a run; this module folds
them into the single document an operator actually wants — "is bubble
quality degrading, is Lemma 1 pruning still paying, where does the time
go, did anything degrade or self-heal?" — rendered as JSON (``"schema":
1``) or aligned text.

:func:`collect_health` reads a live :class:`~repro.observability.Observability`
handle (plus, when available, the summarizer itself for the β quality
histogram of Definitions 2-3); the ``repro-bubbles report`` CLI command
builds the same document from a ``--wal-dir`` state directory by
recovering it under a fresh instrumented handle, so the span latency
table reflects genuinely measured recovery/audit work.

Report sections:

* ``stream`` — window fill, active bubbles, batches/points ingested.
* ``quality`` — good/under-filled/over-filled histogram, β min/median/
  max and the Chebyshev boundaries (Definition 3).
* ``pruning`` — distances computed vs pruned and the savings ratio
  (the Figures 10-11 quantity).
* ``spans`` — per-operation latency table (count, total, mean, ~p95
  from the fixed histogram buckets).
* ``events`` — event counts by kind.
* ``robustness`` — recoveries, audits/repairs, degraded-mode incidents
  (quarantined snapshots, torn WAL tails, stale tmp sweeps, IO retries).
* ``timeseries`` — retained/dropped window counts when a recorder is
  attached.
* ``slo`` — burn-rate objective states when an
  :class:`~repro.observability.slo.SLOEngine` summary is supplied.
"""

from __future__ import annotations

import json
from pathlib import Path

from .registry import MetricsSnapshot, bucket_quantile
from .spans import SPAN_SECONDS_METRIC

__all__ = [
    "HEALTH_SCHEMA_VERSION",
    "collect_health",
    "render_health",
    "write_health",
]

#: Version stamped on every health-report document.
HEALTH_SCHEMA_VERSION = 1


def collect_health(
    obs, summarizer=None, source: str = "live", slo: dict | None = None
) -> dict:
    """Build a health-report document from an observability handle.

    Args:
        obs: the :class:`~repro.observability.Observability` handle whose
            registry/spans/timeseries the report reads.
        summarizer: optionally, the live
            :class:`~repro.streaming.SlidingWindowSummarizer` (or a
            ``DurableSummarizer``) — enables the quality section, which
            needs the bubbles themselves, not just metrics.
        source: provenance string recorded in the document (``"live"``
            or the state-directory path).
        slo: optionally, an :meth:`SLOEngine.summary()
            <repro.observability.slo.SLOEngine.summary>` document —
            surfaces burn-rate objective states in the report.
    """
    snapshot = obs.metrics.snapshot()
    report: dict = {
        "schema": HEALTH_SCHEMA_VERSION,
        "source": source,
        "stream": _stream_section(snapshot, summarizer),
        "quality": _quality_section(summarizer),
        "pruning": _pruning_section(snapshot, summarizer),
        "spans": _span_section(snapshot),
        "events": _event_section(snapshot),
        "robustness": _robustness_section(snapshot),
    }
    if obs.timeseries is not None:
        report["timeseries"] = {
            "windows": len(obs.timeseries),
            "dropped": obs.timeseries.dropped,
            "interval": obs.timeseries.interval,
        }
    if slo is not None:
        report["slo"] = slo
    return report


def write_health(report: dict, path) -> None:
    """Write a health document to ``path`` as pretty-printed JSON."""
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def _counter_total(
    snapshot: MetricsSnapshot, name: str
) -> int | float:
    """A counter family's total across all label sets."""
    total: int | float = 0
    for sample in snapshot:
        if sample.name == name and sample.kind == "counter":
            total += sample.value
    return total


def _stream_section(snapshot: MetricsSnapshot, summarizer) -> dict:
    section = {
        "window_points": snapshot.value("repro_stream_window_points"),
        "active_bubbles": snapshot.value("repro_stream_active_bubbles"),
        "chunks": snapshot.value("repro_stream_chunks_total"),
        "points_ingested": snapshot.value("repro_stream_points_total"),
        "points_evicted": snapshot.value("repro_stream_evictions_total"),
        "points_rejected": _counter_total(
            snapshot, "repro_points_rejected_total"
        ),
        "batches": snapshot.value("repro_maintenance_batches_total"),
    }
    if summarizer is None:
        return section
    # A recovered summarizer carries its real state while the registry
    # gauges still read zero (they only move on live appends) — prefer
    # the object itself for the instantaneous values.
    store = getattr(summarizer, "store", None)
    if store is not None:
        section["window_points"] = store.size
    maintainer = getattr(summarizer, "maintainer", None)
    if maintainer is not None:
        section["active_bubbles"] = getattr(
            maintainer, "active_count", len(maintainer.bubbles)
        )
    return section


def _quality_section(summarizer) -> dict | None:
    if summarizer is None:
        return None
    maintainer = getattr(summarizer, "maintainer", None)
    if maintainer is None:
        return None
    # β classification is counts-only (Definition 2) — no distance
    # computations, no RNG — so probing it here cannot perturb the run.
    report = maintainer.classify()
    values = sorted(float(v) for v in report.values)
    classes = {"good": 0, "under-filled": 0, "over-filled": 0}
    for cls in report.classes:
        classes[cls.value] += 1
    mid = len(values) // 2
    if not values:
        median = 0.0
    elif len(values) % 2:
        median = values[mid]
    else:
        median = (values[mid - 1] + values[mid]) / 2.0
    return {
        "classes": classes,
        "beta": {
            "min": values[0] if values else 0.0,
            "median": median,
            "max": values[-1] if values else 0.0,
            "mean": report.mean,
            "std": report.std,
        },
        "boundaries": {"lower": report.lower, "upper": report.upper},
        "bubbles": len(values),
    }


def _pruning_section(snapshot: MetricsSnapshot, summarizer) -> dict:
    if summarizer is not None:
        counter = summarizer.counter
        computed = int(counter.computed)
        pruned = int(counter.pruned)
    else:
        computed = int(snapshot.value("repro_distance_computed_total"))
        pruned = int(snapshot.value("repro_distance_pruned_total"))
    considered = computed + pruned
    return {
        "distances_computed": computed,
        "distances_pruned": pruned,
        "savings_ratio": pruned / considered if considered else 0.0,
    }


def _span_section(snapshot: MetricsSnapshot) -> list[dict]:
    rows = []
    for sample in snapshot:
        if sample.name != SPAN_SECONDS_METRIC:
            continue
        if sample.kind != "histogram" or not sample.count:
            continue
        op = dict(sample.labels).get("op", "")
        rows.append(
            {
                "op": op,
                "count": sample.count,
                "total_seconds": sample.sum,
                "mean_seconds": sample.sum / sample.count,
                "p95_seconds": bucket_quantile(
                    sample.bounds, sample.bucket_counts, 0.95
                ),
            }
        )
    rows.sort(key=lambda row: row["total_seconds"], reverse=True)
    return rows


def _event_section(snapshot: MetricsSnapshot) -> dict:
    counts = {}
    for sample in snapshot:
        if sample.name == "repro_events_total" and sample.kind == "counter":
            kind = dict(sample.labels).get("kind", "")
            counts[kind] = int(sample.value)
    return dict(sorted(counts.items()))


def _robustness_section(snapshot: MetricsSnapshot) -> dict:
    return {
        "recoveries": snapshot.value("repro_recovery_replays_total"),
        "replayed_batches": snapshot.value(
            "repro_recovery_replayed_batches_total"
        ),
        "audit_runs": snapshot.value("repro_audit_runs_total"),
        "audit_violations": snapshot.value("repro_audit_violations_total"),
        "audit_repairs": snapshot.value("repro_audit_repairs_total"),
        "points_reassigned": snapshot.value(
            "repro_audit_points_reassigned_total"
        ),
        "snapshots_quarantined": snapshot.value(
            "repro_snapshots_quarantined_total"
        ),
        "wal_torn_tails": snapshot.value("repro_wal_torn_tails_total"),
        "stale_tmp_removed": snapshot.value("repro_stale_tmp_removed_total"),
        "io_retries": snapshot.value("repro_io_retries_total"),
    }


# ----------------------------------------------------------------------
# Text rendering
# ----------------------------------------------------------------------
def render_health(report: dict) -> str:
    """Render a health document as an aligned plain-text report."""
    lines: list[str] = []
    lines.append(f"health report (schema {report['schema']})")
    lines.append(f"source: {report['source']}")

    stream = report["stream"]
    lines.append("")
    lines.append("stream")
    lines.append(
        f"  window points     {_num(stream['window_points'])}"
    )
    lines.append(
        f"  active bubbles    {_num(stream['active_bubbles'])}"
    )
    lines.append(f"  chunks            {_num(stream['chunks'])}")
    lines.append(
        f"  points ingested   {_num(stream['points_ingested'])}"
    )
    lines.append(
        f"  points evicted    {_num(stream['points_evicted'])}"
    )
    lines.append(
        f"  points rejected   {_num(stream['points_rejected'])}"
    )
    lines.append(f"  batches           {_num(stream['batches'])}")

    quality = report.get("quality")
    lines.append("")
    lines.append("quality (Definitions 2-3)")
    if quality is None:
        lines.append("  (no live summary — quality unavailable)")
    else:
        classes = quality["classes"]
        beta = quality["beta"]
        lines.append(
            f"  good              {classes['good']}"
        )
        lines.append(
            f"  under-filled      {classes['under-filled']}"
        )
        lines.append(
            f"  over-filled       {classes['over-filled']}"
        )
        lines.append(
            f"  beta min/med/max  {beta['min']:.6f} / "
            f"{beta['median']:.6f} / {beta['max']:.6f}"
        )
        lines.append(
            f"  chebyshev bounds  [{quality['boundaries']['lower']:.6f}, "
            f"{quality['boundaries']['upper']:.6f}]"
        )

    pruning = report["pruning"]
    lines.append("")
    lines.append("pruning (Figures 10-11)")
    lines.append(
        f"  computed          {_num(pruning['distances_computed'])}"
    )
    lines.append(
        f"  pruned            {_num(pruning['distances_pruned'])}"
    )
    lines.append(
        f"  savings ratio     {pruning['savings_ratio']:.3f}"
    )

    spans = report["spans"]
    lines.append("")
    lines.append("span latency (by total time)")
    if not spans:
        lines.append("  (no spans recorded — run with span tracing)")
    else:
        width = max(len(row["op"]) for row in spans)
        header = (
            f"  {'op'.ljust(width)}  {'count':>7}  {'total_s':>9}  "
            f"{'mean_ms':>9}  {'p95_ms':>9}"
        )
        lines.append(header)
        for row in spans:
            p95 = row["p95_seconds"]
            p95_text = "inf" if p95 is None else f"{p95 * 1e3:>.3f}"
            lines.append(
                f"  {row['op'].ljust(width)}  {row['count']:>7}  "
                f"{row['total_seconds']:>9.4f}  "
                f"{row['mean_seconds'] * 1e3:>9.3f}  {p95_text:>9}"
            )

    events = report["events"]
    lines.append("")
    lines.append("events")
    if not events:
        lines.append("  (none)")
    else:
        width = max(len(kind) for kind in events)
        for kind, count in events.items():
            lines.append(f"  {kind.ljust(width)}  {count}")

    robustness = report["robustness"]
    lines.append("")
    lines.append("robustness")
    lines.append(
        f"  recoveries        {_num(robustness['recoveries'])} "
        f"({_num(robustness['replayed_batches'])} batches replayed)"
    )
    lines.append(
        f"  audits            {_num(robustness['audit_runs'])} runs, "
        f"{_num(robustness['audit_violations'])} violations, "
        f"{_num(robustness['audit_repairs'])} repairs"
    )
    lines.append(
        f"  degraded mode     "
        f"{_num(robustness['snapshots_quarantined'])} snapshots "
        f"quarantined, {_num(robustness['wal_torn_tails'])} torn tails, "
        f"{_num(robustness['stale_tmp_removed'])} stale tmp, "
        f"{_num(robustness['io_retries'])} io retries"
    )

    timeseries = report.get("timeseries")
    if timeseries is not None:
        lines.append("")
        lines.append("timeseries")
        lines.append(
            f"  windows           {timeseries['windows']} retained, "
            f"{timeseries['dropped']} dropped "
            f"(interval {timeseries['interval']} batches)"
        )

    slo = report.get("slo")
    if slo is not None:
        lines.append("")
        lines.append(
            f"slo burn rates (fast {slo['fast_window_seconds']:g}s / "
            f"slow {slo['slow_window_seconds']:g}s)"
        )
        objectives = slo.get("objectives", [])
        if not objectives:
            lines.append("  (no objectives declared)")
        else:
            width = max(len(row["name"]) for row in objectives)
            for row in objectives:
                lines.append(
                    f"  {row['name'].ljust(width)}  {row['state']:<8}  "
                    f"target {row['target']:.4f}  "
                    f"burn fast {row['fast_burn_rate']:.2f} / "
                    f"slow {row['slow_burn_rate']:.2f}"
                )

    return "\n".join(lines) + "\n"


def _num(value: int | float) -> str:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return str(value)
