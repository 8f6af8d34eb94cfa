"""In-memory span ledger for the traced benchmark run.

The traced run wraps public entry points of each layer *from the
benchmark's own files*: a wrapper opens a span (name, start, end, parent
and a request id), calls through and closes it. Nothing inside the
program is edited; functions a layer imports by name are patched in the
module that looks them up (for example ``extract_cluster_tree`` in
``repro.clustering.incremental``).

Spans are only recorded while a *segment* is open. A segment is one
timed unit of the measured phase — the ``serve_ndjson`` call, one
append, one fit, one recovery — and is itself the root span of its tree,
so the phase wall time is the sum of the segment durations and a
segment's own self time is the ``unattributed`` remainder. Work the
benchmark does between segments (output checks, scoring, copying state
directories) is never recorded.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

import numpy as np

#: Span name of a segment (the root of every span tree).
SEGMENT = "segment"

#: Spans that start a new request id when no ancestor carries one: one
#: id per micro-batch, query or recovery.
REQUEST_SPANS = frozenset(
    {"shard.flush", "stream.append", "cluster.fit", "fleet.recover"}
)

# Span record layout: [name, start, end, parent, request, meta].
NAME, START, END, PARENT, REQUEST, META = range(6)


class Recorder:
    """Collects spans in memory while a segment is open."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._requests = 0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        request = self.spans[parent][REQUEST] if parent >= 0 else None
        if request is None and name in REQUEST_SPANS:
            self._requests += 1
            request = self._requests
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, request,
                           None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def parent_name(self) -> str | None:
        """Name of the innermost open span, or ``None``."""
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    @contextlib.contextmanager
    def segment(self):
        """Record one timed unit of the measured phase as a root span."""
        self.active = True
        index = self.open(SEGMENT)
        try:
            yield
        finally:
            self.close(index)
            self.active = False

    def rows(self) -> list[list]:
        """The spans as ``[id, name, start, end, parent, request]`` rows."""
        return [
            [i, s[NAME], s[START], s[END], s[PARENT], s[REQUEST]]
            for i, s in enumerate(self.spans)
        ]


def spanned(recorder: Recorder, name: str, fn, pre=None, meta=None,
            skip_under: str | None = None):
    """Wrap ``fn`` so each call while recording is one span.

    ``pre(args)`` runs before the call and ``meta(args, result, before)``
    after it; the latter's value is stored on the span. With
    ``skip_under``, a call whose direct parent span has that name is not
    recorded separately (its time stays with the parent).
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active or (
            skip_under is not None and recorder.parent_name() == skip_under
        ):
            return fn(*args, **kwargs)
        before = pre(args) if pre is not None else None
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if meta is not None:
            recorder.spans[index][META] = meta(args, result, before)
        return result

    return wrapper


@contextlib.contextmanager
def patched(targets):
    """Temporarily replace attributes: ``targets`` is ``(owner, attr, new)``.

    ``owner`` is a module or the class that defines ``attr``; the
    original object is put back on exit.
    """
    undo = []
    try:
        for owner, attr, new in targets:
            old = owner.__dict__[attr]
            undo.append((owner, attr, old))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)


def self_times(spans: list[list]) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged first, so the result never double-counts.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    result = np.empty(len(spans), dtype=np.float64)
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result[index] = (end - start) - covered
    return result


#: Per-layer metrics of the traced run, with units, in report order.
PER_LAYER = (
    ("events.parse_s", "s"),
    ("events.parse_us_per_event", "us"),
    ("fleet.submit_self_s", "s"),
    ("fleet.lifecycle_self_s", "s"),
    ("shard.flush_self_s", "s"),
    ("shard.batches", "count"),
    ("shard.pts_per_batch", "count"),
    ("shard.queue_wait_p50_ms", "ms"),
    ("stream.append_self_s", "s"),
    ("stream.recover_self_s", "s"),
    ("wal.append_s", "s"),
    ("wal.bytes_per_pt", "B"),
    ("wal.compact_s", "s"),
    ("wal.replay_s", "s"),
    ("ckpt.count", "count"),
    ("ckpt.self_s", "s"),
    ("snapshot.write_s", "s"),
    ("snapshot.bytes_per_ckpt", "B"),
    ("snapshot.read_s", "s"),
    ("recovery.state_s", "s"),
    ("recovery.replayed_batches", "count"),
    ("maintain.apply_self_s", "s"),
    ("split.per_kpt", "count"),
    ("split.s", "s"),
    ("classify.s", "s"),
    ("assign.s", "s"),
    ("assign.us_per_call", "us"),
    ("assign.pts_per_call", "count"),
    ("assign.pruned_frac", "fraction"),
    ("assign.cache_hit_frac", "fraction"),
    ("cluster.fit_s", "s"),
    ("cluster.hits", "count"),
    ("cluster.repairs", "count"),
    ("cluster.rebuilds", "count"),
    ("cluster.repair_ms_p50", "ms"),
    ("cluster.rebuild_ms_p50", "ms"),
    ("cluster.spliced_frac", "fraction"),
    ("cluster.dist_per_query", "count"),
    ("optics.rows_s", "s"),
    ("optics.walk_s", "s"),
    ("extract.s", "s"),
    ("dist.pruned_frac", "fraction"),
    ("trace.phase_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("host.steal_frac", "fraction"),
)

#: The self-time metric each span's self time lands in. Every span name
#: maps to exactly one, so these metrics sum to the phase wall time.
SELF_METRIC = {
    "events.parse": "events.parse_s",
    "fleet.submit": "fleet.submit_self_s",
    "fleet.drain": "fleet.lifecycle_self_s",
    "fleet.recover": "fleet.lifecycle_self_s",
    "shard.flush": "shard.flush_self_s",
    "stream.durable_append": "stream.append_self_s",
    "stream.append": "stream.append_self_s",
    "stream.recover": "stream.recover_self_s",
    "wal.append": "wal.append_s",
    "wal.compact": "wal.compact_s",
    "wal.replay": "wal.replay_s",
    "ckpt.checkpoint": "ckpt.self_s",
    "snapshot.write": "snapshot.write_s",
    "snapshot.read": "snapshot.read_s",
    "recovery.state": "recovery.state_s",
    "maintain.apply": "maintain.apply_self_s",
    "split.rebuild_pair": "split.s",
    "split.split": "split.s",
    "split.merge": "split.s",
    "classify": "classify.s",
    "assign.many": "assign.s",
    "assign.cache_get": "assign.s",
    "cluster.fit": "cluster.fit_s",
    "cluster.refresh": "cluster.fit_s",
    "optics.rows": "optics.rows_s",
    "optics.walk": "optics.walk_s",
    "extract": "extract.s",
    SEGMENT: "trace.unattributed_s",
}


def trace_targets(recorder: Recorder) -> list[tuple]:
    """Every layer entry point the traced run wraps, as patch targets."""
    import os

    from repro.clustering import engine, incremental
    from repro.core import adaptive, assignment, maintenance, quality
    from repro.persistence import checkpoint, wal
    from repro.service import events, fleet, shard
    import repro.streaming as streaming

    def method(cls, attr, name, **kw):
        return (cls, attr, spanned(recorder, name, cls.__dict__[attr], **kw))

    def function(module, attr, name, **kw):
        return (module, attr,
                spanned(recorder, name, getattr(module, attr), **kw))

    def classmethod_(cls, attr, name, **kw):
        inner = cls.__dict__[attr].__func__
        return (cls, attr,
                classmethod(spanned(recorder, name, inner, **kw)))

    def assigner_counts(args):
        return args[0].assign_computed, args[0].assign_pruned

    def assigner_meta(args, result, before):
        self = args[0]
        return (len(result), self.assign_computed - before[0],
                self.assign_pruned - before[1])

    def fit_meta(args, result, before):
        splice = result.splice
        return (result.source,
                splice.spliced if splice is not None else 0,
                splice.total if splice is not None else 0)

    return [
        function(events, "parse_event", "events.parse"),
        method(fleet.FleetManager, "submit", "fleet.submit"),
        method(fleet.FleetManager, "drain", "fleet.drain"),
        classmethod_(fleet.FleetManager, "recover", "fleet.recover"),
        method(shard.Shard, "flush_once", "shard.flush",
               meta=lambda a, r, b: r),
        method(streaming.DurableSummarizer, "append",
               "stream.durable_append"),
        method(streaming.SlidingWindowSummarizer, "append",
               "stream.append"),
        classmethod_(streaming.DurableSummarizer, "recover",
                     "stream.recover"),
        function(streaming, "recover_state", "recovery.state",
                 meta=lambda a, r, b: len(r.tail)),
        method(wal.WriteAheadLog, "append", "wal.append",
               meta=lambda a, r, b: r),
        method(wal.WriteAheadLog, "compact", "wal.compact"),
        # Compaction re-reads the log through replay(); that read is
        # compaction work, so it is not split out as a replay span.
        method(wal.WriteAheadLog, "replay", "wal.replay",
               skip_under="wal.compact"),
        method(checkpoint.CheckpointManager, "checkpoint",
               "ckpt.checkpoint"),
        function(checkpoint, "write_snapshot", "snapshot.write",
                 meta=lambda a, r, b: os.path.getsize(a[0])),
        function(checkpoint, "read_snapshot", "snapshot.read"),
        method(maintenance.IncrementalMaintainer, "apply_batch",
               "maintain.apply"),
        function(maintenance, "rebuild_pair", "split.rebuild_pair"),
        function(adaptive, "split_bubble", "split.split"),
        function(adaptive, "merge_bubble", "split.merge"),
        method(quality.BetaQuality, "classify", "classify"),
        method(assignment.TriangleInequalityAssigner, "assign_many",
               "assign.many", pre=assigner_counts, meta=assigner_meta),
        method(assignment.AssignerCache, "get", "assign.cache_get",
               pre=lambda a: a[0].hits,
               meta=lambda a, r, b: a[0].hits > b),
        method(incremental.IncrementalClusterer, "fit", "cluster.fit",
               meta=fit_meta),
        method(incremental.ClusterCache, "refresh", "cluster.refresh"),
        function(incremental, "bubble_distance_rows", "optics.rows"),
        method(engine.OpticsWalk, "run", "optics.walk"),
        function(incremental, "extract_cluster_tree", "extract"),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], points: int, queue_waits_s,
                  dist_computed: int, dist_pruned: int) -> dict:
    """The per-layer metrics of one traced phase.

    Args:
        spans: the recorder's spans.
        points: points the phase ingested (replayed, for recovery).
        queue_waits_s: per-point queue waits (empty outside the service).
        dist_computed / dist_pruned: ``DistanceCounter`` deltas.
    """
    selfs = self_times(spans)
    out = {name: 0.0 for name, _ in PER_LAYER}
    for span, own in zip(spans, selfs):
        out[SELF_METRIC[span[NAME]]] += float(own)
    counts = Counter(span[NAME] for span in spans)

    def metas(name):
        return [s[META] for s in spans if s[NAME] == name]

    out["events.parse_us_per_event"] = 1e6 * _ratio(
        out["events.parse_s"], counts["events.parse"])
    batches = [n for n in metas("shard.flush") if n]
    out["shard.batches"] = len(batches)
    out["shard.pts_per_batch"] = _ratio(sum(batches), len(batches))
    if len(queue_waits_s):
        out["shard.queue_wait_p50_ms"] = 1e3 * float(
            np.median(queue_waits_s))
    out["wal.bytes_per_pt"] = _ratio(sum(metas("wal.append")), points)
    out["ckpt.count"] = counts["ckpt.checkpoint"]
    out["snapshot.bytes_per_ckpt"] = _ratio(
        sum(metas("snapshot.write")), counts["snapshot.write"])
    out["recovery.replayed_batches"] = sum(metas("recovery.state"))
    out["split.per_kpt"] = 1e3 * _ratio(
        counts["split.rebuild_pair"] + counts["split.split"], points)
    calls = metas("assign.many")
    out["assign.us_per_call"] = 1e6 * _ratio(
        sum(float(own) for span, own in zip(spans, selfs)
            if span[NAME] == "assign.many"), len(calls))
    out["assign.pts_per_call"] = _ratio(sum(c[0] for c in calls),
                                        len(calls))
    computed = sum(c[1] for c in calls)
    pruned = sum(c[2] for c in calls)
    out["assign.pruned_frac"] = _ratio(pruned, computed + pruned)
    lookups = metas("assign.cache_get")
    out["assign.cache_hit_frac"] = _ratio(sum(lookups), len(lookups))
    fits = [
        (s[META], s[END] - s[START]) for s in spans
        if s[NAME] == "cluster.fit"
    ]
    repair_ms = [1e3 * d for m, d in fits if m[0] == "repair"]
    rebuild_ms = [1e3 * d for m, d in fits if m[0] in ("rebuild", "cold")]
    out["cluster.hits"] = sum(1 for m, _ in fits if m[0] == "hit")
    out["cluster.repairs"] = len(repair_ms)
    out["cluster.rebuilds"] = len(rebuild_ms)
    if repair_ms:
        out["cluster.repair_ms_p50"] = float(np.median(repair_ms))
    if rebuild_ms:
        out["cluster.rebuild_ms_p50"] = float(np.median(rebuild_ms))
    out["cluster.spliced_frac"] = _ratio(sum(m[1] for m, _ in fits),
                                         sum(m[2] for m, _ in fits))
    out["dist.pruned_frac"] = _ratio(dist_pruned,
                                     dist_computed + dist_pruned)
    out["trace.phase_s"] = sum(
        s[END] - s[START] for s in spans if s[NAME] == SEGMENT)
    return out


def self_time_gap(metrics: dict) -> float:
    """Phase wall time minus the sum of every self-time metric.

    Zero up to float rounding when the ledger is complete.
    """
    attributed = sum(metrics[name] for name in set(SELF_METRIC.values()))
    return metrics["trace.phase_s"] - attributed
