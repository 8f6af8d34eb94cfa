"""Command-line entry point: regenerate the paper's tables and figures.

Usage (installed as ``repro-bubbles``, also ``python -m repro.cli``)::

    repro-bubbles table1   [--reps 10] [--size 10000] ...
    repro-bubbles figure7
    repro-bubbles figure9  [--reps 3]
    repro-bubbles figure10 [--reps 3]
    repro-bubbles figure11 [--reps 3]
    repro-bubbles all      [--quick]
    repro-bubbles summarize --wal-dir state/ [--resume] [--chunks 20] ...
    repro-bubbles stats     --wal-dir state/ [--format text|json|prom]
    repro-bubbles audit     --wal-dir state/ [--no-repair]
    repro-bubbles report    --wal-dir state/ [--format text|json]
    repro-bubbles cluster   --wal-dir state/ [--deadline 0.1] [--min-pts 25]
    repro-bubbles loadgen   --out events.ndjson [--tenants 8] [--events 5000]
    repro-bubbles serve     --fleet-dir fleet/ --input events.ndjson ...
    repro-bubbles dlq       --fleet-dir fleet/ [--replay]
    repro-bubbles trace     --fleet-dir fleet/ [--top 3]
    repro-bubbles verify-chain --wal-dir state/  (or --fleet-dir fleet/)

Every evaluation command prints the corresponding table/series in the
paper's layout. ``--quick`` shrinks sizes/repetitions for a fast smoke run;
the defaults correspond to the numbers recorded in EXPERIMENTS.md.

``summarize`` runs a durable sliding-window summarization over a synthetic
drifting stream: chunks are write-ahead logged to ``--wal-dir`` before
being applied and the state is checkpointed every ``--checkpoint-every``
batches. Re-running with ``--resume`` recovers the summary (snapshot +
WAL-tail replay) and continues the stream where the previous process — or
crash — left off. With ``--metrics-out m.json`` the run's metrics registry
is written as JSON (plus a Prometheus twin ``m.prom``); ``--trace-out``
streams maintenance/persistence events as JSON lines; ``--timeseries-out``
records windowed counter deltas and gauges as JSON lines (window width
``--timeseries-window`` batches); ``--health-out`` writes the one-page
health-report document as JSON. ``stats`` inspects a durable state
directory read-only and reports its metrics in any of the three formats.
``audit`` recovers a durable state directory and runs the self-healing
invariant audit over it (exit code 1 when the summary is inconsistent and
could not be repaired). ``report`` recovers a state directory under a
fully instrumented handle and renders its health report (text or JSON).
``cluster`` recovers a state directory and answers the paper's
"cluster me now" request over its bubble summary: it prints the
extracted dendrogram, optionally under a soft ``--deadline`` budget
(anytime staged refinement — a valid coarse tree is always produced).

``loadgen`` writes a deterministic NDJSON event stream (Zipf-skewed
tenant sizes, bursty Poisson arrivals) to ``--out`` or stdout.
``serve`` runs the multi-tenant ingestion service: NDJSON events from
``--input`` (or stdin) are routed to per-tenant durable shards under
``--fleet-dir``, micro-batched through bounded queues with explicit
backpressure, drained gracefully at end of stream, and summarized in a
fleet rollup (``--rollup-out``/``--fleet-health-out`` write it as
JSON). ``serve --resume`` crash-recovers the whole fleet from its
per-tenant WAL directories first; ``serve --supervise`` attaches a
shard supervisor that restarts failed shards under a bounded budget
(``--max-restarts``) with per-tenant circuit breaking. Without a
supervisor, a serve that ends with failed shards exits with code 3.

``serve --listen PORT`` additionally runs the live telemetry plane on
``127.0.0.1:PORT`` while events flow: ``/metrics`` (Prometheus text
0.0.4, snapshot-consistent across every tenant shard), ``/health``
(JSON fleet rollup with supervision and SLO burn-rate state),
``/ready`` (non-200 while any shard is failed), and
``/tenants/<id>/stats``; the SLO engine evaluates its objectives once
a second (windows via ``--slo-fast-seconds``/``--slo-slow-seconds``).
``serve --trace`` records one causally-parented span trace per
micro-batch into each tenant's ``trace.jsonl``; ``trace`` reads them
back and prints per-op latency quantiles plus the critical path of the
slowest micro-batches (``--top``).

``dlq`` inspects (default) or re-submits (``--replay``) the durable
per-tenant dead-letter queues of a fleet directory — or of one tenant
state directory given via ``--wal-dir``. ``verify-chain`` runs the
read-only WAL integrity scan (CRC plus, for version-2 logs, the
SHA-256 hash chain) over one state directory or every tenant of a
fleet, and exits 1 when any log shows at-rest corruption. See
docs/PERSISTENCE.md, docs/OBSERVABILITY.md, docs/ROBUSTNESS.md and
docs/SERVICE.md.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from dataclasses import replace

from .experiments import (
    ExperimentConfig,
    construction_pruning,
    render_dimension_sweep,
    render_figure7,
    render_figure8,
    render_figure9,
    render_figure10,
    render_figure11,
    render_size_sweep,
    render_staleness,
    render_table1,
    run_dimension_sweep,
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure10,
    run_figure11,
    run_size_sweep,
    run_staleness,
    run_table1,
)
from .clustering import IncrementalClusterer, render_tree
from .exceptions import PersistenceError, ReproError, SnapshotError
from .experiments.table1 import TABLE1_DATASETS
from .faults import install_from_env
from .observability import (
    EventTracer,
    MetricsRegistry,
    Observability,
    SLOEngine,
    SpanTracer,
    TelemetryListener,
    TimeseriesRecorder,
    collect_health,
    load_fleet_traces,
    render_health,
    render_text,
    render_trace_report,
    to_json,
    to_prometheus,
    write_health,
    write_metrics,
)
from .persistence import read_manifest, read_snapshot, verify_chain
from .service import (
    FleetConfig,
    FleetManager,
    LoadSpec,
    ShardSupervisor,
    generate_events,
    read_dead_letters,
    render_rollup,
    replay_dead_letters,
    serve_ndjson,
    write_events,
)
from .service.deadletter import deadletter_path
from .streaming import DurableSummarizer

__all__ = ["main", "build_parser", "EXIT_FAILED_SHARDS"]

#: Distinct exit code for a serve that ends with failed shards and no
#: supervisor attached (1 is generic errors, 2 is argparse usage).
EXIT_FAILED_SHARDS = 3


def _package_version() -> str:
    """Installed distribution version, falling back to the source tree."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from . import __version__

        return __version__


def _stream_chunk(seed: int, index: int, size: int):
    """Deterministic chunk ``index`` of the synthetic drifting stream.

    Each chunk is seeded independently from ``(seed, index)``, so a
    resumed process generates exactly the chunks a fresh one would —
    the stream itself is durable, not just the summary.

    The mixture is deliberately two-scale: a diffuse drifting cloud plus
    a small dense blob that jumps around inside it. The blob concentrates
    points into few bubbles, driving β past the Chebyshev upper boundary
    (Definition 3) so the stream exercises the over-filled → merge/split
    repair path, not just assignment.
    """
    import numpy as np

    rng = np.random.default_rng((int(seed), int(index)))
    center = np.array([0.05 * index, -0.03 * index])
    dense = max(1, size // 5)
    cloud = rng.normal(loc=center, scale=1.0, size=(size - dense, 2))
    offset = np.array(
        [np.cos(0.9 * index), np.sin(0.9 * index)]
    )
    blob = rng.normal(
        loc=center + offset, scale=0.04, size=(dense, 2)
    )
    chunk = np.concatenate([cloud, blob])
    rng.shuffle(chunk)
    return chunk


def _make_observability(args: argparse.Namespace) -> Observability | None:
    """An instrumented handle when any observability output was requested."""
    wanted = (
        args.metrics_out,
        args.trace_out,
        getattr(args, "timeseries_out", None),
        getattr(args, "health_out", None),
    )
    if all(out is None for out in wanted):
        return None
    tracer = (
        EventTracer(sink=args.trace_out)
        if args.trace_out is not None
        else None
    )
    timeseries = (
        TimeseriesRecorder(interval=args.timeseries_window)
        if getattr(args, "timeseries_out", None) is not None
        else None
    )
    # Spans cost nothing to carry and feed both the metrics registry
    # (repro_span_seconds) and the health report's latency table.
    return Observability(
        tracer=tracer, spans=SpanTracer(), timeseries=timeseries
    )


def _run_summarize(args: argparse.Namespace) -> None:
    if args.wal_dir is None:
        raise SystemExit("summarize requires --wal-dir")
    fsync = not args.no_fsync
    obs = _make_observability(args)
    if args.resume:
        stream = DurableSummarizer.recover(
            args.wal_dir, fsync=fsync, obs=obs,
            audit_every=args.audit_every,
        )
        print(
            f"recovered {args.wal_dir}: {stream.batches_applied} batches "
            f"already applied, window holds {stream.size} points"
        )
    else:
        stream = DurableSummarizer(
            args.wal_dir,
            dim=2,
            window_size=args.window,
            points_per_bubble=args.points_per_bubble,
            seed=args.seed,
            checkpoint_every=args.checkpoint_every,
            fsync=fsync,
            obs=obs,
            on_bad_point=args.on_bad_point,
            audit_every=args.audit_every,
        )
        print(f"initialized durable state in {args.wal_dir}")
    start = stream.batches_applied
    for index in range(start, start + args.chunks):
        stream.append(_stream_chunk(args.seed, index, args.chunk_size))
    stream.close()  # final checkpoint + WAL truncation
    maintainer = stream.maintainer
    bubbles = (
        f"{maintainer.active_count} active bubbles"
        if maintainer is not None
        else "still buffering (no summary yet)"
    )
    totals = stream.counter.snapshot()
    print(
        f"appended {args.chunks} chunks ({args.chunks * args.chunk_size} "
        f"points); {stream.batches_applied} batches durable"
    )
    print(
        f"window {stream.size}/{stream.window_size} points, {bubbles}, "
        f"{totals.computed} distances computed "
        f"({totals.pruned_fraction:.0%} pruned)"
    )
    if obs is not None:
        _finish_observability(args, obs, totals, summarizer=stream)
    print(f"re-run with --resume --wal-dir {args.wal_dir} to continue")


def _finish_observability(
    args, obs: Observability, totals, summarizer=None
) -> None:
    if obs.timeseries is not None:
        if summarizer is not None:
            summarizer.flush_timeseries()
        else:
            obs.timeseries.flush()
        obs.timeseries.write_jsonl(args.timeseries_out)
        print(
            f"wrote {len(obs.timeseries)} time-series windows to "
            f"{args.timeseries_out}"
        )
    if getattr(args, "health_out", None) is not None:
        report = collect_health(
            obs, summarizer=summarizer, source=str(args.wal_dir)
        )
        write_health(report, args.health_out)
        print(f"wrote health report to {args.health_out}")
    if obs.tracer is not None:
        obs.tracer.close()
        print(f"wrote event trace to {args.trace_out}")
    if args.metrics_out is not None:
        extra = {
            "run": {
                "command": "summarize",
                "wal_dir": str(args.wal_dir),
                "chunks": args.chunks,
                "chunk_size": args.chunk_size,
                "window": args.window,
                "points_per_bubble": args.points_per_bubble,
                "seed": args.seed,
            },
            "derived": {
                "pruned_fraction": totals.pruned_fraction,
                "computed_distances": totals.computed,
                "pruned_distances": totals.pruned,
            },
        }
        json_path, prom_path = write_metrics(
            args.metrics_out, obs.metrics.snapshot(), extra=extra
        )
        print(f"wrote metrics to {json_path} and {prom_path}")


def _run_audit(args: argparse.Namespace) -> None:
    """Recover a durable state directory and audit its invariants."""
    if args.wal_dir is None:
        raise SystemExit("audit requires --wal-dir")
    obs = _make_observability(args)
    stream = DurableSummarizer.recover(
        args.wal_dir, fsync=not args.no_fsync, obs=obs
    )
    repair = not args.no_repair
    report = stream.audit(repair=repair)
    # Persist a repaired (or confirmed-clean) state; never checkpoint a
    # summary that is still inconsistent.
    stream.close(checkpoint=report.healthy)
    if report.ok:
        print(
            f"{args.wal_dir}: all invariants hold "
            f"({stream.size} points, batch {stream.batches_applied})"
        )
    else:
        print(f"{args.wal_dir}: {len(report.violations)} violation(s)")
        for violation in report.violations[:10]:
            print(f"  - {violation}")
        if len(report.violations) > 10:
            print(f"  ... and {len(report.violations) - 10} more")
        if repair:
            outcome = (
                "consistent" if report.post_repair_ok else "STILL BROKEN"
            )
            print(
                f"repair: rebuilt {len(report.repaired_bubbles)} "
                f"bubble(s), reassigned {report.reassigned_points} "
                f"point(s); summary now {outcome}"
            )
    if obs is not None and obs.tracer is not None:
        obs.tracer.close()
    if not report.healthy:
        raise SystemExit(1)


def _run_report(args: argparse.Namespace) -> None:
    """Render a health report from a durable state directory.

    The directory is recovered under a fresh, fully instrumented
    observability handle (spans + time-series) and checked with a
    non-repairing audit, so the span latency table and robustness
    section reflect genuinely measured recovery/audit work — not
    whatever instrumentation the original run happened to enable.
    """
    if args.wal_dir is None:
        raise SystemExit("report requires --wal-dir")
    obs = Observability(
        tracer=EventTracer(),
        spans=SpanTracer(),
        timeseries=TimeseriesRecorder(interval=args.timeseries_window),
    )
    stream = DurableSummarizer.recover(
        args.wal_dir, fsync=not args.no_fsync, obs=obs
    )
    stream.audit(repair=False)
    report = collect_health(
        obs, summarizer=stream, source=str(args.wal_dir)
    )
    stream.close(checkpoint=False)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_health(report), end="")
    if args.health_out is not None:
        write_health(report, args.health_out)
        print(f"wrote health report to {args.health_out}")
    if args.timeseries_out is not None:
        obs.timeseries.flush()
        obs.timeseries.write_jsonl(args.timeseries_out)
        print(
            f"wrote {len(obs.timeseries)} time-series windows to "
            f"{args.timeseries_out}"
        )


def _run_cluster(args: argparse.Namespace) -> None:
    """Cluster a recovered durable summary ("cluster me now").

    Recovers the state directory, runs one
    :class:`~repro.clustering.IncrementalClusterer` fit —
    deadline-bounded when ``--deadline`` is given — and prints the
    extracted dendrogram with its provenance. Recovery is not
    read-only: it replays and checkpoints any WAL tail a crash left
    behind. Only the goodbye checkpoint on close is skipped.
    """
    if args.wal_dir is None:
        raise SystemExit("cluster requires --wal-dir")
    obs = Observability(spans=SpanTracer())
    stream = DurableSummarizer.recover(
        args.wal_dir, fsync=not args.no_fsync, obs=obs
    )
    try:
        if not stream.is_ready():
            print(
                "the stream summary is not bootstrapped yet; run "
                "'summarize' against this directory first",
                file=sys.stderr,
            )
            raise SystemExit(1)
        clusterer = IncrementalClusterer(
            min_pts=args.min_pts,
            counter=stream.counter,
            obs=obs,
        )
        fit = clusterer.fit(
            stream.summary, deadline_seconds=args.deadline
        )
    finally:
        stream.close(checkpoint=False)
    deadline = (
        f"{args.deadline:.3f}s deadline"
        if args.deadline is not None
        else "no deadline"
    )
    print(
        f"clustered {fit.num_bubbles} bubbles "
        f"({int(fit.counts.sum())} summarized points) from "
        f"{args.wal_dir} [{fit.source}, {deadline}]"
    )
    print(
        f"quality {fit.quality:.2f}, "
        f"{len(fit.tree.leaves())} leaf cluster(s), "
        f"{fit.elapsed_seconds * 1e3:.1f} ms"
    )
    if fit.stages:
        print(
            "anytime stages: "
            + ", ".join(
                f"{stage.size} bubbles @ "
                f"{stage.elapsed_seconds * 1e3:.1f} ms"
                for stage in fit.stages
            )
        )
    print()
    print(render_tree(fit.tree))
    if args.metrics_out is not None:
        json_path, prom_path = write_metrics(
            args.metrics_out,
            obs.metrics.snapshot(),
            extra={"directory": str(args.wal_dir)},
        )
        print(f"\nwrote metrics to {json_path} and {prom_path}")


def _run_loadgen(args: argparse.Namespace) -> None:
    """Write a deterministic NDJSON event stream for the service."""
    spec = LoadSpec(
        tenants=args.tenants,
        events=args.events,
        dim=args.dim,
        seed=args.seed,
        zipf_s=args.zipf,
        burst_mean=args.burst,
    )
    if args.out == "-":
        write_events(sys.stdout, generate_events(spec))
        return
    count = write_events(args.out, generate_events(spec))
    print(
        f"wrote {count} events ({spec.tenants} tenants, zipf "
        f"{spec.zipf_s}, burst mean {spec.burst_mean:.0f}, seed "
        f"{spec.seed}) to {args.out}"
    )


def _run_serve(args: argparse.Namespace) -> None:
    """Run the multi-tenant ingestion service over an NDJSON stream."""
    if args.fleet_dir is None:
        raise SystemExit("serve requires --fleet-dir")
    runtime = FleetConfig(
        dim=args.dim,
        window_size=args.window,
        points_per_bubble=args.points_per_bubble,
        checkpoint_every=args.checkpoint_every,
        seed=args.seed,
        fsync=not args.no_fsync,
        on_bad_point=args.on_bad_point,
        queue_points=args.queue_points,
        batch_points=args.batch_points,
        backpressure=args.backpressure,
        workers=args.workers,
        trace=args.trace,
    )
    if args.resume:
        fleet = FleetManager.recover(args.fleet_dir, config=runtime)
        print(
            f"recovered fleet {args.fleet_dir}: "
            f"{len(fleet.tenants)} tenant shard(s) resumed"
        )
    else:
        fleet = FleetManager(args.fleet_dir, config=runtime)
        print(
            f"initialized fleet in {args.fleet_dir} "
            f"({args.workers} worker(s), {args.backpressure} "
            "backpressure)"
        )
    if args.supervise:
        fleet.attach_supervisor(
            ShardSupervisor(max_restarts=args.max_restarts)
        )
        print(
            f"supervision on: failed shards restart (budget "
            f"{args.max_restarts}/tenant) behind per-tenant breakers"
        )
    if args.trace:
        print(
            "trace recording on: one span trace per micro-batch -> "
            f"{args.fleet_dir}/tenants/<id>/trace.jsonl "
            "(query with 'repro-bubbles trace')"
        )
    listener = None
    if args.listen is not None:
        fleet.attach_slo(
            SLOEngine(
                fast_window_seconds=args.slo_fast_seconds,
                slow_window_seconds=args.slo_slow_seconds,
            )
        )
        listener = TelemetryListener(fleet, port=args.listen).start()
        print(
            f"telemetry plane listening on {listener.url()} "
            "(/metrics /health /ready /tenants/<id>/stats); slo "
            f"windows {args.slo_fast_seconds:g}s/"
            f"{args.slo_slow_seconds:g}s"
        )
    source = sys.stdin if args.input == "-" else args.input
    stats = serve_ndjson(
        fleet, source, on_bad_event=args.on_bad_event, listener=listener
    )
    print(render_rollup(stats.rollup), end="")
    print(
        f"served {stats.events} events: {stats.accepted} accepted, "
        f"{stats.dropped} dropped, {stats.invalid_lines} invalid "
        f"line(s) in {stats.elapsed_seconds:.2f}s "
        f"({stats.points_per_second:.0f} points/s)"
    )
    if args.rollup_out is not None:
        pathlib.Path(args.rollup_out).write_text(
            json.dumps(stats.rollup, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote fleet rollup to {args.rollup_out}")
    if args.fleet_health_out is not None:
        pathlib.Path(args.fleet_health_out).write_text(
            json.dumps(fleet.fleet_health(), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        print(f"wrote fleet health to {args.fleet_health_out}")
    print(
        f"re-run with serve --resume --fleet-dir {args.fleet_dir} to "
        "continue the fleet"
    )
    failed = sorted(
        tenant
        for tenant, row in stats.rollup["tenants"].items()
        if row["state"] == "failed"
    )
    if failed and not args.supervise:
        print(
            f"error: {len(failed)} shard(s) ended failed with no "
            f"supervisor attached: {', '.join(failed)} — their queued "
            "events were dead-lettered; re-run with --supervise, or "
            "inspect/replay with "
            f"'repro-bubbles dlq --fleet-dir {args.fleet_dir}'",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_FAILED_SHARDS)


def _run_trace(args: argparse.Namespace) -> None:
    """Reconstruct and query a fleet's span traces."""
    if args.fleet_dir is None:
        raise SystemExit("trace requires --fleet-dir")
    root = pathlib.Path(args.fleet_dir)
    if not (root / "fleet.json").exists():
        raise PersistenceError(
            f"{root} holds no fleet (fleet.json is missing)"
        )
    traces = load_fleet_traces(root)
    print(render_trace_report(traces, top=args.top), end="")


def _dlq_files(args: argparse.Namespace) -> list[pathlib.Path]:
    """Dead-letter files addressed by --fleet-dir / --wal-dir.

    A fleet directory fans out to every tenant state dir under
    ``tenants/``; a plain state directory is used as-is.
    """
    if args.fleet_dir is not None:
        root = pathlib.Path(args.fleet_dir)
        if not (root / "fleet.json").exists():
            raise PersistenceError(
                f"{root} holds no fleet (fleet.json is missing)"
            )
        tenants = root / "tenants"
        dirs = (
            sorted(p for p in tenants.iterdir() if p.is_dir())
            if tenants.exists()
            else []
        )
        return [deadletter_path(p) for p in dirs]
    if args.wal_dir is not None:
        return [deadletter_path(args.wal_dir)]
    raise SystemExit("dlq requires --fleet-dir or --wal-dir")


def _run_dlq(args: argparse.Namespace) -> None:
    """List or replay the durable dead-letter queues."""
    files = _dlq_files(args)
    if not args.replay:
        total = 0
        for path in files:
            letters = read_dead_letters(path)
            if not letters and not path.exists():
                continue
            total += len(letters)
            print(f"{path}: {len(letters)} letter(s)")
            by_reason: dict[str, int] = {}
            for letter in letters:
                by_reason[letter.reason] = by_reason.get(letter.reason, 0) + 1
            for reason in sorted(by_reason):
                print(f"  {reason}: {by_reason[reason]}")
        print(f"{total} dead letter(s) total")
        return
    if args.fleet_dir is None:
        raise SystemExit(
            "dlq --replay needs --fleet-dir (replay re-submits through "
            "the fleet's normal ingestion path)"
        )
    fleet = FleetManager.recover(args.fleet_dir)
    if args.supervise:
        fleet.attach_supervisor(
            ShardSupervisor(max_restarts=args.max_restarts)
        )
    replayed = requeued = 0
    try:
        for path in files:
            report = replay_dead_letters(
                path, fleet.submit, fsync=not args.no_fsync
            )
            replayed += report.replayed
            requeued += report.requeued
    finally:
        fleet.drain()
    print(
        f"replayed {replayed} dead letter(s); {requeued} still parked"
    )
    if requeued:
        raise SystemExit(1)


def _run_verify_chain(args: argparse.Namespace) -> None:
    """Read-only WAL integrity scan (CRC + v2 hash chain)."""
    if args.fleet_dir is not None:
        root = pathlib.Path(args.fleet_dir)
        if not (root / "fleet.json").exists():
            raise PersistenceError(
                f"{root} holds no fleet (fleet.json is missing)"
            )
        tenants = root / "tenants"
        wal_paths = (
            sorted(p / "wal.log" for p in tenants.iterdir() if p.is_dir())
            if tenants.exists()
            else []
        )
    elif args.wal_dir is not None:
        wal_paths = [pathlib.Path(args.wal_dir) / "wal.log"]
    else:
        raise SystemExit("verify-chain requires --wal-dir or --fleet-dir")
    corrupt = 0
    for path in wal_paths:
        if not path.exists():
            print(f"{path}: missing (no WAL yet)")
            continue
        report = verify_chain(path)
        coverage = "crc+chain" if report.version == 2 else "crc only"
        if report.ok and not report.torn_tail:
            print(
                f"{path}: OK — {report.records} record(s) verified "
                f"({coverage})"
            )
        elif report.ok:
            print(
                f"{path}: OK with torn tail — {report.records} intact "
                f"record(s) ({coverage}); a crashed append will be "
                "repaired on next open"
            )
        else:
            corrupt += 1
            where = (
                f"record {report.bad_record} (seq {report.bad_seq})"
                if report.bad_seq is not None
                else "header"
            )
            print(
                f"{path}: CORRUPT — {report.reason} at {where} after "
                f"{report.records} verified record(s)"
            )
    if corrupt:
        print(
            f"error: {corrupt} WAL file(s) failed integrity "
            "verification",
            file=sys.stderr,
        )
        raise SystemExit(1)


def _run_stats(args: argparse.Namespace) -> None:
    """Read-only inspection of a durable state directory."""
    if args.wal_dir is None:
        raise SystemExit("stats requires --wal-dir")
    directory = pathlib.Path(args.wal_dir)
    manifest = read_manifest(directory)

    # Newest loadable snapshot, scanned without opening the WAL (a stats
    # probe must not create or repair anything).
    state = None
    snapshots = sorted(directory.glob("snapshot-*.npz"), reverse=True)
    for path in snapshots:
        try:
            state = read_snapshot(path)
            break
        except SnapshotError:
            continue

    registry = MetricsRegistry()
    wal_path = directory / "wal.log"
    registry.gauge(
        "repro_wal_size_bytes",
        help="Size of the write-ahead log file.",
        unit="bytes",
    ).set(wal_path.stat().st_size if wal_path.exists() else 0)
    registry.gauge(
        "repro_snapshot_files",
        help="Snapshot files retained in the state directory.",
    ).set(len(snapshots))
    if state is not None:
        registry.counter(
            "repro_distance_computed_total",
            help="Distance computations actually performed.",
        ).inc(state.counter_computed)
        registry.counter(
            "repro_distance_pruned_total",
            help="Distance computations avoided by pruning (Lemma 1).",
        ).inc(state.counter_pruned)
        registry.gauge(
            "repro_stream_batches_applied",
            help="Stream batches the durable state reflects.",
        ).set(state.batches_applied)
        registry.gauge(
            "repro_stream_window_points",
            help="Points currently inside the sliding window.",
        ).set(int(state.store_ids.size))
        registry.gauge(
            "repro_stream_active_bubbles",
            help="Non-retired bubbles in the summary.",
        ).set(state.num_bubbles - len(state.retired))

    snapshot = registry.snapshot()
    if args.format == "json":
        extra = {"manifest": manifest, "directory": str(directory)}
        print(json.dumps(to_json(snapshot, extra=extra), indent=2))
    elif args.format == "prom":
        print(to_prometheus(snapshot), end="")
    else:
        print(f"durable state in {directory}")
        if state is None:
            print(
                "no loadable snapshot yet (stream still buffering, or "
                "crashed before the first checkpoint)"
            )
        else:
            total = state.counter_computed + state.counter_pruned
            fraction = state.counter_pruned / total if total else 0.0
            print(
                f"as of snapshot: batch {state.batches_applied}, "
                f"{fraction:.0%} of distance computations pruned"
            )
        print()
        print(render_text(snapshot))
    if args.metrics_out is not None:
        json_path, prom_path = write_metrics(
            args.metrics_out,
            snapshot,
            extra={"manifest": manifest, "directory": str(directory)},
        )
        print(f"wrote metrics to {json_path} and {prom_path}")


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition."""
    parser = argparse.ArgumentParser(
        prog="repro-bubbles",
        description=(
            "Regenerate the evaluation of 'Incremental and Effective Data "
            "Summarization for Dynamic Hierarchical Clustering' "
            "(Nassar, Sander & Cheng, SIGMOD 2004)."
        ),
    )
    parser.add_argument(
        "command",
        choices=[
            "table1",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
            "figure11",
            "scalability",
            "staleness",
            "summarize",
            "stats",
            "audit",
            "report",
            "cluster",
            "serve",
            "loadgen",
            "dlq",
            "trace",
            "verify-chain",
            "all",
        ],
        help="which artifact to regenerate ('summarize' runs a durable "
        "stream summarization; 'stats' inspects its state directory; "
        "'audit' checks and repairs its invariants; 'report' renders a "
        "health report from it; 'cluster' extracts a dendrogram from "
        "its summary (optionally deadline-bounded); 'serve' runs the "
        "multi-tenant ingestion "
        "service; 'loadgen' writes a deterministic NDJSON event stream; "
        "'dlq' lists or replays the durable dead-letter queues; "
        "'trace' reconstructs span trees from a fleet's trace files; "
        "'verify-chain' runs the read-only WAL integrity scan)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_package_version()}",
    )
    parser.add_argument(
        "--size", type=int, default=10_000,
        help="initial database size (default 10000)",
    )
    parser.add_argument(
        "--bubbles", type=int, default=100,
        help="number of data bubbles (default 100)",
    )
    parser.add_argument(
        "--batches", type=int, default=10,
        help="update batches per repetition (default 10)",
    )
    parser.add_argument(
        "--reps", type=int, default=None,
        help="repetitions (default: 10 for table1, 3 for figures)",
    )
    parser.add_argument(
        "--update-fraction", type=float, default=0.05,
        help="per-batch update volume for table1 (default 0.05)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base RNG seed (default 0)"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes and few repetitions (smoke run)",
    )
    durable = parser.add_argument_group(
        "summarize", "options for the durable streaming command"
    )
    durable.add_argument(
        "--wal-dir", default=None,
        help="durable state directory (required for 'summarize')",
    )
    durable.add_argument(
        "--resume", action="store_true",
        help="recover from --wal-dir instead of starting fresh",
    )
    durable.add_argument(
        "--chunks", type=int, default=20,
        help="stream chunks to append this run (default 20)",
    )
    durable.add_argument(
        "--chunk-size", type=int, default=500,
        help="points per stream chunk (default 500)",
    )
    durable.add_argument(
        "--window", type=int, default=5_000,
        help="sliding window capacity in points (default 5000)",
    )
    durable.add_argument(
        "--points-per-bubble", type=int, default=50,
        help="target compression rate (default 50)",
    )
    durable.add_argument(
        "--checkpoint-every", type=int, default=8,
        help="snapshot cadence in batches (default 8)",
    )
    durable.add_argument(
        "--no-fsync", action="store_true",
        help="skip fsync on WAL appends/snapshots (faster; keeps "
        "process-crash durability, loses power-loss durability)",
    )
    durable.add_argument(
        "--on-bad-point", choices=["strict", "skip", "quarantine"],
        default="strict",
        help="how to treat NaN/Inf or wrong-dimension stream points: "
        "fail the append (strict, default), drop them (skip), or drop "
        "and retain them for diagnostics (quarantine)",
    )
    durable.add_argument(
        "--audit-every", type=int, default=0, metavar="N",
        help="run a self-healing invariant audit every N chunks "
        "(0 disables periodic audits; default 0)",
    )
    durable.add_argument(
        "--no-repair", action="store_true",
        help="audit only: report violations without repairing them",
    )
    clustering = parser.add_argument_group(
        "cluster", "options for the on-demand clustering command"
    )
    clustering.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="soft wall-clock budget for 'cluster': return the best "
        "anytime dendrogram finished inside it (default: compute the "
        "complete answer)",
    )
    clustering.add_argument(
        "--min-pts", type=int, default=25, metavar="N",
        help="OPTICS MinPts for 'cluster', in summarized points "
        "(default 25)",
    )
    observability = parser.add_argument_group(
        "observability", "metric and trace outputs (summarize, stats)"
    )
    observability.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the run's metrics registry as JSON at PATH and "
        "Prometheus text beside it (PATH with a .prom suffix)",
    )
    observability.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="append maintenance/streaming/persistence events to PATH "
        "as JSON lines (summarize only)",
    )
    observability.add_argument(
        "--timeseries-out", default=None, metavar="PATH",
        help="write windowed time-series telemetry (counter deltas + "
        "gauges per window) to PATH as JSON lines",
    )
    observability.add_argument(
        "--health-out", default=None, metavar="PATH",
        help="write a health-report document to PATH as JSON "
        "(summarize, report)",
    )
    observability.add_argument(
        "--timeseries-window", type=int, default=1, metavar="N",
        help="time-series window width in appended batches (default 1)",
    )
    observability.add_argument(
        "--format", choices=["text", "json", "prom"], default="text",
        help="stats/report output format (default text; 'prom' is "
        "stats-only)",
    )
    service = parser.add_argument_group(
        "service", "options for the ingestion service (serve, loadgen)"
    )
    service.add_argument(
        "--fleet-dir", default=None,
        help="fleet root directory: one durable shard state dir per "
        "tenant under tenants/ (required for 'serve')",
    )
    service.add_argument(
        "--input", default="-", metavar="PATH",
        help="NDJSON event stream for 'serve' ('-' reads stdin; "
        "default '-')",
    )
    service.add_argument(
        "--workers", type=int, default=4,
        help="flusher threads; tenants are striped across them "
        "(0 = synchronous dispatch with deterministic batching; "
        "default 4)",
    )
    service.add_argument(
        "--queue-points", type=int, default=1_024,
        help="per-shard queue capacity in points (default 1024)",
    )
    service.add_argument(
        "--batch-points", type=int, default=64,
        help="points folded into one micro-batched append (default 64)",
    )
    service.add_argument(
        "--backpressure", choices=["block", "shed"], default="block",
        help="full-queue policy: block the dispatcher or shed the "
        "event (default block)",
    )
    service.add_argument(
        "--on-bad-event", choices=["strict", "skip"], default="skip",
        help="malformed NDJSON lines: abort the serve (strict) or drop "
        "and count them (skip, default)",
    )
    service.add_argument(
        "--dim", type=int, default=2,
        help="point dimensionality for serve/loadgen (default 2)",
    )
    service.add_argument(
        "--rollup-out", default=None, metavar="PATH",
        help="write the end-of-run fleet rollup as JSON to PATH",
    )
    service.add_argument(
        "--fleet-health-out", default=None, metavar="PATH",
        help="write the rollup plus one full health document per "
        "tenant shard as JSON to PATH",
    )
    plane = parser.add_argument_group(
        "telemetry plane", "live observability endpoints and trace "
        "recording (serve, trace)"
    )
    plane.add_argument(
        "--listen", type=int, default=None, metavar="PORT",
        help="serve the live telemetry plane on 127.0.0.1:PORT while "
        "events flow — /metrics (Prometheus 0.0.4), /health, /ready, "
        "/tenants/<id>/stats — and attach the SLO burn-rate engine "
        "(PORT 0 binds an ephemeral port)",
    )
    plane.add_argument(
        "--trace", action="store_true",
        help="serve: record one causally-parented span trace per "
        "micro-batch into each tenant's trace.jsonl (query with "
        "'repro-bubbles trace')",
    )
    plane.add_argument(
        "--slo-fast-seconds", type=float, default=60.0, metavar="S",
        help="SLO fast burn-rate window for --listen (default 60)",
    )
    plane.add_argument(
        "--slo-slow-seconds", type=float, default=300.0, metavar="S",
        help="SLO slow burn-rate window for --listen (default 300)",
    )
    plane.add_argument(
        "--top", type=int, default=3, metavar="N",
        help="trace: print critical paths for the N slowest "
        "micro-batches (default 3)",
    )
    healing = parser.add_argument_group(
        "self-healing", "shard supervision and dead-letter handling "
        "(serve, dlq, verify-chain)"
    )
    healing.add_argument(
        "--supervise", action="store_true",
        help="attach a shard supervisor: failed shards are restarted "
        "in place (bounded budget, exponential backoff) behind "
        "per-tenant circuit breakers; without it a serve ending with "
        f"failed shards exits with code {EXIT_FAILED_SHARDS}",
    )
    healing.add_argument(
        "--max-restarts", type=int, default=5, metavar="N",
        help="per-tenant restart budget for --supervise (default 5)",
    )
    healing.add_argument(
        "--replay", action="store_true",
        help="dlq: re-submit dead letters through the fleet's normal "
        "ingestion path instead of listing them (requires --fleet-dir; "
        "letters that still fail stay parked and exit code is 1)",
    )
    loadgen = parser.add_argument_group(
        "loadgen", "workload shape for the load generator"
    )
    loadgen.add_argument(
        "--out", default="-", metavar="PATH",
        help="where loadgen writes NDJSON events ('-' writes stdout; "
        "default '-')",
    )
    loadgen.add_argument(
        "--tenants", type=int, default=8,
        help="tenant streams to simulate (default 8)",
    )
    loadgen.add_argument(
        "--events", type=int, default=5_000,
        help="total point events to generate (default 5000)",
    )
    loadgen.add_argument(
        "--zipf", type=float, default=1.1,
        help="Zipf exponent of the tenant-size skew (0 = uniform; "
        "default 1.1)",
    )
    loadgen.add_argument(
        "--burst", type=float, default=32.0,
        help="mean Poisson burst size in events (default 32)",
    )
    return parser


def _base_config(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig(
        initial_size=args.size,
        num_bubbles=args.bubbles,
        num_batches=args.batches,
        update_fraction=args.update_fraction,
        seed=args.seed,
    )
    if args.quick:
        config = replace(
            config,
            initial_size=min(args.size, 3_000),
            num_bubbles=min(args.bubbles, 60),
            num_batches=min(args.batches, 4),
        )
    return config


def _run_command(command: str, args: argparse.Namespace) -> None:
    if command == "summarize":
        started = time.perf_counter()
        _run_summarize(args)
        print(f"\n[summarize finished in {time.perf_counter() - started:.1f}s]")
        return
    if command == "stats":
        _run_stats(args)
        return
    if command == "audit":
        _run_audit(args)
        return
    if command == "report":
        _run_report(args)
        return
    if command == "cluster":
        _run_cluster(args)
        return
    if command == "serve":
        started = time.perf_counter()
        _run_serve(args)
        print(f"\n[serve finished in {time.perf_counter() - started:.1f}s]")
        return
    if command == "loadgen":
        _run_loadgen(args)
        return
    if command == "dlq":
        _run_dlq(args)
        return
    if command == "trace":
        _run_trace(args)
        return
    if command == "verify-chain":
        _run_verify_chain(args)
        return
    config = _base_config(args)
    table_reps = args.reps if args.reps is not None else (2 if args.quick else 10)
    figure_reps = args.reps if args.reps is not None else (2 if args.quick else 3)
    started = time.perf_counter()

    if command == "table1":
        datasets = TABLE1_DATASETS[:4] if args.quick else TABLE1_DATASETS
        rows = run_table1(config, repetitions=table_reps, datasets=datasets)
        print(render_table1(rows))
    elif command == "figure7":
        fig_config = replace(
            config,
            scenario="figure7",
            dim=2,
            initial_size=min(config.initial_size, 4_000),
            num_bubbles=min(config.num_bubbles, 50),
            update_fraction=0.1,
            num_batches=max(config.num_batches, 8),
        )
        print(render_figure7(run_figure7(fig_config)))
    elif command == "figure8":
        print(render_figure8(run_figure8(config)))
    elif command == "figure9":
        print(render_figure9(run_figure9(config, repetitions=figure_reps)))
    elif command == "figure10":
        points = run_figure10(config, repetitions=figure_reps)
        anchor = construction_pruning(
            replace(config, scenario="complex"), repetitions=figure_reps
        )
        print(render_figure10(points, construction=anchor))
    elif command == "figure11":
        print(render_figure11(run_figure11(config, repetitions=figure_reps)))
    elif command == "staleness":
        staleness_config = replace(
            config, scenario="complex", update_fraction=0.08,
            num_batches=max(config.num_batches, 10),
        )
        print(render_staleness(run_staleness(staleness_config, rebuild_every=5)))
    elif command == "scalability":
        sizes = (1_000, 2_500, 5_000) if args.quick else (
            2_500, 5_000, 10_000, 20_000
        )
        print(
            render_size_sweep(
                run_size_sweep(
                    config, sizes=sizes, repetitions=figure_reps
                )
            )
        )
        print()
        print(
            render_dimension_sweep(
                run_dimension_sweep(config, repetitions=figure_reps)
            )
        )
    else:
        raise ValueError(f"unknown command {command!r}")

    elapsed = time.perf_counter() - started
    print(f"\n[{command} finished in {elapsed:.1f}s]")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    install_from_env()  # REPRO_FAILPOINTS, a no-op when unset
    args = build_parser().parse_args(argv)
    commands = (
        [
            "figure7",
            "figure8",
            "figure9",
            "figure10",
            "figure11",
            "scalability",
            "staleness",
            "table1",
        ]
        if args.command == "all"
        else [args.command]
    )
    try:
        for command in commands:
            _run_command(command, args)
            print()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
