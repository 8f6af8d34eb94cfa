"""The benchmark's three workloads and the run that measures one of them.

Every workload is a closed loop: one client on one thread sends its next
request only after the previous one returned. A workload object makes
its inputs from the seed alone when it is constructed (untimed), builds
its initial state in ``setup`` (timed, repeated for ``setup_s``) and
runs the measured phase in *segments*: the timed units whose times sum
to the phase time. Output checks run between or after segments,
outside the timing. README.md explains why each workload exists.
"""

from __future__ import annotations

import gc
import io
import shutil
import time
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

import host
from ledger import Recorder, layer_metrics, patched, self_time_gap
from ledger import trace_targets

from repro.clustering import extract_candidates
from repro.clustering.incremental import ClusterCache, IncrementalClusterer
from repro.data import well_separated_mixture
from repro.evaluation import best_match_fscore
from repro.experiments.harness import ExperimentConfig, candidate_point_sets
from repro.persistence import verify_chain
from repro.service import (
    FleetConfig,
    FleetManager,
    LoadSpec,
    Shard,
    encode_event,
    generate_events,
    serve_events,
    serve_ndjson,
)
from repro.streaming import DurableSummarizer, SlidingWindowSummarizer

#: End-to-end metrics every workload reports, with units, in order.
E2E = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ingest_pts_per_s", "1/s"),
    ("apply_p50_ms", "ms"),
    ("apply_p95_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("dist_per_pt", "count"),
)

#: Seed of everything set-up builds: the fleet prefill, the cluster_live
#: mixture and its prefill. The initial state is part of the workload
#: definition (the maintenance trajectory, split churn included, hinges
#: on the bootstrap layout); the run seed draws the measured inputs.
SETUP_SEED = 20040613

#: MinPts of every clustering (the clusterer's and the harness default).
MIN_PTS = 25

#: Workload shape that does not change with size. serve_durable and
#: recover_fleet: tenants and the checkpoint cadence (the ``serve``
#: default). cluster_live: dimension, points per append, the mixture.
TENANTS = 8
CHECKPOINT_EVERY = 8
LIVE_DIM = 8
LIVE_CHUNK = 32
CLUSTERS = 10
SEPARATION = 4.0
BOX = 12.0

#: cluster_live append/fit iterations per ``--seconds``.
ITERATIONS_PER_SECOND = 20.0

#: serve_durable takes one calibration sample per this many batches.
CAL_EVERY = 8

#: Every timing reads the CPU time of the measuring thread. The loop is
#: single-threaded (one client, ``workers=0``, one BLAS thread), so this
#: is its wall time minus the time it was descheduled or blocked in the
#: kernel, chiefly in ``fsync``: the device cost is carried by the
#: ``fsyncs_per_kpt`` and ``write_bytes_per_pt`` counts instead.
cpu_clock = time.thread_time


@dataclass(frozen=True)
class Sizes:
    """Workload size. ``FULL`` is the benchmark; ``SMALL`` its tests.

    The ``*_per_second`` rates turn ``--seconds`` into a fixed amount of
    work, so the same seed always does the same work and count metrics
    repeat exactly; they are set so a phase takes about ``--seconds`` on
    a 2-vCPU host.
    """

    window: int = 5_000
    points_per_bubble: int = 50
    batch_points: int = 64
    queue_points: int = 1_024
    events_per_second: float = 2_600.0
    crash_events: int = 1_000
    crash_images: int = 12
    crash_spacing: int = 400
    recoveries_per_second: float = 2.5
    live_window: int = 10_000
    live_points_per_bubble: int = 40
    sample_every: int = 10
    setup_reps: int = 3


FULL = Sizes()
SMALL = Sizes(
    window=400,
    points_per_bubble=20,
    batch_points=16,
    queue_points=64,
    events_per_second=600.0,
    crash_events=600,
    crash_images=2,
    crash_spacing=100,
    recoveries_per_second=2.0,
    live_window=600,
    live_points_per_bubble=20,
    sample_every=5,
    setup_reps=1,
)


@dataclass
class Phase:
    """What one measured phase produced.

    Timings are ``(when, seconds)`` pairs: ``seconds`` is CPU time of
    the measuring thread (see :data:`cpu_clock`) and ``when`` the
    ``perf_counter`` time it was taken, which the host calibration needs
    to express it at reference speed.
    """

    points: int = 0
    attempted: int = 0
    failed: int = 0
    #: Timed pieces whose sum is the phase time.
    pieces: list = field(default_factory=list)
    apply: list = field(default_factory=list)
    query: list = field(default_factory=list)
    queue_wait_s: list = field(default_factory=list)
    computed: int = 0
    pruned: int = 0
    problems: list = field(default_factory=list)
    report: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(seconds for _, seconds in self.pieces)


class Segment:
    """Times one unit of the phase; opens a ledger segment when tracing."""

    def __init__(self, phase: Phase, recorder: Recorder | None) -> None:
        self._phase = phase
        self._recorder = recorder
        self._span = None

    def __enter__(self) -> "Segment":
        if self._recorder is not None:
            self._span = self._recorder.segment()
            self._span.__enter__()
        self._when = time.perf_counter()
        self._start = cpu_clock()
        return self

    def __exit__(self, *exc_info) -> None:
        self._phase.pieces.append((self._when, cpu_clock() - self._start))
        if self._span is not None:
            self._span.__exit__(*exc_info)


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes())


# ----------------------------------------------------------------------
# Durable service fleets (serve_durable, recover_fleet)
# ----------------------------------------------------------------------
def fleet_config(s: Sizes, batch_points: int | None = None) -> FleetConfig:
    """The ``serve`` CLI defaults at size ``s``, synchronous (workers=0)."""
    return FleetConfig(
        dim=2,
        window_size=s.window,
        points_per_bubble=s.points_per_bubble,
        checkpoint_every=CHECKPOINT_EVERY,
        seed=0,
        fsync=True,
        queue_points=batch_points or s.queue_points,
        batch_points=batch_points or s.batch_points,
        workers=0,
    )


def balanced_prefill(s: Sizes) -> list:
    """``window`` events per tenant, tenant by tenant, oldest first.

    Drawn with the drift reversed and fed in reverse, so each tenant's
    cloud ends exactly where the measured stream (drift forward from the
    tenant's first point) starts: the window is already in steady state.
    """
    events = TENANTS * s.window
    while True:
        spec = LoadSpec(
            tenants=TENANTS,
            events=events,
            dim=2,
            seed=SETUP_SEED,
            zipf_s=0.0,
            drift=-LoadSpec().drift,
        )
        per_tenant: dict[str, list] = {}
        for event in generate_events(spec):
            per_tenant.setdefault(event.tenant, []).append(event)
        if len(per_tenant) == TENANTS and min(
            len(v) for v in per_tenant.values()
        ) >= s.window:
            break
        events = events * 5 // 4
    return [
        event
        for tenant in sorted(per_tenant)
        for event in reversed(per_tenant[tenant][: s.window])
    ]


def build_fleet(root, prefill: list, s: Sizes) -> FleetManager:
    """A fleet whose every tenant window is full, ready to serve.

    The prefill goes in as one window-sized micro-batch per tenant (so
    each tenant bootstraps at its full bubble count), is drained to a
    checkpoint, and the fleet is reopened with the serving config.
    """
    stats = serve_events(
        FleetManager(root, config=fleet_config(s, batch_points=s.window)),
        prefill,
    )
    if stats.accepted != len(prefill):
        raise RuntimeError(
            f"prefill accepted {stats.accepted} of {len(prefill)} events")
    return FleetManager.recover(root, config=fleet_config(s))


class ServeDurable:
    """LoadSpec NDJSON parsed from memory by ``serve_ndjson`` into a fleet."""

    name = "serve_durable"

    def __init__(self, seed: int, seconds: int, s: Sizes) -> None:
        self.s = s
        self.events = max(1, round(s.events_per_second * seconds))
        self.prefill = balanced_prefill(s)
        spec = LoadSpec(tenants=TENANTS, events=self.events, dim=2,
                        seed=seed)
        self.ndjson = "".join(
            encode_event(e) + "\n" for e in generate_events(spec))

    def run_lengths(self) -> dict:
        return {"events": self.events, "prefill_points": len(self.prefill)}

    def setup(self, root) -> FleetManager:
        return build_fleet(root, self.prefill, self.s)

    def dispose(self, fleet: FleetManager) -> None:
        fleet.close()
        shutil.rmtree(fleet.root, ignore_errors=True)

    def phase(self, fleet: FleetManager, recorder, cal) -> Phase:
        ph = Phase(attempted=self.events)
        shards = [fleet.shard(t) for t in fleet.tenants]
        counters = [shard.summarizer.counter for shard in shards]
        start = [(c.computed, c.pruned) for c in counters]
        arrivals: dict[int, deque] = {}
        submit = Shard.__dict__["submit"]
        flush_once = Shard.__dict__["flush_once"]
        # Calibration samples run inside the serve call (untraced runs
        # only), so every timing below reads a clock that stops for them
        # and the phase time is cut into the pieces between them.
        paused = [0.0]
        marks = []

        def clock() -> float:
            return cpu_clock() - paused[0]

        def stamped_submit(self, point, label=-1):
            accepted = submit(self, point, label)
            if accepted:
                arrivals.setdefault(id(self), deque()).append(clock())
            return accepted

        def timed_flush(self):
            begun = clock()
            applied = flush_once(self)
            if applied:
                done = clock()
                now = time.perf_counter()
                ph.apply.append((now, done - begun))
                queue = arrivals[id(self)]
                for _ in range(applied):
                    arrived = queue.popleft()
                    ph.queue_wait_s.append(begun - arrived)
                    ph.query.append((now, done - arrived))
                if cal is not None and len(ph.apply) % CAL_EVERY == 0:
                    marks.append((now, clock()))
                    paused[0] += cal.sample()
            return applied

        fsyncs = host.FsyncCounter()
        stats = None
        gc.collect()
        written = host.write_chars()
        with patched([(Shard, "submit", stamped_submit),
                      (Shard, "flush_once", timed_flush),
                      fsyncs.target()]):
            with Segment(ph, recorder):
                marks.append((time.perf_counter(), clock()))
                try:
                    stats = serve_ndjson(fleet, io.StringIO(self.ndjson))
                except Exception as exc:  # reported, never hidden
                    ph.problems.append(f"serve_ndjson raised {exc!r}")
                marks.append((time.perf_counter(), clock()))
        written = host.write_chars() - written
        ph.pieces = [(a[0], b[1] - a[1]) for a, b in zip(marks, marks[1:])]
        for counter, (computed, pruned) in zip(counters, start):
            ph.computed += counter.computed - computed
            ph.pruned += counter.pruned - pruned
        if stats is None:
            ph.failed = self.events
            return ph
        ph.points = stats.accepted
        totals = stats.rollup["fleet"]
        applied = totals["applied_points"]
        ph.failed = self.events - min(applied, stats.accepted)
        if not (totals["submitted_points"] == applied == stats.accepted
                == self.events):
            ph.problems.append(
                f"submitted {totals['submitted_points']}, applied "
                f"{applied}, accepted {stats.accepted} of {self.events}")
        if totals["states"] != {"stopped": len(shards)}:
            ph.problems.append(f"shard states {totals['states']}")
        for tenant in fleet.tenants:
            chain = verify_chain(fleet.tenant_dir(tenant) / "wal.log")
            if not chain.ok or chain.torn_tail:
                ph.problems.append(f"verify_chain failed for {tenant}")
        ph.report = {
            "write_bytes_per_pt": written / max(1, ph.points),
            "fsyncs_per_kpt": 1e3 * fsyncs.calls / max(1, ph.points),
            "batches": len(ph.apply),
        }
        return ph


def durable_state(summarizer: DurableSummarizer) -> dict:
    """The parts of a tenant's state recovery must reproduce exactly."""
    state = summarizer.inner.capture_state(summarizer.batches_applied)
    return {
        "store_ids": state.store_ids,
        "ns": state.ns,
        "linear_sums": state.linear_sums,
        "square_sums": state.square_sums,
        "rng_state": state.rng_state,
    }


def _same_state(a: dict, b: dict) -> bool:
    return a["rng_state"] == b["rng_state"] and all(
        _bits_equal(a[k], b[k])
        for k in ("store_ids", "ns", "linear_sums", "square_sums"))


class RecoverFleet:
    """``FleetManager.recover`` of crash images of a serve-shaped fleet."""

    name = "recover_fleet"

    def __init__(self, seed: int, seconds: int, s: Sizes) -> None:
        self.s = s
        self.recoveries = max(1, round(s.recoveries_per_second * seconds))
        self.prefill = balanced_prefill(s)
        events = s.crash_events + (s.crash_images - 1) * s.crash_spacing
        spec = LoadSpec(tenants=TENANTS, events=events, dim=2, seed=seed)
        self.stream = list(generate_events(spec))
        self._copies = 0

    def run_lengths(self) -> dict:
        return {"recoveries": self.recoveries,
                "prefill_points": len(self.prefill),
                "crash_images": self.s.crash_images}

    def setup(self, root) -> list:
        """Serve, taking a crash image every ``crash_spacing`` events.

        Images are taken after event ``crash_events`` and every
        ``crash_spacing`` events after it, so tenants hold WAL tails of
        different lengths. With ``workers=0`` nothing is in flight between
        two submits, so a copy of the fleet directory then is exactly
        what ``FleetManager.close()`` at that event leaves on disk; the
        fleet is crash-closed after the last image. Several tails per run
        keep the replay work from hinging on one seed's tail.
        """
        fleet = build_fleet(root / "fleet", self.prefill, self.s)
        images = []
        for index, event in enumerate(self.stream, start=1):
            fleet.submit(event)
            if (index - self.s.crash_events) % self.s.crash_spacing == 0 \
                    and index >= self.s.crash_events:
                image = root / f"crash-{len(images)}"
                shutil.copytree(fleet.root, image)
                durable = {t: durable_state(fleet.shard(t).summarizer)
                           for t in fleet.tenants}
                images.append((image, durable, index))
        fleet.close()
        shutil.rmtree(fleet.root)
        return images

    def dispose(self, images: list) -> None:
        for image, _, _ in images:
            shutil.rmtree(image, ignore_errors=True)

    def phase(self, images: list, recorder, cal) -> Phase:
        ph = Phase(attempted=self.recoveries)
        append = SlidingWindowSummarizer.__dict__["append"]
        recover = DurableSummarizer.__dict__["recover"].__func__

        def timed_append(self, points, labels=None):
            computed, pruned = self.counter.computed, self.counter.pruned
            when, begun = time.perf_counter(), cpu_clock()
            report = append(self, points, labels)
            ph.apply.append((when, cpu_clock() - begun))
            ph.points += len(points)
            ph.computed += self.counter.computed - computed
            ph.pruned += self.counter.pruned - pruned
            return report

        def timed_recover(cls, *args, **kwargs):
            when, begun = time.perf_counter(), cpu_clock()
            stream = recover(cls, *args, **kwargs)
            ph.query.append((when, cpu_clock() - begun))
            return stream

        fsyncs = host.FsyncCounter()
        written = 0
        with patched([(SlidingWindowSummarizer, "append", timed_append),
                      (DurableSummarizer, "recover",
                       classmethod(timed_recover)),
                      fsyncs.target()]):
            for attempt in range(self.recoveries):
                image, durable, _ = images[attempt % len(images)]
                self._copies += 1
                copy = image.with_name(f"recovering-{self._copies}")
                shutil.copytree(image, copy)
                if cal is not None:
                    cal.sample(3)
                gc.collect()
                before = host.write_chars()
                fleet = None
                with Segment(ph, recorder):
                    try:
                        fleet = FleetManager.recover(
                            copy, config=fleet_config(self.s))
                    except Exception as exc:  # reported, never hidden
                        ph.problems.append(f"recover raised {exc!r}")
                written += host.write_chars() - before
                if fleet is None:
                    ph.failed += 1
                else:
                    recovered = {t: durable_state(fleet.shard(t).summarizer)
                                 for t in fleet.tenants}
                    fleet.close()
                    if recovered.keys() != durable.keys() or not all(
                        _same_state(recovered[t], durable[t])
                        for t in durable
                    ):
                        ph.failed += 1
                        ph.problems.append(
                            "recovered state differs from the pre-crash "
                            "durable state")
                shutil.rmtree(copy)
        speed = _raw if cal is None else cal.normalize
        ph.report = {
            "recover_s": float(np.median(speed(ph.pieces))),
            "replayed_batches": len(ph.apply),
            "replayed_points": ph.points,
            "crashed_at_event": [index for _, _, index in images],
            "write_bytes_per_pt": written / max(1, ph.points),
            "fsyncs_per_kpt": 1e3 * fsyncs.calls / max(1, ph.points),
        }
        return ph


# ----------------------------------------------------------------------
# Live clustering (cluster_live)
# ----------------------------------------------------------------------
def fit_fscore(fit, summarizer: SlidingWindowSummarizer) -> float:
    """Best-match F of a fit, with candidates built as the harness does."""
    config = ExperimentConfig()
    alive_ids, _, truth = summarizer.store.snapshot()
    expanded = fit.expanded()
    spans = extract_candidates(
        expanded.reachability,
        min_size=max(2, int(config.min_cluster_size * summarizer.size)),
        num_levels=config.num_levels,
    )
    candidates = candidate_point_sets(
        expanded, spans, summarizer.summary, alive_ids)
    return float(best_match_fscore(truth, candidates).overall)


class ClusterLive:
    """Alternating 32-point appends and full fits on one live summary."""

    name = "cluster_live"

    def __init__(self, seed: int, seconds: int, s: Sizes) -> None:
        self.s = s
        self.iterations = max(1, round(ITERATIONS_PER_SECOND * seconds))
        mixture = well_separated_mixture(
            LIVE_DIM, CLUSTERS, np.random.default_rng(SETUP_SEED),
            separation=SEPARATION, box=BOX)
        prefill = mixture.sample(
            s.live_window, np.random.default_rng(SETUP_SEED + 1))
        stream = mixture.sample(
            LIVE_CHUNK * self.iterations, np.random.default_rng(seed))
        self.points, self.labels = (
            np.concatenate(parts) for parts in zip(prefill, stream))

    def run_lengths(self) -> dict:
        return {"iterations": self.iterations,
                "prefill_points": self.s.live_window}

    def setup(self, root) -> tuple:
        s = self.s
        summarizer = SlidingWindowSummarizer(
            dim=LIVE_DIM,
            window_size=s.live_window,
            points_per_bubble=s.live_points_per_bubble,
            seed=0,
        )
        summarizer.append(self.points[: s.live_window],
                          self.labels[: s.live_window])
        clusterer = IncrementalClusterer(
            min_pts=MIN_PTS, counter=summarizer.counter)
        clusterer.attach(summarizer.maintainer)
        clusterer.fit(summarizer.summary)
        return summarizer, clusterer

    def dispose(self, state: tuple) -> None:
        pass

    def phase(self, state: tuple, recorder, cal) -> Phase:
        summarizer, clusterer = state
        s = self.s
        ph = Phase(attempted=2 * self.iterations)
        counter = summarizer.counter
        start = (counter.computed, counter.pruned)
        sources: Counter = Counter()
        fit_computed = 0
        fscores = []
        gc.collect()
        for i in range(self.iterations):
            lo = s.live_window + i * LIVE_CHUNK
            rows = slice(lo, lo + LIVE_CHUNK)
            with Segment(ph, recorder):
                try:
                    summarizer.append(self.points[rows], self.labels[rows])
                    appended = True
                except Exception as exc:  # reported, never hidden
                    appended = False
                    ph.problems.append(f"append raised {exc!r}")
            ph.apply.append(ph.pieces[-1])
            if appended:
                ph.points += LIVE_CHUNK
            else:
                ph.failed += 1
            before = counter.computed
            fit = None
            with Segment(ph, recorder):
                try:
                    fit = clusterer.fit(summarizer.summary)
                except Exception as exc:  # reported, never hidden
                    ph.problems.append(f"fit raised {exc!r}")
            ph.query.append(ph.pieces[-1])
            if fit is None:
                ph.failed += 1
                continue
            fit_computed += counter.computed - before
            sources[fit.source] += 1
            if cal is not None and i % 2 == 0:
                cal.sample()
            if (i + 1) % s.sample_every == 0:
                fscores.append(fit_fscore(fit, summarizer))
                cold, _ = ClusterCache(min_pts=MIN_PTS).refresh(
                    summarizer.summary)
                if not (_bits_equal(cold.plot.ordering, fit.plot.ordering)
                        and _bits_equal(cold.plot.reachability,
                                        fit.plot.reachability)):
                    ph.failed += 1
                    ph.problems.append(
                        f"fit {i} differs from a cold refresh")
        ph.computed = counter.computed - start[0]
        ph.pruned = counter.pruned - start[1]
        ph.report = {
            "fscore": float(np.mean(fscores)) if fscores else 0.0,
            "fscore_samples": len(fscores),
            "fit_sources": dict(sorted(sources.items())),
            "dist_per_query": fit_computed / max(1, sum(sources.values())),
            "bubbles": len(summarizer.summary.non_empty_ids()),
        }
        return ph


WORKLOADS = {w.name: w for w in (ServeDurable, ClusterLive, RecoverFleet)}


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def _end_to_end(ph: Phase, setup_s: float, speed) -> dict:
    """The end-to-end metrics; ``speed`` maps timing pairs to seconds."""

    def pct(samples, q):
        return 1e3 * float(np.percentile(speed(samples), q))

    return {
        "setup_s": setup_s,
        "peak_rss_mb": host.peak_rss_mb(),
        "ingest_pts_per_s": ph.points / float(speed(ph.pieces).sum()),
        "apply_p50_ms": pct(ph.apply, 50),
        "apply_p95_ms": pct(ph.apply, 95),
        "query_p50_ms": pct(ph.query, 50),
        "query_p95_ms": pct(ph.query, 95),
        "dist_per_pt": ph.computed / max(1, ph.points),
    }


def _raw(samples) -> np.ndarray:
    return np.asarray([seconds for _, seconds in samples])


def _measure(workload, workdir, recorder=None, cal=None, reps: int = 1):
    """Set up ``reps`` times (keeping the last state), then run the phase.

    Returns ``(phase, [(when, setup seconds)], steal fraction)``.
    """
    setups, state = [], None
    for rep in range(reps):
        if state is not None:
            workload.dispose(state)
            state = None
        if cal is not None:
            cal.sample(5)
        gc.collect()
        when, begun = time.perf_counter(), cpu_clock()
        state = workload.setup(workdir / f"state-{rep}")
        setups.append((when, cpu_clock() - begun))
    ticks = host.cpu_ticks()
    if recorder is None:
        ph = workload.phase(state, None, cal)
    else:
        with patched(trace_targets(recorder)):
            ph = workload.phase(state, recorder, None)
    steal = host.steal_fraction(ticks, host.cpu_ticks())
    workload.dispose(state)
    return ph, setups, steal


def run(name: str, seed: int, seconds: int, trace: bool, workdir,
        sizes: Sizes = FULL, import_s: list[float] | None = None) -> dict:
    """Measure workload ``name`` once; see run.py for the output."""
    workload = WORKLOADS[name](seed, seconds, sizes)
    workdir.mkdir(parents=True, exist_ok=True)
    out = {"run_lengths": workload.run_lengths()}
    if not trace:
        cal = host.Calibration()
        ph, setups, steal = _measure(workload, workdir / "untraced",
                                     cal=cal, reps=sizes.setup_reps)
        setup_s = float(np.median(import_s or [0.0])
                        + np.median(_raw(setups)))
        out["metrics"] = _end_to_end(
            ph, setup_s / float(np.median(cal.slowdown_at(
                [when for when, _ in setups]))), cal.normalize)
        out["report"] = {
            **out["metrics"],
            **ph.report,
            "raw": _end_to_end(ph, setup_s, _raw),
            "host.slowdown": float(np.median(cal.slowdown_at(
                [when for when, _ in ph.pieces]))),
            "calibration_samples": len(cal.samples),
            "failed_frac": ph.failed / ph.attempted,
            "apply_samples": len(ph.apply),
            "query_samples": len(ph.query),
            "setup_samples_s": _raw(setups).tolist(),
            "import_samples_s": import_s or [],
        }
    else:
        base, _, _ = _measure(workload, workdir / "baseline")
        recorder = Recorder()
        ph, _, steal = _measure(workload, workdir / "traced", recorder)
        metrics = layer_metrics(recorder.spans, ph.points, ph.queue_wait_s,
                                ph.computed, ph.pruned)
        metrics["cluster.dist_per_query"] = ph.report.get(
            "dist_per_query", 0.0)
        metrics["trace.overhead_frac"] = ph.wall_s / base.wall_s - 1.0
        gap = self_time_gap(metrics)
        if abs(gap) > 1e-6 * metrics["trace.phase_s"]:
            ph.problems.append(f"self times miss the phase by {gap} s")
        metrics["host.steal_frac"] = steal
        out["metrics"] = metrics
        out["spans"] = recorder.rows()
    out["steal_frac"] = steal
    out["attempted"] = ph.attempted
    out["failed"] = ph.failed
    out["problems"] = ph.problems
    return out
