"""Event tracer semantics and end-to-end instrumentation wiring."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import (
    BubbleBuilder,
    BubbleConfig,
    IncrementalMaintainer,
    MaintenanceConfig,
    PointStore,
    UpdateBatch,
)
from repro.geometry import DistanceCounter
from repro.observability import (
    EVENT_KINDS,
    EventTracer,
    Observability,
)
from repro.streaming import DurableSummarizer, SlidingWindowSummarizer


class TestEventTracer:
    def test_events_are_sequenced_and_counted(self):
        tracer = EventTracer()
        tracer.emit("bubble_split", over=3, donor=7)
        tracer.emit("bubble_split", over=1, donor=2)
        tracer.emit("wal_append", seq=0)
        assert [e.seq for e in tracer.events()] == [0, 1, 2]
        assert tracer.counts() == {"bubble_split": 2, "wal_append": 1}
        assert len(tracer.events("bubble_split")) == 2

    def test_timestamps_are_monotone(self):
        tracer = EventTracer()
        for _ in range(5):
            tracer.emit("insert_batch")
        stamps = [e.ts for e in tracer.events()]
        assert stamps == sorted(stamps)

    def test_ring_drops_oldest_but_counts_lifetime(self):
        tracer = EventTracer(capacity=3)
        for i in range(5):
            tracer.emit("fifo_eviction", index=i)
        kept = tracer.events()
        assert len(kept) == 3
        assert [e.fields["index"] for e in kept] == [2, 3, 4]
        assert tracer.total_emitted == 5
        assert tracer.counts()["fifo_eviction"] == 5

    def test_ring_wraparound_at_exact_capacity_boundary(self):
        # Filling the ring to exactly `capacity` must not drop anything;
        # one past it drops exactly the oldest (off-by-one guard).
        tracer = EventTracer(capacity=4)
        for i in range(4):
            tracer.emit("insert_batch", index=i)
        assert [e.fields["index"] for e in tracer.events()] == [0, 1, 2, 3]
        tracer.emit("insert_batch", index=4)
        assert [e.fields["index"] for e in tracer.events()] == [1, 2, 3, 4]
        tracer.emit("insert_batch", index=5)
        assert [e.fields["index"] for e in tracer.events()] == [2, 3, 4, 5]
        assert tracer.total_emitted == 6

    def test_capacity_one_ring_keeps_only_the_newest(self):
        tracer = EventTracer(capacity=1)
        for i in range(3):
            tracer.emit("insert_batch", index=i)
        (kept,) = tracer.events()
        assert kept.fields["index"] == 2
        assert kept.seq == 2

    def test_jsonl_sink_receives_every_line(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        with EventTracer(sink=sink) as tracer:
            tracer.emit("bubble_split", over=3)
            tracer.emit("wal_append", seq=0, bytes=100)
        lines = [
            json.loads(line)
            for line in sink.read_text().splitlines()
        ]
        assert [line["kind"] for line in lines] == [
            "bubble_split",
            "wal_append",
        ]
        assert lines[1]["bytes"] == 100

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            EventTracer(capacity=0)

    def test_known_kinds_catalogued(self):
        for kind in ("bubble_split", "donor_migration",
                     "seed_redistribution", "wal_append",
                     "snapshot_write", "recovery_replay"):
            assert kind in EVENT_KINDS


class TestObservabilityHandle:
    def test_emit_counts_events_even_without_tracer(self):
        obs = Observability()
        obs.emit("bubble_split", over=1)
        obs.emit("bubble_split", over=2)
        assert obs.event_count("bubble_split") == 2
        assert obs.tracer is None
        snapshot = obs.metrics.snapshot()
        assert snapshot.value(
            "repro_events_total", labels={"kind": "bubble_split"}
        ) == 2

    def test_emit_traces_when_tracer_attached(self):
        obs = Observability(tracer=EventTracer())
        obs.emit("wal_append", seq=3)
        (event,) = obs.tracer.events()
        assert event.kind == "wal_append"
        assert event.fields == {"seq": 3}


def make_world(rng, obs, num_points=600, num_bubbles=20):
    points = np.vstack(
        [
            rng.normal([0, 0], 0.5, size=(num_points // 2, 2)),
            rng.normal([20, 20], 0.5, size=(num_points // 2, 2)),
        ]
    )
    labels = np.array(
        [0] * (num_points // 2) + [1] * (num_points // 2), dtype=np.int64
    )
    store = PointStore(dim=2)
    store.insert(points, labels)
    counter = DistanceCounter()
    bubbles = BubbleBuilder(
        BubbleConfig(num_bubbles=num_bubbles, seed=0), counter
    ).build(store)
    maintainer = IncrementalMaintainer(
        bubbles, store, MaintenanceConfig(seed=0), counter=counter, obs=obs
    )
    return store, counter, maintainer


class TestMaintainerInstrumentation:
    def test_registry_mirrors_distance_counter(self, rng):
        obs = Observability()
        store, counter, maintainer = make_world(rng, obs)
        for _ in range(3):
            maintainer.apply_batch(
                UpdateBatch(
                    insertions=rng.normal([0, 0], 0.5, size=(40, 2)),
                    insertion_labels=tuple([0] * 40),
                )
            )
        snapshot = obs.metrics.snapshot()
        # The registry accounts only post-construction (maintenance)
        # activity; construction distances belong to the builder.
        assert (
            snapshot.value("repro_distance_computed_total")
            + snapshot.value("repro_distance_pruned_total")
        ) > 0
        assert snapshot.value("repro_maintenance_batches_total") == 3
        assert snapshot.value("repro_maintenance_insertions_total") == 120

    def test_matrix_distances_are_shown_apart(self, rng):
        obs = Observability()
        store, counter, maintainer = make_world(rng, obs)
        before = counter.computed
        for _ in range(3):
            maintainer.apply_batch(
                UpdateBatch(
                    deletions=tuple(int(i) for i in store.ids()[:20]),
                    insertions=rng.normal([0, 0], 0.5, size=(40, 2)),
                    insertion_labels=tuple([0] * 40),
                )
            )
        snapshot = obs.metrics.snapshot()
        cache = maintainer.assigner_cache
        matrix = snapshot.value("repro_assignment_matrix_distances_total")
        # The kept matrix's distances are part of the computed total.
        assert matrix == cache.matrix_computed > 0
        assert matrix < snapshot.value("repro_distance_computed_total")
        assert snapshot.value("repro_distance_computed_total") == (
            counter.computed - before
        )
        assert snapshot.value("repro_assigner_cache_misses_total") == 1
        assert snapshot.value("repro_assigner_cache_hits_total") == 2

    def test_rebuild_emits_split_and_migration_events(self, rng):
        obs = Observability(tracer=EventTracer())
        store, counter, maintainer = make_world(rng, obs)
        for _ in range(4):
            maintainer.apply_batch(
                UpdateBatch(
                    insertions=rng.normal([60, -40], 0.5, size=(120, 2)),
                    insertion_labels=tuple([2] * 120),
                )
            )
        counts = obs.tracer.counts()
        assert counts.get("bubble_split", 0) > 0
        assert counts.get("donor_migration", 0) > 0
        assert counts.get("seed_redistribution", 0) > 0
        snapshot = obs.metrics.snapshot()
        splits = snapshot.value("repro_maintenance_bubble_splits_total")
        assert splits == counts["bubble_split"]
        split_event = obs.tracer.events("bubble_split")[0]
        assert {"over", "donor", "donor_size", "over_size"} <= set(
            split_event.fields
        )

    def test_uninstrumented_maintainer_has_no_obs(self, rng):
        store, counter, maintainer = make_world(rng, obs=None)
        maintainer.apply_batch(UpdateBatch.empty(dim=2))
        assert maintainer.obs is None


class TestStreamingInstrumentation:
    def test_registry_tracks_stream_counter_exactly(self, rng):
        obs = Observability()
        stream = SlidingWindowSummarizer(
            dim=2, window_size=500, points_per_bubble=25, seed=0, obs=obs
        )
        for _ in range(6):
            stream.append(rng.normal(size=(100, 2)))
        snapshot = obs.metrics.snapshot()
        # One source of truth: registry totals equal the DistanceCounter,
        # bootstrap construction included.
        assert snapshot.value(
            "repro_distance_computed_total"
        ) == stream.counter.computed
        assert snapshot.value(
            "repro_distance_pruned_total"
        ) == stream.counter.pruned
        assert snapshot.value("repro_stream_points_total") == 600
        assert snapshot.value("repro_stream_window_points") == 500
        assert obs.event_count("fifo_eviction") > 0

    def test_restored_stream_resumes_registry_totals(self, rng):
        stream = SlidingWindowSummarizer(
            dim=2, window_size=400, points_per_bubble=25, seed=0
        )
        for _ in range(4):
            stream.append(rng.normal(size=(100, 2)))
        state = stream.capture_state(batches_applied=4)
        obs = Observability()
        restored = SlidingWindowSummarizer.from_state(state, obs=obs)
        snapshot = obs.metrics.snapshot()
        assert snapshot.value(
            "repro_distance_computed_total"
        ) == restored.counter.computed
        assert (
            snapshot.value("repro_stream_window_points")
            == restored.size
        )


class TestDurableInstrumentation:
    def test_wal_snapshot_and_recovery_events(self, tmp_path, rng):
        obs = Observability(tracer=EventTracer())
        stream = DurableSummarizer(
            tmp_path / "state",
            dim=2,
            window_size=400,
            points_per_bubble=25,
            seed=0,
            checkpoint_every=2,
            fsync=False,
            obs=obs,
        )
        for _ in range(5):
            stream.append(rng.normal(size=(100, 2)))
        stream.close(checkpoint=False)
        counts = obs.tracer.counts()
        assert counts["wal_append"] == 5
        assert counts["snapshot_write"] >= 1
        assert counts["wal_compaction"] == counts["snapshot_write"]
        snapshot = obs.metrics.snapshot()
        assert snapshot.value("repro_wal_appends_total") == 5
        assert snapshot.value("repro_wal_bytes_total") > 0

        obs2 = Observability(tracer=EventTracer())
        recovered = DurableSummarizer.recover(
            tmp_path / "state", fsync=False, obs=obs2
        )
        recovered.close()
        (event,) = obs2.tracer.events("recovery_replay")
        assert event.fields["replayed_batches"] >= 1
        snapshot2 = obs2.metrics.snapshot()
        assert snapshot2.value("repro_recovery_replays_total") == 1
        # Restored totals continue the crashed process's accounting.
        assert snapshot2.value(
            "repro_distance_computed_total"
        ) == recovered.counter.computed
