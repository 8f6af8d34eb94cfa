"""Shard queueing, backpressure policies, micro-batching, failure."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.exceptions import InvalidConfigError, ServiceError
from repro.observability import bucket_quantile, render_text
from repro.service import FleetConfig, FleetManager, PointEvent, Shard
from repro.streaming import DurableSummarizer


def make_shard(tmp_path, **kwargs):
    summarizer = DurableSummarizer(
        tmp_path / "shard", dim=2, window_size=500,
        points_per_bubble=20, seed=0, fsync=False,
    )
    return Shard("t0", summarizer, **kwargs)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queue_points": 0},
            {"batch_points": 0},
            {"queue_points": 8, "batch_points": 9},
            {"backpressure": "drop"},
        ],
    )
    def test_bad_config_rejected(self, tmp_path, kwargs):
        with pytest.raises(InvalidConfigError):
            make_shard(tmp_path, **kwargs)


class TestFlush:
    def test_micro_batching(self, tmp_path):
        shard = make_shard(tmp_path, queue_points=64, batch_points=16)
        for i in range(40):
            assert shard.submit((float(i), 0.0), label=i)
        assert shard.pending == 40
        assert shard.flush_once() == 16
        assert shard.flush_once() == 16
        assert shard.flush_once() == 8
        assert shard.flush_once() == 0
        assert shard.applied_points == 40
        assert shard.applied_batches == 3
        assert shard.summarizer.size == 40
        shard.close()

    def test_flush_preserves_order_and_labels(self, tmp_path):
        shard = make_shard(tmp_path, queue_points=64, batch_points=64)
        for i in range(10):
            shard.submit((float(i), float(-i)), label=i)
        shard.drain_flush()
        _, _, labels = shard.summarizer.store.snapshot()
        assert sorted(labels.tolist()) == list(range(10))
        shard.close()

    def test_stats_row(self, tmp_path):
        shard = make_shard(tmp_path)
        shard.submit((1.0, 2.0))
        shard.flush_once()
        row = shard.stats()
        assert row["state"] == "running"
        assert row["applied_points"] == 1
        assert row["pending_points"] == 0
        assert row["batches_durable"] == 1
        assert row["error"] is None
        assert row["ingest_p95_seconds"] is not None
        shard.close()
        assert shard.stats()["state"] == "stopped"


class TestBackpressure:
    def test_shed_drops_and_counts(self, tmp_path):
        shard = make_shard(
            tmp_path, queue_points=4, batch_points=4, backpressure="shed"
        )
        accepted = sum(shard.submit((float(i), 0.0)) for i in range(10))
        assert accepted == 4
        assert shard.shed_points == 6
        assert shard.pending == 4
        shard.drain_flush()
        assert shard.summarizer.size == 4  # shed points never durable
        shard.close()

    def test_block_waits_for_flusher(self, tmp_path):
        shard = make_shard(tmp_path, queue_points=4, batch_points=4)
        for i in range(4):
            shard.submit((float(i), 0.0))

        def flusher():
            time.sleep(0.05)
            while shard.pending:
                shard.flush_once()

        thread = threading.Thread(target=flusher)
        thread.start()
        assert shard.submit((9.0, 9.0))  # must wait for the flusher
        thread.join()
        assert shard.blocked_submissions == 1
        assert shard.blocked_seconds > 0
        shard.drain_flush()
        assert shard.summarizer.size == 5
        shard.close()

    def test_blocked_submitter_released_by_drain(self, tmp_path):
        shard = make_shard(tmp_path, queue_points=2, batch_points=2)
        shard.submit((0.0, 0.0))
        shard.submit((1.0, 1.0))
        errors = []

        def submitter():
            try:
                shard.submit((2.0, 2.0))
            except ServiceError as exc:
                errors.append(exc)

        thread = threading.Thread(target=submitter)
        thread.start()
        time.sleep(0.05)
        shard.begin_drain()
        thread.join(timeout=2.0)
        assert not thread.is_alive(), "drain left a submitter blocked"
        assert len(errors) == 1
        shard.drain_flush()
        shard.close()


class TestFailure:
    def test_append_failure_poisons_shard(self, tmp_path, monkeypatch):
        shard = make_shard(tmp_path)
        shard.submit((1.0, 1.0))

        def boom(points, labels=None):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(shard.summarizer, "append", boom)
        with pytest.raises(ServiceError, match="disk on fire"):
            shard.flush_once()
        assert shard.state == "failed"
        assert shard.error is not None
        assert shard.pending == 0
        with pytest.raises(ServiceError, match="failed"):
            shard.submit((2.0, 2.0))
        # close() after failure is a no-op (already released handles)
        shard.close()
        assert shard.state == "failed"


class TestDrainClose:
    def test_drain_then_close_is_idempotent(self, tmp_path):
        shard = make_shard(tmp_path)
        shard.submit((1.0, 2.0))
        shard.begin_drain()
        with pytest.raises(ServiceError, match="draining"):
            shard.submit((3.0, 4.0))
        assert shard.drain_flush() == 1
        shard.close()
        shard.close()
        assert shard.state == "stopped"
        assert shard.flush_once() == 0

    def test_close_flushes_partial_timeseries_window(self, tmp_path):
        """A window mid-fill at close must be flushed, not dropped:
        every applied batch shows up in exactly one retained window."""
        from repro.observability import Observability, TimeseriesRecorder

        obs = Observability(timeseries=TimeseriesRecorder(interval=4))
        summarizer = DurableSummarizer(
            tmp_path / "shard", dim=2, window_size=500,
            points_per_bubble=20, seed=0, fsync=False, obs=obs,
        )
        shard = Shard("t0", summarizer, queue_points=64, batch_points=8)
        for i in range(48):  # 6 batches: one full window + 2 leftover
            shard.submit((float(i % 5), 0.5), label=i)
        shard.drain_flush()
        shard.close()
        recorder = obs.timeseries
        assert len(recorder) == 2
        assert recorder.samples[-1].end_batch == 6

    def test_close_closes_trace_sink(self, tmp_path):
        from repro.observability import (
            EventTracer,
            Observability,
            SpanTracer,
        )

        sink = tmp_path / "trace.jsonl"
        obs = Observability(tracer=EventTracer(sink=sink), spans=SpanTracer())
        summarizer = DurableSummarizer(
            tmp_path / "shard", dim=2, window_size=500,
            points_per_bubble=20, seed=0, fsync=False, obs=obs,
        )
        shard = Shard(
            "t0", summarizer, queue_points=64, batch_points=8, obs=obs
        )
        for i in range(16):
            shard.submit((float(i % 5), 0.5), label=i)
        shard.drain_flush()
        shard.close()
        assert obs.tracer._sink is None  # sink closed and released
        assert sink.exists() and sink.stat().st_size > 0


class TestHistogramQuantile:
    """:func:`bucket_quantile` over a shard's live histograms."""

    def test_bound_granular(self, tmp_path):
        shard = make_shard(tmp_path)
        histogram = shard._h_batch  # buckets 1, 2, 4, ...
        for _ in range(95):
            histogram.observe(1)
        for _ in range(5):
            histogram.observe(3)
        counts = histogram.bucket_counts()
        assert bucket_quantile(histogram.bounds, counts, 0.95) == 1.0
        assert bucket_quantile(histogram.bounds, counts, 0.99) == 4.0
        shard.close(checkpoint=False)

    def test_empty_histogram(self, tmp_path):
        shard = make_shard(tmp_path)
        histogram = shard._h_ingest
        assert (
            bucket_quantile(
                histogram.bounds, histogram.bucket_counts(), 0.95
            )
            is None
        )
        assert shard.ingest_p95_seconds() is None
        shard.close(checkpoint=False)

    def test_overflow_bucket(self, tmp_path):
        shard = make_shard(tmp_path)
        histogram = shard._h_batch
        histogram.observe(10_000)  # beyond the top bound
        assert (
            bucket_quantile(
                histogram.bounds, histogram.bucket_counts(), 0.95
            )
            is None
        )
        shard.close(checkpoint=False)


def test_metrics_registered_per_shard(tmp_path):
    shard = make_shard(tmp_path)
    shard.submit((1.0, 1.0))
    shard.flush_once()
    rendered = render_text(shard.obs.metrics.snapshot())
    assert "repro_service_enqueued_points_total" in rendered
    assert "repro_service_applied_points_total" in rendered
    assert "repro_service_ingest_seconds" in rendered
    assert shard._m_enqueued.value == 1
    assert shard._m_applied.value == 1
    shard.close()


def test_isolated_observability(tmp_path):
    a = make_shard(tmp_path / "a")
    b = make_shard(tmp_path / "b")
    a.submit((1.0, 1.0))
    a.flush_once()
    assert b.obs.metrics is not a.obs.metrics
    assert b._m_applied.value == 0
    assert a._m_applied.value == 1
    a.close()
    b.close(checkpoint=False)


def test_batch_matrix_dtype(tmp_path):
    # integers submitted as labels/coords still form a float64 batch
    shard = make_shard(tmp_path, batch_points=4)
    shard.submit((1, 2), label=np.int64(3))
    shard.flush_once()
    assert shard.summarizer.size == 1
    shard.close()


class TestClusterNow:
    def fill(self, shard, points=900, seed=0):
        rng = np.random.default_rng(seed)
        pts = np.concatenate(
            [
                rng.normal((0.0, 0.0), 0.7, size=(points // 2, 2)),
                rng.normal((6.0, 6.0), 0.7, size=(points - points // 2, 2)),
            ]
        )
        for p in pts:
            shard.submit((float(p[0]), float(p[1])))
            if shard.pending >= 200:
                shard.drain_flush()
        shard.drain_flush()

    def test_requires_bootstrap(self, tmp_path):
        from repro.exceptions import NotFittedError

        shard = make_shard(tmp_path)
        with pytest.raises(NotFittedError):
            shard.cluster_now()
        shard.close(checkpoint=False)

    def test_cold_hit_repair_progression(self, tmp_path):
        shard = make_shard(tmp_path)
        self.fill(shard)
        fit = shard.cluster_now(min_pts=10)
        assert fit.source == "cold"
        assert fit.quality == 1.0
        assert fit.num_bubbles > 0
        assert shard.cluster_now().source == "hit"
        for i in range(30):
            shard.submit((float(i % 3) * 0.1, 0.0))
        shard.drain_flush()
        fit3 = shard.cluster_now(deadline_seconds=5.0)
        assert fit3.source in ("repair", "rebuild", "anytime")
        assert fit3.quality == 1.0
        shard.close()

    def test_stats_include_clustering_rollup(self, tmp_path):
        shard = make_shard(tmp_path)
        assert shard.stats()["clustering"] is None
        self.fill(shard)
        shard.cluster_now(min_pts=10)
        row = shard.stats()["clustering"]
        assert row["fits"] == 1
        assert row["last_source"] == "cold"
        assert row["last_leaves"] >= 1
        shard.close()

    def test_fit_distances_reach_the_registry(self, tmp_path):
        """Every fit adds its distances to the shard registry, which
        then equals the DistanceCounter the summarizer shares."""
        config = FleetConfig(
            window_size=1600, points_per_bubble=20, fsync=False,
            workers=0, batch_points=16,
        )
        rng = np.random.default_rng(0)
        with FleetManager(tmp_path / "fleet", config) as fleet:

            def feed(points):
                for x, y in points:
                    fleet.submit(PointEvent("t0", (float(x), float(y))))

            feed(rng.normal((0.0, 0.0), 0.7, size=(900, 2)))
            feed(rng.normal((6.0, 6.0), 0.7, size=(900, 2)))
            shard = fleet.shard("t0")
            counter = shard.summarizer.counter

            def fit_source(**kwargs):
                source = shard.cluster_now(min_pts=10, **kwargs).source
                snap = shard.obs.metrics.snapshot()
                assert snap.value("repro_distance_computed_total") == (
                    counter.computed
                )
                assert snap.value("repro_distance_pruned_total") == (
                    counter.pruned
                )
                return source

            sources = [fit_source(), fit_source()]
            feed(rng.normal((6.0, 6.0), 0.7, size=(16, 2)))
            sources.append(fit_source())
            shard.clusterer().cache.invalidate()
            sources.append(fit_source(deadline_seconds=60.0))
            assert sources == ["cold", "hit", "repair", "anytime"]

    def test_cluster_metrics_land_in_shard_registry(self, tmp_path):
        shard = make_shard(tmp_path)
        self.fill(shard)
        shard.cluster_now(min_pts=10)
        shard.cluster_now(min_pts=10)
        snap = shard.obs.metrics.snapshot()
        assert snap.value("repro_cluster_fits_total") == 2
        assert snap.value("repro_cluster_cache_hits_total") == 1
        shard.close()
