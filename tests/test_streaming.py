"""Unit tests for the sliding-window stream summarizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SlidingWindowSummarizer
from repro.core import verify_consistency
from repro.exceptions import InvalidConfigError, NotFittedError


class TestBootstrap:
    def test_not_ready_before_enough_points(self, rng):
        stream = SlidingWindowSummarizer(
            dim=2, window_size=500, points_per_bubble=50, seed=0
        )
        report = stream.append(rng.normal(size=(60, 2)))
        assert report is None
        assert not stream.is_ready()
        with pytest.raises(NotFittedError):
            _ = stream.summary

    def test_bootstraps_at_threshold(self, rng):
        stream = SlidingWindowSummarizer(
            dim=2, window_size=500, points_per_bubble=50, seed=0
        )
        stream.append(rng.normal(size=(60, 2)))
        stream.append(rng.normal(size=(60, 2)))
        assert stream.is_ready()
        assert verify_consistency(stream.summary, stream.store).ok

    def test_reports_after_bootstrap(self, rng):
        stream = SlidingWindowSummarizer(
            dim=2, window_size=500, points_per_bubble=40, seed=0
        )
        stream.append(rng.normal(size=(100, 2)))
        report = stream.append(rng.normal(size=(100, 2)))
        assert report is not None
        assert report.num_insertions == 100


class TestWindowSemantics:
    def test_size_capped_at_window(self, rng):
        stream = SlidingWindowSummarizer(
            dim=2, window_size=300, points_per_bubble=30, seed=0
        )
        for _ in range(10):
            stream.append(rng.normal(size=(80, 2)))
        assert stream.size == 300

    def test_fifo_eviction(self, rng):
        stream = SlidingWindowSummarizer(
            dim=2, window_size=200, points_per_bubble=20, seed=0
        )
        stream.append(np.zeros((150, 2)))
        stream.append(np.ones((150, 2)))
        # The first 100 zeros fell out; 50 zeros + 150 ones remain.
        _, points, _ = stream.store.snapshot()
        assert stream.size == 200
        assert int((points == 0.0).all(axis=1).sum()) == 50

    def test_window_replacement_tracks_drift(self, rng):
        """The degenerate-database claim: a full window replacement moves
        the summary to the new distribution."""
        stream = SlidingWindowSummarizer(
            dim=2, window_size=400, points_per_bubble=40, seed=0
        )
        for _ in range(5):
            stream.append(rng.normal([0, 0], 1.0, size=(100, 2)))
        for _ in range(8):
            stream.append(rng.normal([50, 50], 1.0, size=(100, 2)))
        reps = stream.summary.reps()
        counts = stream.summary.counts()
        weighted = (reps * counts[:, None]).sum(axis=0) / counts.sum()
        assert np.linalg.norm(weighted - np.array([50.0, 50.0])) < 3.0
        assert verify_consistency(stream.summary, stream.store).ok

    def test_invariant_maintained_throughout(self, rng):
        stream = SlidingWindowSummarizer(
            dim=3, window_size=250, points_per_bubble=25, seed=1
        )
        for i in range(12):
            stream.append(rng.normal(size=(60, 3)) * (1 + i))
            if stream.is_ready():
                assert verify_consistency(stream.summary, stream.store).ok

    def test_eviction_is_strictly_fifo(self, rng):
        """Eviction removes the oldest ids first — exactly the ids below
        the cutoff — and the size never exceeds the window, across ragged
        chunk sizes (regression for the windowing arithmetic)."""
        window = 250
        stream = SlidingWindowSummarizer(
            dim=2, window_size=window, points_per_bubble=25, seed=2
        )
        appended = 0
        for size in (30, 110, 7, 95, 64, 1, 120, 33, 250, 18, 77):
            stream.append(rng.normal(size=(size, 2)))
            appended += size
            assert stream.size == min(appended, window)
            surviving = np.sort(stream.store.ids())
            # Ids are allocated sequentially, so a strictly-FIFO window
            # holds exactly the most recent ``size`` ids — contiguous and
            # ending at the newest allocation.
            expected = np.arange(appended - stream.size, appended)
            assert np.array_equal(surviving, expected)

    def test_labels_flow_through(self, rng):
        stream = SlidingWindowSummarizer(
            dim=2, window_size=300, points_per_bubble=30, seed=0
        )
        stream.append(rng.normal(size=(100, 2)), labels=[3] * 100)
        assert stream.store.ids_with_label(3).size == 100


class TestValidation:
    def test_config_validated(self):
        with pytest.raises(InvalidConfigError):
            SlidingWindowSummarizer(dim=2, window_size=1, points_per_bubble=1)
        with pytest.raises(InvalidConfigError):
            SlidingWindowSummarizer(
                dim=2, window_size=100, points_per_bubble=0
            )
        with pytest.raises(InvalidConfigError):
            SlidingWindowSummarizer(
                dim=2, window_size=100, points_per_bubble=80
            )

    def test_oversized_chunk_rejected(self, rng):
        stream = SlidingWindowSummarizer(
            dim=2, window_size=100, points_per_bubble=10
        )
        with pytest.raises(ValueError):
            stream.append(rng.normal(size=(101, 2)))

    def test_single_point_chunk(self, rng):
        stream = SlidingWindowSummarizer(
            dim=2, window_size=100, points_per_bubble=10
        )
        stream.append(np.array([1.0, 2.0]))
        assert stream.size == 1
