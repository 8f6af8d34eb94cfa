"""Robustness tests: degenerate and adversarial inputs through the full
pipeline.

Production data is never as polite as Gaussian blobs: exact duplicates,
single clusters, databases barely larger than the summary, and columns of
identical values all occur. These tests push such inputs through
construction → maintenance → clustering → scoring and require graceful,
invariant-preserving behaviour (not necessarily good clusters).
"""

from __future__ import annotations

import numpy as np

from repro import (
    BubbleBuilder,
    BubbleConfig,
    IncrementalMaintainer,
    MaintenanceConfig,
    PointStore,
    UpdateBatch,
)
from repro.clustering import BubbleOptics, extract_candidates
from repro.core import verify_consistency
from repro.experiments import ExperimentConfig, score_summary


class TestDuplicatePoints:
    def test_all_identical_points(self):
        store = PointStore(dim=2)
        store.insert(np.full((200, 2), 7.0), np.zeros(200, dtype=np.int64))
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=5, seed=0)).build(
            store
        )
        assert bubbles.total_points == 200
        result = BubbleOptics(min_pts=10).fit(bubbles)
        expanded = result.expanded()
        assert len(expanded) == 200
        # One degenerate cluster; extraction must not crash.
        spans = extract_candidates(expanded.reachability, min_size=10)
        assert spans == [(0, 200)] or spans == []

    def test_duplicates_plus_structure(self, rng):
        points = np.vstack(
            [
                np.zeros((100, 2)),
                rng.normal([10, 10], 0.3, size=(100, 2)),
            ]
        )
        store = PointStore(dim=2)
        store.insert(points, np.repeat([0, 1], 100))
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=8, seed=1)).build(
            store
        )
        config = ExperimentConfig(min_pts=10, min_cluster_size=0.1)
        fscore, _ = score_summary(bubbles, store, config)
        assert fscore > 0.9

    def test_maintenance_with_duplicate_insertions(self, rng):
        store = PointStore(dim=2)
        store.insert(rng.normal(size=(150, 2)))
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=6, seed=2)).build(
            store
        )
        maintainer = IncrementalMaintainer(
            bubbles, store, MaintenanceConfig(seed=2)
        )
        for _ in range(3):
            maintainer.apply_batch(
                UpdateBatch(
                    insertions=np.full((50, 2), 3.0),
                    insertion_labels=tuple([1] * 50),
                )
            )
        verify_consistency(bubbles, store).raise_if_invalid()


class TestTinyDatabases:
    def test_database_equals_summary_size(self, rng):
        store = PointStore(dim=2)
        store.insert(rng.normal(size=(10, 2)))
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=10, seed=0)).build(
            store
        )
        assert bubbles.total_points == 10
        assert all(b.n >= 0 for b in bubbles)

    def test_singleton_bubbles_cluster(self, rng):
        store = PointStore(dim=2)
        store.insert(rng.normal(size=(12, 2)) * 10.0)
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=12, seed=0)).build(
            store
        )
        result = BubbleOptics(min_pts=3).fit(bubbles)
        assert len(result.plot) == len(bubbles.non_empty_ids())

    def test_two_point_database(self):
        store = PointStore(dim=2)
        store.insert(np.array([[0.0, 0.0], [1.0, 1.0]]))
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=2, seed=0)).build(
            store
        )
        maintainer = IncrementalMaintainer(
            bubbles, store, MaintenanceConfig(seed=0)
        )
        maintainer.apply_batch(UpdateBatch.empty(dim=2))
        verify_consistency(bubbles, store).raise_if_invalid()


class TestDegenerateGeometry:
    def test_points_on_a_line(self, rng):
        # Zero variance in one coordinate: extents/nnDist must stay finite.
        xs = rng.normal(size=(300, 1)) * 5.0
        points = np.hstack([xs, np.zeros((300, 1))])
        store = PointStore(dim=2)
        store.insert(points)
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=10, seed=3)).build(
            store
        )
        assert np.isfinite(bubbles.extents()).all()
        result = BubbleOptics(min_pts=15).fit(bubbles)
        assert np.isfinite(result.virtual_reachability).all()

    def test_extreme_coordinate_magnitudes(self, rng):
        points = rng.normal(size=(200, 2)) * 1e6 + 1e8
        store = PointStore(dim=2)
        store.insert(points)
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=8, seed=4)).build(
            store
        )
        assert verify_consistency(bubbles, store).ok
        assert (bubbles.extents() >= 0.0).all()
        verify_consistency(bubbles, store, rel_tol=1e-5).raise_if_invalid()

    def test_single_dimension(self, rng):
        store = PointStore(dim=1)
        store.insert(
            np.vstack(
                [
                    rng.normal(0.0, 0.5, size=(200, 1)),
                    rng.normal(50.0, 0.5, size=(200, 1)),
                ]
            ),
            np.repeat([0, 1], 200),
        )
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=8, seed=5)).build(
            store
        )
        config = ExperimentConfig(
            dim=1, min_pts=20, min_cluster_size=0.1
        )
        fscore, _ = score_summary(bubbles, store, config)
        assert fscore > 0.9


class TestHeavyChurn:
    def test_full_turnover(self, rng):
        """Delete and replace the entire database across batches."""
        store = PointStore(dim=2)
        store.insert(rng.normal([0, 0], 1.0, size=(400, 2)))
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=10, seed=6)).build(
            store
        )
        maintainer = IncrementalMaintainer(
            bubbles, store, MaintenanceConfig(seed=6)
        )
        for step in range(4):
            victims = tuple(int(i) for i in store.ids()[:100])
            maintainer.apply_batch(
                UpdateBatch(
                    deletions=victims,
                    insertions=rng.normal([50, 50], 1.0, size=(100, 2)),
                    insertion_labels=tuple([1] * 100),
                )
            )
        # The whole database now lives at (50, 50).
        reps = bubbles.reps()
        counts = bubbles.counts()
        weighted = (reps * counts[:, None]).sum(axis=0) / counts.sum()
        assert np.linalg.norm(weighted - np.array([50.0, 50.0])) < 2.0
        verify_consistency(bubbles, store).raise_if_invalid()
