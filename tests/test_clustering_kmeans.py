"""Unit tests for weighted k-means over points and bubble summaries."""

from __future__ import annotations

import numpy as np
import pytest

from repro import BubbleBuilder, BubbleConfig, PointStore
from repro.clustering.kmeans import WeightedKMeans


class TestFit:
    def test_two_well_separated_blobs(self, rng):
        points = np.vstack(
            [
                rng.normal([0, 0], 0.2, size=(100, 2)),
                rng.normal([20, 0], 0.2, size=(100, 2)),
            ]
        )
        result = WeightedKMeans(k=2, seed=0).fit(points)
        centers = sorted(result.centroids[:, 0].tolist())
        assert centers[0] == pytest.approx(0.0, abs=0.3)
        assert centers[1] == pytest.approx(20.0, abs=0.3)
        assert len(set(result.labels[:100].tolist())) == 1
        assert result.labels[0] != result.labels[100]

    def test_inertia_decreases_with_more_clusters(self, rng):
        points = rng.normal(size=(200, 3))
        inertia_2 = WeightedKMeans(k=2, seed=0).fit(points).inertia
        inertia_8 = WeightedKMeans(k=8, seed=0).fit(points).inertia
        assert inertia_8 < inertia_2

    def test_weights_pull_centroids(self):
        points = np.array([[0.0, 0.0], [10.0, 0.0]])
        result = WeightedKMeans(k=1, seed=0).fit(
            points, weights=np.array([9.0, 1.0])
        )
        assert result.centroids[0, 0] == pytest.approx(1.0)

    def test_k_equals_n(self, rng):
        points = rng.normal(size=(5, 2)) * 100.0
        result = WeightedKMeans(k=5, seed=0).fit(points)
        assert result.inertia == pytest.approx(0.0, abs=1e-9)
        assert sorted(set(result.labels.tolist())) == [0, 1, 2, 3, 4]

    def test_deterministic_given_seed(self, rng):
        points = rng.normal(size=(100, 2))
        a = WeightedKMeans(k=3, seed=7).fit(points)
        b = WeightedKMeans(k=3, seed=7).fit(points)
        assert a.labels.tolist() == b.labels.tolist()
        assert a.centroids == pytest.approx(b.centroids)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            WeightedKMeans(k=0)
        with pytest.raises(ValueError):
            WeightedKMeans(k=2, max_iter=0)
        kmeans = WeightedKMeans(k=3)
        with pytest.raises(ValueError):
            kmeans.fit(np.zeros((2, 2)))  # fewer points than clusters
        with pytest.raises(ValueError):
            kmeans.fit(np.zeros((5, 2)), weights=np.full(5, -1.0))
        with pytest.raises(ValueError):
            kmeans.fit(np.zeros((5, 2)), weights=np.zeros(5))

    def test_duplicate_points(self):
        points = np.zeros((10, 2))
        result = WeightedKMeans(k=2, seed=0).fit(points)
        assert result.inertia == pytest.approx(0.0)


class TestFitBubbles:
    def test_summary_clustering_matches_truth(self, rng):
        points = np.vstack(
            [
                rng.normal([0, 0], 0.4, size=(500, 2)),
                rng.normal([25, 0], 0.4, size=(500, 2)),
            ]
        )
        truth = np.repeat([0, 1], 500)
        store = PointStore(dim=2)
        store.insert(points, truth)
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=16, seed=0)).build(
            store
        )
        mapping = WeightedKMeans(k=2, seed=0).bubble_labels(bubbles)
        # Every point inherits its bubble's k-means label.
        owners = store.owners_of(store.ids())
        predicted = np.array([mapping[int(b)] for b in owners])
        from repro.evaluation import adjusted_rand_index

        assert adjusted_rand_index(truth, predicted) > 0.95

    def test_weighting_uses_counts(self, rng):
        # A huge bubble and two tiny far ones, constructed explicitly:
        # k=2 dedicates one centroid to the far pair (they are far), and
        # the merged-centre maths must weight by n, not by bubble count.
        from repro.core import BubbleSet

        bubbles = BubbleSet(PointStore(dim=2))
        big = bubbles.add_bubble(np.zeros(2))
        big.absorb_many(rng.normal([0, 0], 0.1, size=(980, 2)))
        small_a = bubbles.add_bubble(np.array([30.0, 0.0]))
        small_a.absorb_many(rng.normal([30, 0], 0.1, size=(10, 2)))
        small_b = bubbles.add_bubble(np.array([32.0, 0.0]))
        small_b.absorb_many(rng.normal([32, 0], 0.1, size=(10, 2)))
        result = WeightedKMeans(k=2, seed=0).fit_bubbles(bubbles)
        xs = sorted(result.centroids[:, 0].tolist())
        assert xs[0] == pytest.approx(0.0, abs=1.0)
        # The far centroid is the n-weighted mean of the two small
        # bubbles: (10·30 + 10·32) / 20 = 31.
        assert xs[1] == pytest.approx(31.0, abs=1.0)

    def test_empty_summary_rejected(self):
        from repro.core import BubbleSet

        bubbles = BubbleSet(PointStore(dim=2))
        bubbles.add_bubble(np.zeros(2))
        with pytest.raises(ValueError):
            WeightedKMeans(k=1).fit_bubbles(bubbles)
