"""Unit tests for OPTICS over data bubbles."""

from __future__ import annotations

import numpy as np
import pytest

from repro import BubbleBuilder, BubbleConfig, PointStore
from repro.clustering import (
    BubbleOptics,
    bubble_distance_matrix,
    clusters_at_threshold,
)
from repro.sufficient import SufficientStatistics


@pytest.fixture
def summarized_blobs(rng):
    points = np.vstack(
        [
            rng.normal([0, 0], 0.3, size=(500, 2)),
            rng.normal([15, 0], 0.3, size=(500, 2)),
        ]
    )
    labels = np.repeat([0, 1], 500)
    store = PointStore(dim=2)
    store.insert(points, labels)
    bubbles = BubbleBuilder(BubbleConfig(num_bubbles=16, seed=0)).build(store)
    return store, bubbles, labels


class TestBubbleDistance:
    def test_separated_bubbles(self):
        a = SufficientStatistics.from_points(
            np.array([[0.0, 0.0], [1.0, 0.0]])
        )
        b = SufficientStatistics.from_points(
            np.array([[10.0, 0.0], [11.0, 0.0]])
        )
        # rep distance 10, extents 1 each, nnDist(1) = extent for n<=1?
        # n=2, k=1: (1/2)^(1/2) * 1
        dist = BubbleOptics.distance(a, b)
        nn = (0.5) ** 0.5
        assert dist == pytest.approx(10.0 - 2.0 + 2 * nn)

    def test_overlapping_bubbles(self):
        a = SufficientStatistics.from_points(
            np.array([[0.0, 0.0], [4.0, 0.0]])
        )
        b = SufficientStatistics.from_points(
            np.array([[1.0, 0.0], [5.0, 0.0]])
        )
        # rep distance 1 < extent sum 8 -> overlap branch.
        nn = (0.5) ** 0.5 * 4.0
        assert BubbleOptics.distance(a, b) == pytest.approx(nn)

    def test_symmetry(self, rng):
        a = SufficientStatistics.from_points(rng.normal(size=(20, 3)))
        b = SufficientStatistics.from_points(rng.normal(3.0, 1.0, size=(30, 3)))
        assert BubbleOptics.distance(a, b) == pytest.approx(
            BubbleOptics.distance(b, a)
        )

    def test_matrix_matches_pairwise_definition(self, summarized_blobs):
        _, bubbles, _ = summarized_blobs
        non_empty = bubbles.non_empty_ids()
        reps = np.stack([bubbles[i].rep for i in non_empty])
        extents = np.array([bubbles[i].extent for i in non_empty])
        nn1 = np.array([bubbles[i].nn_dist(1) for i in non_empty])
        matrix = bubble_distance_matrix(reps, extents, nn1)
        assert matrix == pytest.approx(matrix.T)
        assert (np.diag(matrix) == 0.0).all()
        for i, bi in enumerate(non_empty[:5]):
            for j, bj in enumerate(non_empty[:5]):
                if i == j:
                    continue
                expected = BubbleOptics.distance(
                    bubbles[bi].stats, bubbles[bj].stats
                )
                assert matrix[i, j] == pytest.approx(expected, rel=1e-9)


class TestBubbleOrdering:
    def test_blobs_separate_in_bubble_plot(self, summarized_blobs):
        store, bubbles, labels = summarized_blobs
        result = BubbleOptics(min_pts=30).fit(bubbles)
        # Cut the bubble-level plot: two clusters of bubbles.
        finite = result.plot.finite_reachability()
        threshold = (finite.min() + finite.max()) / 2.0
        spans = clusters_at_threshold(
            result.plot.reachability, threshold, min_size=2
        )
        assert len(spans) == 2

    def test_expansion_length_equals_database(self, summarized_blobs):
        store, bubbles, _ = summarized_blobs
        result = BubbleOptics(min_pts=30).fit(bubbles)
        expanded = result.expanded()
        assert len(expanded) == store.size

    def test_expanded_entries_attributed_to_real_bubbles(
        self, summarized_blobs
    ):
        store, bubbles, _ = summarized_blobs
        result = BubbleOptics(min_pts=30).fit(bubbles)
        expanded = result.expanded()
        for bubble_id, count in zip(
            *np.unique(expanded.source, return_counts=True)
        ):
            assert bubbles[int(bubble_id)].n == int(count)

    def test_empty_bubbles_excluded(self, rng):
        store = PointStore(dim=2)
        store.insert(rng.normal(size=(100, 2)))
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=5, seed=0)).build(
            store
        )
        # Manually drain one bubble.
        donor = bubbles.non_empty_ids()[0]
        from repro.core import merge_bubble
        from repro.geometry import DistanceCounter

        merge_bubble(bubbles, store, donor, DistanceCounter())
        result = BubbleOptics(min_pts=10).fit(bubbles)
        assert donor not in result.bubble_ids.tolist()

    def test_all_empty_raises(self):
        from repro.core import BubbleSet

        bubbles = BubbleSet(PointStore(dim=2))
        bubbles.add_bubble(np.zeros(2))
        with pytest.raises(ValueError):
            BubbleOptics().fit(bubbles)

    def test_virtual_reachability_positive(self, summarized_blobs):
        _, bubbles, _ = summarized_blobs
        result = BubbleOptics(min_pts=30).fit(bubbles)
        assert (result.virtual_reachability > 0).all()
        assert np.isfinite(result.virtual_reachability).all()


class TestCoreDistanceSemantics:
    def test_large_bubble_uses_internal_estimate(self, summarized_blobs):
        _, bubbles, _ = summarized_blobs
        min_pts = 30
        result = BubbleOptics(min_pts=min_pts).fit(bubbles)
        for pos, compact in enumerate(result.bubble_ids):
            bubble = bubbles[int(compact)]
            if bubble.n >= min_pts:
                assert result.plot.core_distances[pos] == pytest.approx(
                    bubble.nn_dist(min_pts)
                )

    def test_min_pts_counts_points_not_bubbles(self, rng):
        # Bubbles of 5 points each; min_pts = 12 forces accumulation over
        # three bubbles.
        store = PointStore(dim=2)
        points = np.vstack(
            [rng.normal([i * 2.0, 0.0], 0.05, size=(5, 2)) for i in range(4)]
        )
        store.insert(points)
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=4, seed=2)).build(
            store
        )
        result = BubbleOptics(min_pts=12).fit(bubbles)
        assert np.isfinite(result.plot.core_distances).all()
        assert (result.plot.core_distances > 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            BubbleOptics(min_pts=0)
