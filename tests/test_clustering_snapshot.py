"""Unit tests for the high-level clustering snapshot façade."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import BubbleBuilder, BubbleConfig, PointStore
from repro.clustering import ClusteringSnapshot


@pytest.fixture
def world(rng):
    points = np.vstack(
        [
            rng.normal([0, 0], 0.4, size=(800, 2)),
            rng.normal([20, 0], 0.4, size=(800, 2)),
            rng.normal([10, 17], 0.4, size=(800, 2)),
        ]
    )
    truth = np.repeat([0, 1, 2], 800)
    store = PointStore(dim=2)
    store.insert(points, truth)
    bubbles = BubbleBuilder(BubbleConfig(num_bubbles=36, seed=0)).build(store)
    return store, bubbles, truth


class TestBuild:
    def test_finds_the_clusters(self, world):
        store, bubbles, _ = world
        snapshot = ClusteringSnapshot.build(bubbles, min_pts=40)
        assert snapshot.num_clusters == 3
        sizes = snapshot.cluster_sizes()
        assert sizes.sum() == store.size
        assert (sizes > 600).all()

    def test_bubble_labels_cover_non_empty_bubbles(self, world):
        _, bubbles, _ = world
        snapshot = ClusteringSnapshot.build(bubbles, min_pts=40)
        assert set(snapshot.bubble_labels) == set(bubbles.non_empty_ids())


class TestPointLabels:
    def test_agree_with_truth(self, world):
        store, bubbles, truth = world
        snapshot = ClusteringSnapshot.build(bubbles, min_pts=40)
        predicted = snapshot.point_labels(store)
        from repro.evaluation import adjusted_rand_index

        assert adjusted_rand_index(truth, predicted) > 0.95

    def test_unowned_points_are_noise(self, world):
        store, bubbles, _ = world
        snapshot = ClusteringSnapshot.build(bubbles, min_pts=40)
        store.insert(np.array([[50.0, 50.0]]))  # never summarized
        labels = snapshot.point_labels(store)
        assert labels[-1] == -1

    def test_matches_a_per_point_lookup(self, world):
        # Points owned by no bubble (owner -1) and points of bubbles
        # without a label both come out as noise.
        store, bubbles, _ = world
        snapshot = ClusteringSnapshot.build(bubbles, min_pts=40)
        ids = store.ids()
        store.set_owners(ids[:5], np.full(5, -1))
        unlabelled = int(store.owners_of(ids[5:6])[0])
        labels = dict(snapshot.bubble_labels)
        del labels[unlabelled]
        partial = dataclasses.replace(snapshot, bubble_labels=labels)
        got = partial.point_labels(store)
        want = [
            -1 if store.owner(int(p)) is None
            else labels.get(store.owner(int(p)), -1)
            for p in ids
        ]
        assert got.tolist() == want
        assert (got[:5] == -1).all()
        assert (got[store.owners_of(ids) == unlabelled] == -1).all()


class TestPredict:
    def test_new_points_classified_by_region(self, world):
        _, bubbles, _ = world
        snapshot = ClusteringSnapshot.build(bubbles, min_pts=40)
        probes = np.array([[0.0, 0.5], [20.0, -0.5], [10.0, 17.5]])
        labels = snapshot.predict(probes)
        assert len(set(labels.tolist())) == 3

    def test_prediction_matches_database_labelling(self, world):
        store, bubbles, _ = world
        snapshot = ClusteringSnapshot.build(bubbles, min_pts=40)
        ids, points, _ = store.snapshot()
        db_labels = snapshot.point_labels(store)
        predicted = snapshot.predict(points)
        agreement = (db_labels == predicted).mean()
        assert agreement > 0.97  # boundary points may flip

    def test_single_point_input(self, world):
        _, bubbles, _ = world
        snapshot = ClusteringSnapshot.build(bubbles, min_pts=40)
        labels = snapshot.predict(np.array([0.0, 0.0]))
        assert labels.shape == (1,)


class TestRender:
    def test_contains_plot_and_tree(self, world):
        _, bubbles, _ = world
        snapshot = ClusteringSnapshot.build(bubbles, min_pts=40)
        text = snapshot.render(width=60, height=6)
        assert "max finite reachability" in text
        assert "n=2400" in text
