"""Unit tests for a single data bubble: a handle onto one set row."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PointStore
from repro.core import BubbleSet, DataBubble
from repro.exceptions import DimensionMismatchError, EmptyBubbleError


def make_bubble(seed=(0.0, 0.0)) -> DataBubble:
    seed = np.asarray(seed, dtype=float)
    return BubbleSet(PointStore(dim=seed.shape[0])).add_bubble(seed)


class TestLifecycle:
    def test_starts_empty(self):
        bubble = make_bubble()
        assert bubble.is_empty()
        assert bubble.n == 0
        assert bubble.extent == 0.0
        assert bubble.nn_dist(5) == 0.0

    def test_empty_rep_is_seed(self):
        bubble = make_bubble((3.0, 4.0))
        assert bubble.rep == pytest.approx([3.0, 4.0])

    def test_absorb_updates_rep(self):
        bubble = make_bubble()
        bubble.absorb(np.array([2.0, 2.0]))
        bubble.absorb(np.array([4.0, 4.0]))
        assert bubble.n == 2
        assert bubble.rep == pytest.approx([3.0, 3.0])

    def test_release_restores_empty(self):
        bubble = make_bubble()
        point = np.array([1.0, 2.0])
        bubble.absorb(point)
        bubble.release(point)
        assert bubble.is_empty()
        assert bubble.stats.n == 0

    def test_release_nonmember_rejected(self):
        # A bubble that holds nothing has no point to release.
        bubble = make_bubble()
        with pytest.raises(EmptyBubbleError):
            bubble.release(np.array([0.0, 0.0]))

    def test_clear_empties_the_bubble(self):
        bubble = make_bubble()
        for i in range(3):
            bubble.absorb(np.array([float(i), 0.0]))
        assert bubble.clear() is None
        assert bubble.is_empty()
        assert bubble.rep == pytest.approx(bubble.seed)


class TestBulkOperations:
    def test_absorb_many_matches_loop(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(20, 2))
        bulk = make_bubble()
        bulk.absorb_many(points)
        loop = make_bubble()
        for p in points:
            loop.absorb(p)
        assert bulk.n == loop.n
        assert bulk.rep == pytest.approx(loop.rep)
        assert bulk.extent == pytest.approx(loop.extent)

    def test_release_many(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(10, 2))
        bubble = make_bubble()
        bubble.absorb_many(points)
        bubble.release_many(points[:5])
        assert bubble.n == 5
        assert bubble.rep == pytest.approx(points[5:].mean(axis=0))

    def test_release_many_nonmember_rejected(self):
        # Releasing more points than the bubble holds.
        bubble = make_bubble()
        bubble.absorb(np.zeros(2))
        with pytest.raises(EmptyBubbleError):
            bubble.release_many(np.zeros((2, 2)))

    def test_member_ids_sorted(self):
        # A bubble's member ids are the store's owner-column entries
        # naming it, in ascending id order whatever order they were set.
        store = PointStore(dim=2)
        store.insert(np.zeros((6, 2)))
        bubbles = BubbleSet(store)
        bubbles.add_bubble(np.zeros(2))
        bubbles.add_bubble(np.ones(2))
        store.set_owners([5, 1, 3, 4, 0, 2], [0, 0, 0, 1, 1, 1])
        assert store.owned_by(0).tolist() == [1, 3, 5]
        assert store.owned_by(1).tolist() == [0, 2, 4]


class TestReseed:
    def test_reseed_requires_empty(self):
        bubble = make_bubble()
        bubble.absorb(np.ones(2))
        with pytest.raises(EmptyBubbleError):
            bubble.reseed(np.zeros(2))

    def test_reseed_moves_seed_and_rep(self):
        bubble = make_bubble((0.0, 0.0))
        bubble.reseed(np.array([7.0, 8.0]))
        assert bubble.seed == pytest.approx([7.0, 8.0])
        assert bubble.rep == pytest.approx([7.0, 8.0])

    def test_reseed_shape_checked(self):
        bubble = make_bubble()
        with pytest.raises(ValueError):
            bubble.reseed(np.zeros(3))

    def test_seed_defensively_copied(self):
        seed = np.array([1.0, 2.0])
        bubble = make_bubble(seed)
        seed[0] = 99.0
        assert bubble.seed == pytest.approx([1.0, 2.0])
        # The handle hands out a copy, not a view of the set's row.
        held = bubble.seed
        bubble.reseed(np.array([5.0, 6.0]))
        assert held == pytest.approx([1.0, 2.0])

    def test_seed_view_is_readonly(self):
        bubble = make_bubble()
        with pytest.raises(ValueError):
            bubble.seed[0] = 5.0


class TestDerivedQuantities:
    def test_extent_matches_sufficient_stats(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(30, 3))
        bubble = make_bubble(np.zeros(3))
        bubble.absorb_many(points)
        from repro.sufficient import SufficientStatistics, extent

        expected = extent(SufficientStatistics.from_points(points))
        assert bubble.extent == pytest.approx(expected)

    def test_nn_dist_zero_when_empty(self):
        assert make_bubble().nn_dist(1) == 0.0

    def test_invalid_seed_shape(self):
        with pytest.raises(DimensionMismatchError):
            make_bubble(np.zeros((2, 2)))
