"""Unit tests for the bubble container."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PointStore
from repro.core import BubbleSet, verify_consistency
from repro.exceptions import DimensionMismatchError


def make_set(num: int = 3, dim: int = 2) -> BubbleSet:
    bubbles = BubbleSet(PointStore(dim=dim))
    for i in range(num):
        bubbles.add_bubble(np.full(dim, float(i)))
    return bubbles


class TestContainer:
    def test_dense_ids(self):
        bubbles = make_set(4)
        assert [b.bubble_id for b in bubbles] == [0, 1, 2, 3]
        assert len(bubbles) == 4
        assert bubbles[2].bubble_id == 2
        assert bubbles.get(3).bubble_id == 3

    def test_seed_dimension_checked(self):
        bubbles = BubbleSet(PointStore(dim=2))
        with pytest.raises(DimensionMismatchError):
            bubbles.add_bubble(np.zeros(3))

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            BubbleSet(PointStore(dim=0))


class TestAggregates:
    def test_counts_and_total(self):
        bubbles = make_set(3)
        bubbles[0].absorb(np.zeros(2))
        bubbles[0].absorb(np.ones(2))
        bubbles[2].absorb(np.zeros(2))
        assert bubbles.counts().tolist() == [2, 0, 1]
        assert bubbles.total_points == 3

    def test_betas_sum_to_one_when_covering(self):
        bubbles = make_set(3)
        for i in range(9):
            bubbles[i % 3].absorb(np.zeros(2))
        betas = bubbles.betas()
        assert betas.sum() == pytest.approx(1.0)
        assert betas == pytest.approx([1 / 3] * 3)

    def test_betas_with_explicit_size(self):
        bubbles = make_set(2)
        bubbles[0].absorb(np.zeros(2))
        assert bubbles.betas(database_size=10).tolist() == [0.1, 0.0]

    def test_betas_of_empty_summary(self):
        assert make_set(2).betas().tolist() == [0.0, 0.0]

    def test_reps_fall_back_to_seed(self):
        bubbles = make_set(2)
        bubbles[0].absorb(np.array([4.0, 4.0]))
        reps = bubbles.reps()
        assert reps[0] == pytest.approx([4.0, 4.0])
        assert reps[1] == pytest.approx([1.0, 1.0])  # seed of bubble 1

    def test_seeds_matrix(self):
        bubbles = make_set(3)
        assert bubbles.seeds()[1] == pytest.approx([1.0, 1.0])

    def test_extents_vector(self):
        bubbles = make_set(2)
        bubbles[0].absorb(np.array([0.0, 0.0]))
        bubbles[0].absorb(np.array([3.0, 4.0]))
        extents = bubbles.extents()
        assert extents[0] == pytest.approx(5.0)
        assert extents[1] == 0.0

    def test_non_empty_ids(self):
        bubbles = make_set(3)
        bubbles[1].absorb(np.zeros(2))
        assert bubbles.non_empty_ids() == [1]


class TestInvariant:
    @staticmethod
    def owned_pair():
        """Two bubbles, each owning one of two points."""
        bubbles = make_set(2)
        store = bubbles.store
        ids = store.insert(np.array([[0.0, 0.0], [1.0, 1.0]]))
        for bubble_id, point_id in enumerate(ids):
            bubbles[bubble_id].absorb(store.point(point_id))
        store.set_owners(ids, [0, 1])
        return bubbles, store

    def test_partition_detected(self):
        bubbles, store = self.owned_pair()
        offsets, ids = bubbles.member_csr()
        assert offsets.tolist() == [0, 1, 2]
        assert ids.tolist() == [0, 1]
        assert verify_consistency(bubbles, store).ok

    def test_size_mismatch_detected(self):
        bubbles, store = self.owned_pair()
        store.insert(np.zeros((1, 2)))  # alive, owned by no bubble
        assert bubbles.member_csr()[0][-1] == 2 < store.size
        assert not verify_consistency(bubbles, store).ok
