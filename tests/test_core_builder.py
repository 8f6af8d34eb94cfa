"""Unit tests for static bubble construction."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BubbleBuilder,
    BubbleConfig,
    PointStore,
)
from repro.core import verify_consistency
from repro.exceptions import InvalidConfigError
from repro.geometry import DistanceCounter


class TestBuild:
    def test_partition_invariant(self, populated_store, built_bubbles):
        assert verify_consistency(built_bubbles, populated_store).ok
        assert built_bubbles.total_points == populated_store.size

    def test_owners_recorded(self, populated_store, built_bubbles):
        for bubble in built_bubbles:
            owned = populated_store.owned_by(bubble.bubble_id)
            assert owned.size == bubble.n

    def test_assignment_is_nearest_seed(self, populated_store, built_bubbles):
        seeds = built_bubbles.seeds()
        ids, points, _ = populated_store.snapshot()
        expected = np.argmin(
            ((points[:, None, :] - seeds[None, :, :]) ** 2).sum(axis=2),
            axis=1,
        )
        for pid, owner in zip(ids, expected):
            assert populated_store.owner(int(pid)) == int(owner)

    def test_requested_number_of_bubbles(self, built_bubbles):
        assert len(built_bubbles) == 12

    def test_too_few_points(self):
        store = PointStore(dim=2)
        store.insert(np.zeros((3, 2)))
        builder = BubbleBuilder(BubbleConfig(num_bubbles=5))
        with pytest.raises(InvalidConfigError):
            builder.build(store)

    def test_deterministic_given_seed(self, populated_store):
        a = BubbleBuilder(BubbleConfig(num_bubbles=10, seed=3)).build(
            populated_store
        )
        b = BubbleBuilder(BubbleConfig(num_bubbles=10, seed=3)).build(
            populated_store
        )
        assert a.counts().tolist() == b.counts().tolist()
        assert a.reps() == pytest.approx(b.reps())

    def test_naive_and_pruned_builds_agree(self, populated_store):
        pruned = BubbleBuilder(
            BubbleConfig(num_bubbles=10, seed=5)
        ).build(populated_store)
        naive = BubbleBuilder(
            BubbleConfig(num_bubbles=10, seed=5, use_triangle_inequality=False)
        ).build(populated_store)
        assert pruned.counts().tolist() == naive.counts().tolist()
        assert pruned.reps() == pytest.approx(naive.reps())

    def test_counter_receives_costs(self, populated_store):
        counter = DistanceCounter()
        BubbleBuilder(
            BubbleConfig(num_bubbles=10, seed=1), counter=counter
        ).build(populated_store)
        # At minimum, every point required one computed distance.
        assert counter.computed >= populated_store.size

    def test_pruning_fraction_positive_on_clustered_data(
        self, populated_store
    ):
        builder = BubbleBuilder(BubbleConfig(num_bubbles=10, seed=1))
        builder.build(populated_store)
        assert builder.last_pruned_fraction > 0.2

    def test_rebuild_overwrites_ownership(self, populated_store):
        builder = BubbleBuilder(BubbleConfig(num_bubbles=10, seed=1))
        builder.build(populated_store)
        second = builder.build(populated_store)
        assert verify_consistency(second, populated_store).ok

    def test_single_bubble(self, populated_store):
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=1, seed=0)).build(
            populated_store
        )
        assert bubbles[0].n == populated_store.size


class TestConfigValidation:
    def test_num_bubbles_must_be_positive(self):
        with pytest.raises(InvalidConfigError):
            BubbleConfig(num_bubbles=0)
