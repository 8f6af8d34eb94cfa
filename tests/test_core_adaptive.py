"""Unit tests for the adaptive bubble-count maintainer (future work §6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import BubbleBuilder, BubbleConfig, PointStore, UpdateBatch
from repro.core import (
    AdaptiveMaintainer,
    MaintenanceConfig,
    verify_consistency,
)
from repro.exceptions import InvalidConfigError


def make_adaptive(rng, num_points=1000, points_per_bubble=50):
    store = PointStore(dim=2)
    store.insert(rng.normal(size=(num_points, 2)) * 5.0)
    num_bubbles = num_points // points_per_bubble
    bubbles = BubbleBuilder(
        BubbleConfig(num_bubbles=num_bubbles, seed=0)
    ).build(store)
    maintainer = AdaptiveMaintainer(
        bubbles,
        store,
        points_per_bubble=points_per_bubble,
        config=MaintenanceConfig(seed=0),
    )
    return store, bubbles, maintainer


class TestGrowth:
    def test_count_tracks_growing_database(self, rng):
        store, bubbles, maintainer = make_adaptive(rng)
        start = maintainer.active_count
        for _ in range(5):
            batch = UpdateBatch(
                insertions=rng.normal(size=(200, 2)) * 5.0,
                insertion_labels=tuple([0] * 200),
            )
            maintainer.apply_batch(batch)
            assert verify_consistency(bubbles, store).ok
        assert maintainer.active_count > start
        assert maintainer.active_count == maintainer.target_count

    def test_growth_bounded_per_batch(self, rng):
        store, bubbles, maintainer = make_adaptive(rng)
        maintainer._max_adjust = 2  # noqa: SLF001 - white-box bound check
        before = maintainer.active_count
        batch = UpdateBatch(
            insertions=rng.normal(size=(500, 2)) * 5.0,
            insertion_labels=tuple([0] * 500),
        )
        maintainer.apply_batch(batch)
        assert maintainer.active_count <= before + 2


class TestShrink:
    def test_count_tracks_shrinking_database(self, rng):
        store, bubbles, maintainer = make_adaptive(rng)
        for _ in range(6):
            victims = tuple(
                int(i)
                for i in rng.choice(store.ids(), size=120, replace=False)
            )
            maintainer.apply_batch(
                UpdateBatch(deletions=victims, insertions=np.empty((0, 2)))
            )
            assert verify_consistency(bubbles, store).ok
        assert maintainer.active_count == maintainer.target_count
        assert maintainer.active_count < 20

    def test_retired_bubbles_stay_empty(self, rng):
        store, bubbles, maintainer = make_adaptive(rng)
        # Shrink hard, then churn with insertions near retired seeds.
        victims = tuple(int(i) for i in store.ids()[:600])
        maintainer.apply_batch(
            UpdateBatch(deletions=victims, insertions=np.empty((0, 2)))
        )
        for _ in range(3):
            maintainer.apply_batch(
                UpdateBatch(
                    insertions=rng.normal(size=(30, 2)) * 5.0,
                    insertion_labels=tuple([0] * 30),
                )
            )
            for bubble_id in maintainer.retired_ids:
                assert bubbles[bubble_id].is_empty()
            assert verify_consistency(bubbles, store).ok

    def test_retired_bubbles_revived_on_regrowth(self, rng):
        store, bubbles, maintainer = make_adaptive(rng)
        victims = tuple(int(i) for i in store.ids()[:500])
        maintainer.apply_batch(
            UpdateBatch(deletions=victims, insertions=np.empty((0, 2)))
        )
        # Let the bounded steering finish the shrink before regrowing.
        while maintainer.active_count > maintainer.target_count:
            maintainer.apply_batch(UpdateBatch.empty(dim=2))
        retired_before = len(maintainer.retired_ids)
        assert retired_before > 0
        total_bubbles = len(bubbles)
        # Regrow only back toward the original size, so revival suffices
        # and no new bubble ids need allocating.
        for _ in range(2):
            maintainer.apply_batch(
                UpdateBatch(
                    insertions=rng.normal(size=(150, 2)) * 5.0,
                    insertion_labels=tuple([0] * 150),
                )
            )
        # Regrowth reuses parked ids before allocating new ones.
        assert len(maintainer.retired_ids) < retired_before
        assert len(bubbles) == total_bubbles


class TestValidation:
    def test_points_per_bubble_validated(self, rng):
        store = PointStore(dim=2)
        store.insert(rng.normal(size=(100, 2)))
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=5, seed=0)).build(
            store
        )
        with pytest.raises(InvalidConfigError):
            AdaptiveMaintainer(bubbles, store, points_per_bubble=0)
        with pytest.raises(InvalidConfigError):
            AdaptiveMaintainer(
                bubbles, store, points_per_bubble=10, max_adjust_per_batch=0
            )

    def test_target_count_floor(self, rng):
        store, bubbles, maintainer = make_adaptive(rng, num_points=1000)
        victims = tuple(int(i) for i in store.ids()[:990])
        maintainer.apply_batch(
            UpdateBatch(deletions=victims, insertions=np.empty((0, 2)))
        )
        assert maintainer.target_count >= 1
        assert maintainer.active_count >= 1
