"""Unit tests for the complete-rebuild baseline maintainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CompleteRebuildMaintainer, PointStore, UpdateBatch
from repro.core import BubbleConfig, verify_consistency


@pytest.fixture
def world(rng):
    store = PointStore(dim=2)
    points = rng.normal(size=(400, 2))
    store.insert(points, np.zeros(400, dtype=np.int64))
    maintainer = CompleteRebuildMaintainer(
        store, CompleteRebuildMaintainer.default_config(10, seed=0)
    )
    return store, maintainer


class TestCompleteRebuild:
    def test_bubbles_before_build_raises(self, world):
        _, maintainer = world
        with pytest.raises(RuntimeError):
            _ = maintainer.bubbles

    def test_rebuild_covers_database(self, world):
        store, maintainer = world
        bubbles = maintainer.rebuild()
        assert bubbles.total_points == store.size
        assert verify_consistency(bubbles, store).ok

    def test_apply_batch_applies_and_rebuilds(self, world, rng):
        store, maintainer = world
        maintainer.rebuild()
        victims = tuple(int(i) for i in store.ids()[:50])
        batch = UpdateBatch(
            deletions=victims,
            insertions=rng.normal(size=(50, 2)),
            insertion_labels=tuple([0] * 50),
        )
        report = maintainer.apply_batch(batch)
        assert store.size == 400
        assert maintainer.bubbles.total_points == 400
        assert report.num_deletions == 50
        assert report.num_insertions == 50
        # Every bubble counts as rebuilt for Figure 9 purposes.
        assert len(report.rebuilt_bubbles) == 10

    def test_default_config_disables_pruning(self):
        config = CompleteRebuildMaintainer.default_config(5)
        assert config.use_triangle_inequality is False

    def test_rebuild_cost_scales_with_database(self, world):
        store, maintainer = world
        before = maintainer.counter.snapshot()
        maintainer.rebuild()
        delta = maintainer.counter.snapshot() - before
        # Naive rebuild: exactly N x B distance computations.
        assert delta.computed == store.size * 10
        assert delta.pruned == 0

    def test_pruned_rebuild_configurable(self, rng):
        store = PointStore(dim=2)
        store.insert(rng.normal(size=(300, 2)))
        maintainer = CompleteRebuildMaintainer(
            store,
            BubbleConfig(num_bubbles=10, use_triangle_inequality=True, seed=0),
        )
        maintainer.rebuild()
        assert maintainer.counter.pruned > 0
