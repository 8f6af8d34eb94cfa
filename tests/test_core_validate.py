"""Unit tests for the deep consistency validator."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BubbleBuilder,
    BubbleConfig,
    IncrementalMaintainer,
    MaintenanceConfig,
    PointStore,
    UpdateBatch,
)
from repro.core import verify_consistency


@pytest.fixture
def consistent_world(rng):
    store = PointStore(dim=2)
    store.insert(rng.normal(size=(300, 2)), np.zeros(300, dtype=np.int64))
    bubbles = BubbleBuilder(BubbleConfig(num_bubbles=10, seed=0)).build(store)
    return store, bubbles


class TestVerifyConsistency:
    def test_fresh_build_is_consistent(self, consistent_world):
        store, bubbles = consistent_world
        report = verify_consistency(bubbles, store)
        assert report.ok
        assert report.violations == ()
        report.raise_if_invalid()  # no-op when ok

    def test_consistent_after_maintenance(self, consistent_world, rng):
        store, bubbles = consistent_world
        maintainer = IncrementalMaintainer(
            bubbles, store, MaintenanceConfig(seed=0)
        )
        for _ in range(3):
            victims = tuple(
                int(i) for i in rng.choice(store.ids(), 30, replace=False)
            )
            maintainer.apply_batch(
                UpdateBatch(
                    deletions=victims,
                    insertions=rng.normal(size=(30, 2)) * 20.0,
                    insertion_labels=tuple([0] * 30),
                )
            )
            assert verify_consistency(bubbles, store).ok

    def test_detects_uncovered_point(self, consistent_world):
        store, bubbles = consistent_world
        store.insert(np.zeros((1, 2)))  # alive but owned by nobody
        report = verify_consistency(bubbles, store)
        assert not report.ok
        assert any("belong to no bubble" in v for v in report.violations)
        with pytest.raises(AssertionError):
            report.raise_if_invalid()

    def test_detects_dead_member(self, consistent_world):
        store, bubbles = consistent_world
        donor = bubbles.non_empty_ids()[0]
        pid = int(store.owned_by(donor)[0])
        # Delete from the store without telling the bubble: its n still
        # counts the dead point.
        store.delete([pid])
        report = verify_consistency(bubbles, store)
        assert not report.ok
        assert report.violations == (
            f"bubble {donor}: n={bubbles[donor].n} but it owns "
            f"{bubbles[donor].n - 1} alive point(s)",
        )

    def test_detects_ownership_mismatch(self, consistent_world):
        store, bubbles = consistent_world
        donor = bubbles.non_empty_ids()[0]
        pid = int(store.owned_by(donor)[0])
        store.set_owner(pid, donor + 1)  # lie about the owner
        report = verify_consistency(bubbles, store)
        assert not report.ok
        # One flipped entry: both bubbles' statistics disagree with the
        # points the column now gives them.
        assert [v.split(":")[0] for v in report.violations] == [
            f"bubble {donor}",
            f"bubble {donor + 1}",
        ]

    def test_detects_statistics_drift(self, consistent_world):
        store, bubbles = consistent_world
        donor = bubbles.non_empty_ids()[0]
        # Corrupt statistics directly (simulating a missed update).
        bubbles[donor].absorb(np.array([1e6, 1e6]))
        bubbles[donor].release(np.array([0.0, 0.0]))
        report = verify_consistency(bubbles, store)
        assert not report.ok
        assert any("drifted" in v or "n=" in v for v in report.violations)
