"""Unit tests for the incremental maintenance scheme (Section 4)."""

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
from repro.core import DonorPolicy, SplitStrategy, verify_consistency
from repro.exceptions import InvalidConfigError
from repro.geometry import DistanceCounter


def make_world(rng, num_points=600, num_bubbles=20):
    points = np.vstack(
        [
            rng.normal([0, 0], 0.5, size=(num_points // 2, 2)),
            rng.normal([20, 20], 0.5, size=(num_points // 2, 2)),
        ]
    )
    labels = np.array(
        [0] * (num_points // 2) + [1] * (num_points // 2), dtype=np.int64
    )
    store = PointStore(dim=2)
    store.insert(points, labels)
    counter = DistanceCounter()
    bubbles = BubbleBuilder(
        BubbleConfig(num_bubbles=num_bubbles, seed=0), counter
    ).build(store)
    maintainer = IncrementalMaintainer(
        bubbles, store, MaintenanceConfig(seed=0), counter=counter
    )
    return store, bubbles, maintainer


class TestDeletions:
    def test_deletion_decrements_owner(self, rng):
        store, bubbles, maintainer = make_world(rng)
        victim = int(store.ids()[0])
        owner = store.owner(victim)
        before = bubbles[owner].n
        batch = UpdateBatch(deletions=(victim,), insertions=np.empty((0, 2)))
        maintainer.apply_batch(batch)
        assert bubbles[owner].n == before - 1
        assert victim not in store

    def test_deletions_cost_no_distance_computations(self, rng):
        store, bubbles, maintainer = make_world(rng)
        victims = tuple(int(i) for i in store.ids()[:10])
        batch = UpdateBatch(deletions=victims, insertions=np.empty((0, 2)))
        report = maintainer.apply_batch(batch)
        # A pure-deletion batch only pays for rebuilds (if any trigger).
        if not report.rebuilt_bubbles:
            assert report.computed_distances == 0

    def test_partition_preserved_under_deletions(self, rng):
        store, bubbles, maintainer = make_world(rng)
        victims = tuple(int(i) for i in store.ids()[::5])
        maintainer.apply_batch(
            UpdateBatch(deletions=victims, insertions=np.empty((0, 2)))
        )
        assert verify_consistency(bubbles, store).ok


class TestInsertions:
    def test_insertion_goes_to_nearest_rep(self, rng):
        store, bubbles, maintainer = make_world(rng)
        reps_before = bubbles.reps()
        new_point = np.array([[0.1, -0.2]])
        batch = UpdateBatch(
            insertions=new_point, insertion_labels=(0,)
        )
        maintainer.apply_batch(batch)
        new_id = int(store.ids()[-1])
        owner = store.owner(new_id)
        dists = np.linalg.norm(reps_before - new_point[0], axis=1)
        assert owner == int(np.argmin(dists))

    def test_insertion_updates_statistics(self, rng):
        store, bubbles, maintainer = make_world(rng)
        total_before = bubbles.total_points
        batch = UpdateBatch(
            insertions=rng.normal([0, 0], 0.5, size=(25, 2)),
            insertion_labels=tuple([0] * 25),
        )
        maintainer.apply_batch(batch)
        assert bubbles.total_points == total_before + 25
        assert verify_consistency(bubbles, store).ok

    def test_empty_batch_is_noop(self, rng):
        store, bubbles, maintainer = make_world(rng)
        counts_before = bubbles.counts().tolist()
        report = maintainer.apply_batch(UpdateBatch.empty(dim=2))
        assert bubbles.counts().tolist() == counts_before
        assert report.num_insertions == 0
        assert report.num_deletions == 0


class TestQualityRepair:
    def test_new_far_cluster_triggers_rebuild(self, rng):
        store, bubbles, maintainer = make_world(rng)
        # Insert a heavy new cluster far from everything across batches.
        rebuilt_any = False
        for _ in range(4):
            batch = UpdateBatch(
                insertions=rng.normal([60, -40], 0.5, size=(120, 2)),
                insertion_labels=tuple([2] * 120),
            )
            report = maintainer.apply_batch(batch)
            rebuilt_any = rebuilt_any or bool(report.rebuilt_bubbles)
        assert rebuilt_any
        # After the rebuilds, several bubbles summarize the new region.
        reps = maintainer.bubbles.reps()
        near = np.linalg.norm(reps - np.array([60.0, -40.0]), axis=1) < 5.0
        counts = maintainer.bubbles.counts()
        assert counts[near].sum() > 200  # most of the 480 new points
        assert near.sum() >= 2

    def test_report_counts_classes(self, rng):
        store, bubbles, maintainer = make_world(rng)
        report = maintainer.apply_batch(UpdateBatch.empty(dim=2))
        assert report.num_over_filled >= 0
        assert report.num_under_filled >= 0
        assert report.rounds_run <= maintainer.config.rebuild_rounds

    def test_classify_does_not_mutate(self, rng):
        store, bubbles, maintainer = make_world(rng)
        counts = bubbles.counts().tolist()
        maintainer.classify()
        assert bubbles.counts().tolist() == counts

    def test_rebuilt_ids_are_valid(self, rng):
        store, bubbles, maintainer = make_world(rng)
        batch = UpdateBatch(
            insertions=rng.normal([80, 80], 0.5, size=(400, 2)),
            insertion_labels=tuple([3] * 400),
        )
        report = maintainer.apply_batch(batch)
        for bid in report.rebuilt_bubbles:
            assert 0 <= bid < len(bubbles)


class TestUnownedDeletion:
    def test_deleting_unassigned_point_raises_clearly(self, rng):
        from repro.exceptions import UnknownPointError

        store, bubbles, maintainer = make_world(rng)
        rogue = store.insert(np.zeros((1, 2)), labels=[-1])[0]
        with pytest.raises(UnknownPointError, match="not summarized"):
            maintainer.apply_batch(
                UpdateBatch(
                    deletions=(rogue,), insertions=np.empty((0, 2))
                )
            )


class TestDonorPolicies:
    @pytest.mark.parametrize(
        "policy", [DonorPolicy.UNDERFILLED_FIRST, DonorPolicy.LOWEST_BETA]
    )
    def test_policies_preserve_partition(self, rng, policy):
        store = PointStore(dim=2)
        points = rng.normal([0, 0], 1.0, size=(500, 2))
        store.insert(points, np.zeros(500, dtype=np.int64))
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=15, seed=1)).build(
            store
        )
        maintainer = IncrementalMaintainer(
            bubbles,
            store,
            MaintenanceConfig(seed=1, donor_policy=policy),
        )
        for _ in range(3):
            batch = UpdateBatch(
                insertions=rng.normal([50, 50], 0.5, size=(150, 2)),
                insertion_labels=tuple([1] * 150),
            )
            maintainer.apply_batch(batch)
            assert verify_consistency(bubbles, store).ok


class TestBatchReport:
    def test_pruned_fraction(self, rng):
        store, bubbles, maintainer = make_world(rng)
        batch = UpdateBatch(
            insertions=rng.normal([0, 0], 0.5, size=(60, 2)),
            insertion_labels=tuple([0] * 60),
        )
        report = maintainer.apply_batch(batch)
        assert 0.0 <= report.pruned_fraction <= 1.0
        assert 0.0 <= report.insertion_pruned_fraction <= 1.0
        assert report.num_rebuilt == len(report.rebuilt_bubbles)

    def test_counter_delta_matches_report(self, rng):
        store, bubbles, maintainer = make_world(rng)
        before = maintainer.counter.snapshot()
        batch = UpdateBatch(
            insertions=rng.normal([0, 0], 0.5, size=(30, 2)),
            insertion_labels=tuple([0] * 30),
        )
        report = maintainer.apply_batch(batch)
        delta = maintainer.counter.snapshot() - before
        assert report.computed_distances == delta.computed
        assert report.pruned_distances == delta.pruned


class TestMaintenanceConfig:
    def test_rebuild_rounds_validated(self):
        with pytest.raises(InvalidConfigError):
            MaintenanceConfig(rebuild_rounds=0)

    def test_probability_validated(self):
        with pytest.raises(InvalidConfigError):
            MaintenanceConfig(probability=2.0)

    def test_k_property(self):
        assert MaintenanceConfig(probability=0.9).k == pytest.approx(
            10.0 ** 0.5
        )

    def test_defaults(self):
        config = MaintenanceConfig()
        assert config.probability == 0.9
        assert config.split_strategy is SplitStrategy.FARTHEST
        assert config.donor_policy is DonorPolicy.UNDERFILLED_FIRST
