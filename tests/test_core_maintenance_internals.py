"""White-box tests of the maintenance scheme's internal decisions.

These pin the *order* of operations the paper specifies: donors are taken
under-filled-first (emptiest first), over-filled bubbles are processed
worst-first, a donor is used at most once per round, and the rebuild
rounds re-classify between passes.
"""

from __future__ import annotations

import numpy as np

from repro import (
    BubbleBuilder,
    BubbleConfig,
    IncrementalMaintainer,
    MaintenanceConfig,
    PointStore,
    UpdateBatch,
)
from repro.core import BubbleClass, DonorPolicy, verify_consistency
from repro.core.quality import QualityReport, classify_values


def report_from_values(values) -> QualityReport:
    return classify_values(np.asarray(values, dtype=np.float64), 0.9)


def make_maintainer(policy=DonorPolicy.UNDERFILLED_FIRST, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    store = PointStore(dim=2)
    store.insert(rng.normal(size=(200, 2)))
    bubbles = BubbleBuilder(BubbleConfig(num_bubbles=8, seed=rng_seed)).build(
        store
    )
    maintainer = IncrementalMaintainer(
        bubbles,
        store,
        MaintenanceConfig(seed=rng_seed, donor_policy=policy),
    )
    return store, bubbles, maintainer


class TestDonorQueue:
    def test_underfilled_first_ordering(self):
        _, _, maintainer = make_maintainer()
        # Craft a report: values chosen so ids 2 and 5 are under-filled
        # (2 emptier), id 0 over-filled, rest good with varying values.
        values = [0.9, 0.10, 0.0, 0.12, 0.14, 0.01, 0.11, 0.13]
        report = classify_values(np.asarray(values), 0.9)
        # Force the classes we want by building the report manually.
        from repro.core.quality import BubbleClass, QualityReport

        classes = [
            BubbleClass.OVER_FILLED,
            BubbleClass.GOOD,
            BubbleClass.UNDER_FILLED,
            BubbleClass.GOOD,
            BubbleClass.GOOD,
            BubbleClass.UNDER_FILLED,
            BubbleClass.GOOD,
            BubbleClass.GOOD,
        ]
        report = QualityReport(
            values=np.asarray(values),
            mean=report.mean,
            std=report.std,
            k=report.k,
            lower=report.lower,
            upper=report.upper,
            classes=tuple(classes),
        )
        queue = maintainer._donor_queue(report)  # noqa: SLF001
        # Under-filled first (emptiest first: 2 then 5), then good by
        # ascending value: 1 (0.10), 6 (0.11), 3 (0.12), 7 (0.13), 4 (0.14).
        assert queue == [2, 5, 1, 6, 3, 7, 4]

    def test_lowest_beta_policy_ignores_classes(self):
        _, _, maintainer = make_maintainer(policy=DonorPolicy.LOWEST_BETA)
        from repro.core.quality import BubbleClass, QualityReport

        values = [0.9, 0.10, 0.0, 0.12]
        classes = [
            BubbleClass.OVER_FILLED,
            BubbleClass.GOOD,
            BubbleClass.UNDER_FILLED,
            BubbleClass.GOOD,
        ]
        report = QualityReport(
            values=np.asarray(values),
            mean=0.0, std=0.0, k=1.0, lower=0.0, upper=0.0,
            classes=tuple(classes),
        )
        queue = maintainer._donor_queue(report)  # noqa: SLF001
        # Pure ascending value among non-over-filled: 2, 1, 3.
        assert queue == [2, 1, 3]


class TestRebuildRounds:
    def test_rounds_stop_when_clean(self):
        _, _, maintainer = make_maintainer()
        report = maintainer.apply_batch(UpdateBatch.empty(dim=2))
        # A balanced summary has no over-filled bubbles: zero rounds run.
        assert report.rounds_run == 0 or report.num_over_filled > 0

    def test_round_budget_respected(self, rng):
        store = PointStore(dim=2)
        store.insert(rng.normal(size=(300, 2)))
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=10, seed=1)).build(
            store
        )
        maintainer = IncrementalMaintainer(
            bubbles, store, MaintenanceConfig(seed=1, rebuild_rounds=3)
        )
        batch = UpdateBatch(
            insertions=rng.normal([90, 90], 0.5, size=(400, 2)),
            insertion_labels=tuple([1] * 400),
        )
        report = maintainer.apply_batch(batch)
        assert report.rounds_run <= 3

    def test_donor_used_once_per_round(self, rng):
        # Two far-apart new clusters appearing at once: both over-filled
        # bubbles need distinct donors.
        store = PointStore(dim=2)
        store.insert(rng.normal(size=(400, 2)))
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=12, seed=2)).build(
            store
        )
        maintainer = IncrementalMaintainer(
            bubbles, store, MaintenanceConfig(seed=2)
        )
        batch = UpdateBatch(
            insertions=np.vstack(
                [
                    rng.normal([80, 0], 0.5, size=(200, 2)),
                    rng.normal([0, 80], 0.5, size=(200, 2)),
                ]
            ),
            insertion_labels=tuple([1] * 200 + [2] * 200),
        )
        report = maintainer.apply_batch(batch)
        # Every rebuilt id appears exactly once in the (sorted, deduped)
        # tuple; rebuilding happened for at least one over-filled bubble.
        assert len(set(report.rebuilt_bubbles)) == len(
            report.rebuilt_bubbles
        )
        assert verify_consistency(bubbles, store).ok


class TestWorstFirstProcessing:
    def test_most_overfilled_bubble_is_rebuilt_when_donors_scarce(self, rng):
        """With a single usable donor, the worst over-filled bubble (by β)
        must win it."""
        store = PointStore(dim=2)
        store.insert(rng.normal(size=(100, 2)))
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=4, seed=3)).build(
            store
        )
        maintainer = IncrementalMaintainer(
            bubbles, store, MaintenanceConfig(seed=3, rebuild_rounds=1)
        )
        # Overfill two bubbles to different degrees.
        big = rng.normal([60, 0], 0.4, size=(300, 2))
        small = rng.normal([0, 60], 0.4, size=(150, 2))
        report = maintainer.apply_batch(
            UpdateBatch(
                insertions=np.vstack([big, small]),
                insertion_labels=tuple([1] * 300 + [2] * 150),
            )
        )
        if report.num_over_filled >= 1 and report.rebuilt_bubbles:
            # The bubble holding the 300-point cluster must be among the
            # rebuilt ones (worst-first).
            reps = bubbles.reps()
            near_big = np.linalg.norm(
                reps - np.array([60.0, 0.0]), axis=1
            ) < 10.0
            assert near_big.sum() >= 2  # it was split toward the big blob


class TestBatchReportAccounting:
    def test_empty_summary_edge(self, rng):
        # A store whose every point is deleted: bubbles all empty, the
        # classifier must not crash and nothing is over-filled.
        store = PointStore(dim=2)
        store.insert(rng.normal(size=(50, 2)))
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=5, seed=4)).build(
            store
        )
        maintainer = IncrementalMaintainer(
            bubbles, store, MaintenanceConfig(seed=4)
        )
        victims = tuple(int(i) for i in store.ids())
        report = maintainer.apply_batch(
            UpdateBatch(deletions=victims, insertions=np.empty((0, 2)))
        )
        assert store.size == 0
        assert bubbles.total_points == 0
        assert report.num_over_filled == 0

    def test_reinsertion_after_total_drain(self, rng):
        store = PointStore(dim=2)
        store.insert(rng.normal(size=(50, 2)))
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=5, seed=5)).build(
            store
        )
        maintainer = IncrementalMaintainer(
            bubbles, store, MaintenanceConfig(seed=5)
        )
        victims = tuple(int(i) for i in store.ids())
        maintainer.apply_batch(
            UpdateBatch(deletions=victims, insertions=np.empty((0, 2)))
        )
        maintainer.apply_batch(
            UpdateBatch(
                insertions=rng.normal(size=(60, 2)),
                insertion_labels=tuple([0] * 60),
            )
        )
        assert bubbles.total_points == 60
        assert verify_consistency(bubbles, store).ok
