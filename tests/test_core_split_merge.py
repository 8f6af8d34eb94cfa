"""Unit tests for the synchronized merge/split operations (Figure 6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import BubbleBuilder, BubbleConfig, PointStore
from repro.core import (
    SplitStrategy,
    merge_bubble,
    rebuild_pair,
    split_bubble,
    verify_consistency,
)
from repro.geometry import DistanceCounter


@pytest.fixture
def setup(rng):
    """A store with three blobs and a 6-bubble summary."""
    points = np.vstack(
        [
            rng.normal([0, 0], 0.3, size=(100, 2)),
            rng.normal([10, 0], 0.3, size=(100, 2)),
            rng.normal([0, 10], 0.3, size=(100, 2)),
        ]
    )
    store = PointStore(dim=2)
    store.insert(points)
    bubbles = BubbleBuilder(BubbleConfig(num_bubbles=6, seed=0)).build(store)
    return store, bubbles


class TestMerge:
    def test_donor_is_emptied(self, setup):
        store, bubbles = setup
        donor = bubbles.non_empty_ids()[0]
        counter = DistanceCounter()
        moved = merge_bubble(bubbles, store, donor, counter)
        assert bubbles[donor].is_empty()
        assert moved > 0
        assert verify_consistency(bubbles, store).ok

    def test_points_go_to_nearest_other_bubble(self, setup):
        store, bubbles = setup
        donor = bubbles.non_empty_ids()[0]
        member_ids = store.owned_by(donor)
        points = store.points_of(member_ids)
        # Assignment targets are judged at their pre-merge representatives
        # (absorbing the released points moves them afterwards).
        reps = bubbles.reps()
        counter = DistanceCounter()
        merge_bubble(bubbles, store, donor, counter)
        other = [b.bubble_id for b in bubbles if b.bubble_id != donor]
        for pid, point in zip(member_ids, points):
            dists = np.linalg.norm(reps[other] - point, axis=1)
            expected = other[int(np.argmin(dists))]
            assert store.owner(int(pid)) == expected

    def test_empty_donor_is_noop(self, setup):
        store, bubbles = setup
        empty_ids = [
            b.bubble_id for b in bubbles if b.is_empty()
        ]
        donor = empty_ids[0] if empty_ids else None
        if donor is None:
            donor_bubble = bubbles[bubbles.non_empty_ids()[0]]
            counter = DistanceCounter()
            merge_bubble(bubbles, store, donor_bubble.bubble_id, counter)
            donor = donor_bubble.bubble_id
        counter = DistanceCounter()
        assert merge_bubble(bubbles, store, donor, counter) == 0
        assert counter.computed == 0

    def test_counter_receives_cost(self, setup):
        store, bubbles = setup
        donor = bubbles.non_empty_ids()[0]
        counter = DistanceCounter()
        merge_bubble(bubbles, store, donor, counter)
        assert counter.computed > 0


class TestSplit:
    def test_requires_empty_donor(self, setup):
        store, bubbles = setup
        ids = bubbles.non_empty_ids()
        with pytest.raises(ValueError):
            split_bubble(
                bubbles, store, ids[0], ids[1],
                DistanceCounter(), np.random.default_rng(0),
            )

    def test_self_split_rejected(self, setup):
        store, bubbles = setup
        over = bubbles.non_empty_ids()[0]
        with pytest.raises(ValueError):
            split_bubble(
                bubbles, store, over, over,
                DistanceCounter(), np.random.default_rng(0),
            )

    def test_split_partitions_the_over_filled_bubble(self, setup):
        store, bubbles = setup
        counter = DistanceCounter()
        ids = sorted(
            bubbles.non_empty_ids(), key=lambda i: bubbles[i].n, reverse=True
        )
        over, donor = ids[0], ids[-1]
        before = store.owned_by(over)
        merge_bubble(bubbles, store, donor, counter)
        absorbed = store.owned_by(over)  # merge may have added points
        split_bubble(
            bubbles, store, over, donor, counter, np.random.default_rng(1)
        )
        after = np.union1d(store.owned_by(over), store.owned_by(donor))
        assert np.array_equal(after, absorbed)
        assert bubbles[over].n + bubbles[donor].n == absorbed.size
        assert verify_consistency(bubbles, store).ok
        assert before.size > 0

    def test_split_assigns_to_closer_seed(self, setup):
        store, bubbles = setup
        counter = DistanceCounter()
        ids = sorted(
            bubbles.non_empty_ids(), key=lambda i: bubbles[i].n, reverse=True
        )
        over, donor = ids[0], ids[-1]
        merge_bubble(bubbles, store, donor, counter)
        split_bubble(
            bubbles, store, over, donor, counter, np.random.default_rng(2)
        )
        seed_over = bubbles[over].seed
        seed_donor = bubbles[donor].seed
        for pid in store.owned_by(donor):
            point = store.point(pid)
            assert np.linalg.norm(point - seed_donor) <= np.linalg.norm(
                point - seed_over
            ) + 1e-9

    def test_farthest_strategy_separates_two_blobs(self, rng):
        # One bubble containing two far-apart blobs must split cleanly.
        points = np.vstack(
            [
                rng.normal([0, 0], 0.2, size=(50, 2)),
                rng.normal([100, 0], 0.2, size=(50, 2)),
            ]
        )
        store = PointStore(dim=2)
        store.insert(points)
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=2, seed=0)).build(
            store
        )
        # Force everything into bubble holding both blobs if not already.
        sizes = bubbles.counts()
        if sizes.min() > 0 and sizes.max() < 100:
            pytest.skip("builder already separated the blobs")
        over = int(np.argmax(sizes))
        donor = 1 - over
        counter = DistanceCounter()
        rebuild_pair(
            bubbles, store, over, donor, counter,
            np.random.default_rng(3), strategy=SplitStrategy.FARTHEST,
        )
        counts = bubbles.counts()
        assert counts.min() == 50 and counts.max() == 50
        reps = bubbles.reps()
        xs = sorted(float(r[0]) for r in reps)
        assert xs[0] == pytest.approx(0.0, abs=1.0)
        assert xs[1] == pytest.approx(100.0, abs=1.0)


class TestRebuildPair:
    def test_preserves_partition(self, setup):
        store, bubbles = setup
        ids = sorted(
            bubbles.non_empty_ids(), key=lambda i: bubbles[i].n, reverse=True
        )
        rebuild_pair(
            bubbles, store, ids[0], ids[-1],
            DistanceCounter(), np.random.default_rng(4),
        )
        assert verify_consistency(bubbles, store).ok
        assert bubbles.total_points == store.size
