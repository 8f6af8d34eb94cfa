"""Unit tests for the bubble container."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PointStore
from repro.clustering.bubble_optics import _nn_dist_arrays
from repro.core import BubbleSet, verify_consistency
from repro.exceptions import DimensionMismatchError, EmptyBubbleError
from repro.sufficient import (
    SufficientStatistics,
    extent,
    nn_dist,
    representative,
)


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


class TestMemberCsr:
    """The owner sort against ``np.argsort(owners, kind="stable")`` on
    either side of the 65,536-bubble bound of the ``uint16`` keys."""

    @pytest.mark.parametrize("num", [3, 1 << 16, (1 << 16) + 1])
    def test_matches_a_stable_argsort_of_the_owners(self, num):
        rng = np.random.default_rng(num)
        store = PointStore(dim=1)
        ids = np.asarray(store.insert(np.zeros((5_000, 1))))
        owners = rng.integers(-1, num, size=ids.size)
        # Owner -1 (unowned), the extremes, and an owner outside the set.
        owners[:4] = [-1, 0, num - 1, num]
        store.set_owners(ids, owners)
        bubbles = BubbleSet.from_arrays(store, np.zeros((num, 1)))
        offsets, members = bubbles.member_csr()
        owned = (owners >= 0) & (owners < num)
        want = ids[owned][np.argsort(owners[owned], kind="stable")]
        assert np.array_equal(members, want)
        assert np.array_equal(
            np.diff(offsets), np.bincount(owners[owned], minlength=num)
        )


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


class TestFeatures:
    """Definition 1 from the arrays, pinned float for float to the scalar
    functions of :mod:`repro.sufficient` on the same row's statistics."""

    MIN_PTS = 25
    SIZES = (0, 1, 2, MIN_PTS - 1, MIN_PTS, MIN_PTS + 1, 10_000)

    @classmethod
    def rows(cls, dim: int, rng) -> BubbleSet:
        """One bubble per size, twice: scattered points, and one point
        repeated (its variance term cancels to a float residue); then
        1,000 raw rows of random size, where a power or dot product
        rounded differently would show."""
        stats, seeds = [], []
        for size in cls.SIZES:
            offset = rng.normal(size=dim) * 1e3
            spread = rng.normal(size=(size, dim)) * rng.uniform(0.01, 10.0)
            stats.append(SufficientStatistics.from_points(offset + spread))
            same = np.repeat(offset[None, :] + 0.1, size, axis=0)
            stats.append(SufficientStatistics.from_points(same))
            seeds += [offset, -offset]
        for size in rng.integers(cls.MIN_PTS + 1, 100_000, size=1000):
            mean = rng.normal(size=dim) * rng.uniform(0.1, 1e3)
            spread = rng.uniform(0.0, 10.0)
            stats.append(
                SufficientStatistics.from_raw(
                    size, size * mean, size * (mean @ mean + spread)
                )
            )
            seeds.append(mean)
        return BubbleSet.from_arrays(
            PointStore(dim=dim),
            np.asarray(seeds),
            [s.n for s in stats],
            [s.linear_sum for s in stats],
            [s.square_sum for s in stats],
        )

    @pytest.mark.parametrize("dim", [2, 5, 8, 20])
    def test_matches_the_scalar_derivations(self, dim):
        bubbles = self.rows(dim, np.random.default_rng(dim))
        counts, reps, extents, nn = bubbles.features(None, self.MIN_PTS)
        seeds = bubbles.seeds()
        cancelled = 0
        for b, bubble in enumerate(bubbles):
            stats = bubble.stats
            assert counts[b] == stats.n
            if stats.n == 0:
                assert _bits(reps[b]).tolist() == _bits(seeds[b]).tolist()
                assert extents[b] == 0.0
                assert nn[b] == 0.0
                continue
            ls = stats.linear_sum
            if stats.n > 1:
                sq = 2.0 * stats.n * stats.square_sum - 2.0 * float(
                    np.dot(ls, ls)
                )
                cancelled += sq < 0.0
            assert _bits(reps[b]).tolist() == _bits(
                representative(stats)
            ).tolist()
            assert _bits(extents[b]) == _bits(extent(stats))
            assert _bits(nn[b]) == _bits(nn_dist(stats, self.MIN_PTS))
        # The duplicate-point rows exercise the clamp below zero.
        assert cancelled > 0

    @pytest.mark.parametrize("dim", [2, 5, 8, 20])
    def test_k1_row_matches_the_array_path(self, dim):
        # nnDist(1) of the OPTICS distance stays on _nn_dist_arrays; fed
        # the set's counts and extents, each row equals the one-row call
        # on that row's scalar extent.
        bubbles = self.rows(dim, np.random.default_rng(dim))
        counts, _, extents, _ = bubbles.features(None, 1)
        nn1 = _nn_dist_arrays(counts, extents, dim, k=1)
        for b, bubble in enumerate(bubbles):
            stats = bubble.stats
            ext = extent(stats) if stats.n else 0.0
            one = _nn_dist_arrays(
                np.array([stats.n]), np.array([ext]), dim, k=1
            )
            assert _bits(nn1[b]) == _bits(one[0])

    def test_subsets_and_handles_read_the_same_rows(self):
        bubbles = self.rows(5, np.random.default_rng(0))
        full = bubbles.features(None, self.MIN_PTS)
        ids = np.random.default_rng(1).permutation(len(bubbles))[:9]
        part = bubbles.features(ids, self.MIN_PTS)
        for got, want in zip(part, full):
            assert np.array_equal(got, want[ids])
        counts, reps, extents, nn = full
        assert np.array_equal(bubbles.reps(ids), reps[ids])
        assert np.array_equal(bubbles.extents(), extents)
        for b in ids:
            bubble = bubbles[int(b)]
            assert np.array_equal(bubble.rep, reps[b])
            assert bubble.extent == extents[b]
            assert bubble.nn_dist(self.MIN_PTS) == nn[b]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            make_set(2).features(None, 0)

    def test_from_arrays_rejects_misaligned_statistics(self):
        store = PointStore(dim=2)
        with pytest.raises(ValueError):
            BubbleSet.from_arrays(store, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            BubbleSet.from_arrays(
                store, np.zeros((2, 2)), [1, 1], np.zeros((2, 2)), [0.0]
            )
        with pytest.raises(ValueError):
            BubbleSet.from_arrays(
                store, np.zeros((1, 2)), [-1], np.zeros((1, 2)), [0.0]
            )


class TestGroupedUpdates:
    def test_grouped_absorb_equals_per_bubble_blocks(self):
        # One grouped call leaves each bubble's row exactly as one
        # block update of its own rows (in their given order) would.
        rng = np.random.default_rng(3)
        points = rng.normal(size=(200, 3)) * 7.0
        owners = rng.integers(0, 5, size=200)
        grouped = make_set(5, dim=3)
        grouped.absorb(points, owners)
        for b in range(5):
            mine = points[owners == b]
            block = make_set(1, dim=3)
            block.absorb(mine, np.zeros(len(mine), dtype=np.int64))
            assert grouped.counts()[b] == len(mine)
            assert np.array_equal(
                grouped.statistics()[1][b], block.statistics()[1][0]
            )
            assert grouped.statistics()[2][b] == block.statistics()[2][0]

    def test_version_and_touched_ids(self):
        bubbles = make_set(4)
        version = bubbles.version
        bubbles.absorb(np.ones((3, 2)), [2, 0, 2])
        assert bubbles.version > version
        assert bubbles.touched_since(version) == {0, 2}
        version = bubbles.version
        bubbles.release(np.ones((1, 2)), [2])
        bubbles.clear([0])
        assert bubbles.touched_since(version) == {0, 2}

    def test_owner_outside_the_set_rejected(self):
        bubbles = make_set(2)
        with pytest.raises(IndexError):
            bubbles.absorb(np.ones((1, 2)), [2])
        with pytest.raises(IndexError):
            bubbles.absorb(np.ones((1, 2)), [-1])
        assert bubbles.total_points == 0

    def test_reseed_only_when_empty(self):
        bubbles = make_set(2)
        bubbles.absorb(np.ones((1, 2)), [0])
        with pytest.raises(EmptyBubbleError):
            bubbles.reseed(0, np.zeros(2))
        bubbles.reseed(1, np.array([7.0, 7.0]))
        assert bubbles.seeds()[1].tolist() == [7.0, 7.0]
