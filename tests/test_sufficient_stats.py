"""Unit tests for the additive sufficient statistics (n, LS, SS).

Two holders keep them: :class:`SufficientStatistics` (one point set, as a
BIRCH clustering feature grows it) and the rows of a
:class:`~repro.core.bubble_set.BubbleSet`, whose grouped ``absorb`` /
``release`` is the only place the data bubbles' batch insertions and
deletions run. The update tests below exercise that grouped path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PointStore
from repro.core import BubbleSet
from repro.exceptions import DimensionMismatchError, EmptyBubbleError
from repro.sufficient import SufficientStatistics


def bubble_rows(dim: int, count: int = 1) -> BubbleSet:
    """A set of ``count`` empty bubbles seeded at the origin."""
    return BubbleSet.from_arrays(PointStore(dim=dim), np.zeros((count, dim)))


def owners(points, bubble_id: int = 0) -> np.ndarray:
    return np.full(len(points), bubble_id)


class TestConstruction:
    def test_empty_start(self):
        stats = SufficientStatistics(dim=3)
        assert stats.n == 0
        assert stats.is_empty()
        assert stats.square_sum == 0.0
        assert (stats.linear_sum == 0.0).all()

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            SufficientStatistics(dim=0)

    def test_from_points(self):
        points = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        stats = SufficientStatistics.from_points(points)
        assert stats.n == 3
        assert stats.linear_sum == pytest.approx([9.0, 12.0])
        assert stats.square_sum == pytest.approx((points**2).sum())

    def test_from_points_rejects_vector(self):
        with pytest.raises(ValueError):
            SufficientStatistics.from_points(np.array([1.0, 2.0]))


class TestIncrementalUpdates:
    def test_insert_updates_all_three(self):
        stats = SufficientStatistics(dim=2)
        stats.insert(np.array([3.0, 4.0]))
        assert stats.n == 1
        assert stats.linear_sum == pytest.approx([3.0, 4.0])
        assert stats.square_sum == pytest.approx(25.0)

    def test_insert_then_remove_is_identity(self):
        bubbles = bubble_rows(2)
        bubbles.absorb(np.array([[1.0, 1.0]]), [0])
        reference = bubbles[0].stats
        point = np.array([[-2.0, 7.0]])
        bubbles.absorb(point, [0])
        bubbles.release(point, [0])
        assert bubbles[0].stats == reference

    def test_remove_from_empty_raises(self):
        bubbles = bubble_rows(2)
        with pytest.raises(EmptyBubbleError):
            bubbles.release(np.array([[1.0, 1.0]]), [0])

    def test_emptied_statistics_snap_to_zero(self):
        bubbles = bubble_rows(2)
        # Values chosen to accumulate floating point residue.
        first, second = np.array([[0.1, 0.2]]), np.array([[0.3, 0.7]])
        bubbles.absorb(first, [0])
        bubbles.absorb(second, [0])
        bubbles.release(first, [0])
        bubbles.release(second, [0])
        assert bubbles[0].is_empty()
        assert (bubbles.statistics()[1] == 0.0).all()
        assert bubbles.statistics()[2][0] == 0.0

    def test_dimension_mismatch(self):
        stats = SufficientStatistics(dim=2)
        with pytest.raises(DimensionMismatchError):
            stats.insert(np.array([1.0, 2.0, 3.0]))

    def test_grouped_update_dimension_mismatch(self):
        bubbles = bubble_rows(2)
        with pytest.raises(DimensionMismatchError):
            bubbles.absorb(np.ones((2, 3)), [0, 0])
        with pytest.raises(DimensionMismatchError):
            bubbles.release(np.ones(2), [0])
        assert bubbles[0].is_empty()

    def test_insert_many_matches_loop(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(50, 4))
        bulk = bubble_rows(4)
        bulk.absorb(points, owners(points))
        loop = bubble_rows(4)
        for p in points:
            loop.absorb(p[None, :], [0])
        assert bulk.counts()[0] == loop.counts()[0] == 50
        assert bulk.statistics()[1] == pytest.approx(loop.statistics()[1])
        assert bulk.statistics()[2] == pytest.approx(loop.statistics()[2])

    def test_insert_many_empty_is_noop(self):
        bubbles = bubble_rows(2)
        version = bubbles.version
        bubbles.absorb(np.empty((0, 2)), np.empty(0, dtype=np.int64))
        assert bubbles[0].is_empty()
        assert bubbles.version == version

    def test_remove_many_matches_loop(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(30, 3))
        full = SufficientStatistics.from_points(points)
        bubbles = BubbleSet.from_arrays(
            PointStore(dim=3),
            np.zeros((1, 3)),
            [full.n],
            [full.linear_sum],
            [full.square_sum],
        )
        bubbles.release(points[:10], owners(points[:10]))
        expected = SufficientStatistics.from_points(points[10:])
        stats = bubbles[0].stats
        assert stats.n == expected.n
        assert stats.linear_sum == pytest.approx(expected.linear_sum)
        assert stats.square_sum == pytest.approx(expected.square_sum)

    def test_remove_many_more_than_present_raises(self):
        bubbles = bubble_rows(2, count=2)
        bubbles.absorb(np.ones((4, 2)), [0, 0, 1, 1])
        before = bubbles[0].stats, bubbles[1].stats
        # Bubble 1 can give up two points, bubble 0 not three: the whole
        # release is rejected before any row changes.
        with pytest.raises(EmptyBubbleError):
            bubbles.release(np.ones((5, 2)), [0, 0, 0, 1, 1])
        assert (bubbles[0].stats, bubbles[1].stats) == before


class TestMergeAndMean:
    def test_merge_is_addition(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(10, 2))
        b = rng.normal(size=(15, 2))
        stats_a = SufficientStatistics.from_points(a)
        stats_b = SufficientStatistics.from_points(b)
        stats_a.merge(stats_b)
        combined = SufficientStatistics.from_points(np.vstack([a, b]))
        assert stats_a.n == combined.n
        assert stats_a.linear_sum == pytest.approx(combined.linear_sum)
        assert stats_a.square_sum == pytest.approx(combined.square_sum)

    def test_merge_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            SufficientStatistics(dim=2).merge(SufficientStatistics(dim=3))

    def test_mean_is_ls_over_n(self):
        stats = SufficientStatistics.from_points(
            np.array([[0.0, 0.0], [2.0, 4.0]])
        )
        assert stats.mean() == pytest.approx([1.0, 2.0])

    def test_mean_of_empty_raises(self):
        with pytest.raises(EmptyBubbleError):
            SufficientStatistics(dim=2).mean()

    def test_clear(self):
        bubbles = bubble_rows(2, count=2)
        bubbles.absorb(np.ones((5, 2)), [0, 0, 0, 1, 1])
        bubbles.clear([0])
        assert bubbles.counts().tolist() == [0, 2]
        assert (bubbles.statistics()[1][0] == 0.0).all()
        assert bubbles.statistics()[2][0] == 0.0

    def test_copy_is_independent(self):
        # A bubble's ``stats`` is a snapshot: neither side sees the
        # other's later changes.
        bubbles = bubble_rows(2)
        bubbles.absorb(np.ones((5, 2)), owners(np.ones((5, 2))))
        snapshot = bubbles[0].stats
        snapshot.insert(np.array([9.0, 9.0]))
        bubbles.absorb(np.ones((2, 2)), [0, 0])
        assert bubbles[0].n == 7
        assert snapshot.n == 6

    def test_linear_sum_view_is_readonly(self):
        stats = SufficientStatistics.from_points(np.ones((2, 2)))
        with pytest.raises(ValueError):
            stats.linear_sum[0] = 99.0
