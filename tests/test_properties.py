"""Property-based tests (hypothesis) for the core invariants.

The invariants under test are the ones the whole scheme rests on:

* sufficient statistics are exactly additive/reversible;
* the extent/nnDist derivations agree with brute force on arbitrary data;
* the triangle-inequality assigner NEVER disagrees with the naive scan —
  Lemma 1 must be airtight or every downstream structure silently skews;
* compactness from statistics equals compactness from coordinates;
* an arbitrary interleaving of insert/delete batches preserves the
  bubble-membership partition and the count identity Σn_i = N;
* the Chebyshev classifier's boundaries always contain the mean and its
  classes partition the bubbles.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import (
    BubbleBuilder,
    BubbleConfig,
    IncrementalMaintainer,
    MaintenanceConfig,
    PointStore,
    UpdateBatch,
)
from repro.core import (
    BubbleSet,
    NaiveAssigner,
    TriangleInequalityAssigner,
    classify_values,
    verify_consistency,
)
from repro.evaluation import compactness, compactness_from_points
from repro.sufficient import SufficientStatistics, extent, nn_dist

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def point_matrices(min_rows: int = 1, max_rows: int = 30, max_dim: int = 5):
    return st.integers(1, max_dim).flatmap(
        lambda d: hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(
                st.integers(min_rows, max_rows), st.just(d)
            ),
            elements=finite_floats,
        )
    )


class TestSufficientStatisticsProperties:
    @given(points=point_matrices(min_rows=2))
    def test_insert_remove_roundtrip(self, points):
        # A bubble row of the set: the grouped update the maintainers run.
        stats = SufficientStatistics.from_points(points[:-1])
        n, ls, ss = stats.n, stats.linear_sum.copy(), stats.square_sum
        bubbles = BubbleSet.from_arrays(
            PointStore(dim=points.shape[1]), points[:1], [n], [ls], [ss]
        )
        bubbles.absorb(points[-1:], [0])
        bubbles.release(points[-1:], [0])
        stats = bubbles[0].stats
        assert stats.n == n
        np.testing.assert_allclose(stats.linear_sum, ls, atol=1e-3, rtol=1e-9)
        assert stats.square_sum == pytest.approx(ss, abs=1e-2, rel=1e-9)

    @given(points=point_matrices(min_rows=2))
    def test_merge_equals_union(self, points):
        k = len(points) // 2
        left = SufficientStatistics.from_points(points[:k]) if k else None
        right = SufficientStatistics.from_points(points[k:])
        union = SufficientStatistics.from_points(points)
        if left is None:
            merged = right
        else:
            left.merge(right)
            merged = left
        assert merged.n == union.n
        np.testing.assert_allclose(
            merged.linear_sum, union.linear_sum, rtol=1e-9, atol=1e-6
        )

    @given(points=point_matrices(min_rows=2, max_rows=15))
    def test_extent_matches_brute_force(self, points):
        stats = SufficientStatistics.from_points(points)
        n = len(points)
        total = 0.0
        for i in range(n):
            for j in range(n):
                total += float(np.sum((points[i] - points[j]) ** 2))
        expected = np.sqrt(total / (n * (n - 1)))
        # The closed form cancels terms of order |x|^2; its absolute error
        # scales with the data magnitude (sqrt of the cancellation noise).
        scale = max(1.0, float(np.abs(points).max()))
        assert extent(stats) == pytest.approx(
            expected, rel=1e-6, abs=1e-4 * scale
        )

    @given(points=point_matrices(min_rows=2, max_rows=20), k=st.integers(1, 25))
    def test_nn_dist_bounded_by_extent(self, points, k):
        stats = SufficientStatistics.from_points(points)
        assert nn_dist(stats, k) <= extent(stats) + 1e-12


class TestAssignerEquivalence:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        data=st.data(),
        num_seeds=st.integers(2, 12),
        num_points=st.integers(1, 20),
        dim=st.integers(1, 4),
    )
    def test_pruned_assignment_equals_naive(
        self, data, num_seeds, num_points, dim
    ):
        seeds = data.draw(
            hnp.arrays(
                dtype=np.float64,
                shape=(num_seeds, dim),
                elements=st.floats(-100, 100),
            )
        )
        points = data.draw(
            hnp.arrays(
                dtype=np.float64,
                shape=(num_points, dim),
                elements=st.floats(-100, 100),
            )
        )
        naive = NaiveAssigner(seeds)
        pruned = TriangleInequalityAssigner(
            seeds, rng=np.random.default_rng(0)
        )
        for point in points:
            a = naive.assign(point)
            b = pruned.assign(point)
            # Ties may resolve differently; distances must match exactly.
            da = np.linalg.norm(seeds[a] - point)
            db = np.linalg.norm(seeds[b] - point)
            assert db == pytest.approx(da, rel=1e-12, abs=1e-12)


class TestMaintenanceInvariants:
    @settings(
        deadline=None,
        max_examples=20,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10_000),
        batch_plan=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)),
            min_size=1,
            max_size=5,
        ),
    )
    def test_partition_preserved_under_arbitrary_batches(
        self, seed, batch_plan
    ):
        rng = np.random.default_rng(seed)
        store = PointStore(dim=2)
        store.insert(rng.normal(size=(120, 2)) * 10.0)
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=8, seed=seed)).build(
            store
        )
        maintainer = IncrementalMaintainer(
            bubbles, store, MaintenanceConfig(seed=seed)
        )
        for num_del, num_ins in batch_plan:
            alive = store.ids()
            num_del = min(num_del, alive.size - 1)
            deletions = tuple(
                int(i)
                for i in rng.choice(alive, size=num_del, replace=False)
            )
            insertions = rng.normal(size=(num_ins, 2)) * 10.0
            maintainer.apply_batch(
                UpdateBatch(
                    deletions=deletions,
                    insertions=insertions,
                    insertion_labels=tuple([0] * num_ins),
                )
            )
            assert verify_consistency(bubbles, store).ok
            assert bubbles.total_points == store.size
            # Compactness derived from statistics must agree with raw
            # coordinates after every kind of mutation.
            assert compactness(bubbles) == pytest.approx(
                compactness_from_points(bubbles, store), rel=1e-6, abs=1e-5
            )


class TestChebyshevClassifierProperties:
    @given(
        values=hnp.arrays(
            dtype=np.float64,
            shape=st.integers(1, 60),
            elements=st.floats(0, 1),
        ),
        probability=st.floats(0.5, 0.99),
    )
    def test_classes_partition_and_bounds_contain_mean(
        self, values, probability
    ):
        report = classify_values(values, probability)
        assert len(report.classes) == len(values)
        assert report.lower <= report.mean <= report.upper
        ids = (
            set(report.good_ids)
            | set(report.under_filled_ids)
            | set(report.over_filled_ids)
        )
        assert ids == set(range(len(values)))

    @given(
        values=hnp.arrays(
            dtype=np.float64,
            shape=st.integers(2, 60),
            elements=st.floats(0, 1),
        )
    )
    def test_higher_probability_flags_fewer_outliers(self, values):
        loose = classify_values(values, 0.8)
        tight = classify_values(values, 0.99)
        loose_outliers = len(loose.under_filled_ids) + len(
            loose.over_filled_ids
        )
        tight_outliers = len(tight.under_filled_ids) + len(
            tight.over_filled_ids
        )
        assert tight_outliers <= loose_outliers
