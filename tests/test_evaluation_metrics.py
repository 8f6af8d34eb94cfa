"""Unit tests for compactness, ARI / contingency, and run summaries."""

from __future__ import annotations

import numpy as np
import pytest

from repro import BubbleBuilder, BubbleConfig
from repro.evaluation import (
    adjusted_rand_index,
    bubble_compactness,
    compactness,
    compactness_from_points,
    contingency_table,
    summarize,
)
from repro.sufficient import SufficientStatistics


class TestCompactness:
    def test_closed_form_matches_brute_force(self, rng):
        points = rng.normal(size=(100, 3))
        stats = SufficientStatistics.from_points(points)
        mean = points.mean(axis=0)
        expected = float(((points - mean) ** 2).sum())
        assert bubble_compactness(stats) == pytest.approx(expected, rel=1e-9)

    def test_empty_bubble_contributes_zero(self):
        assert bubble_compactness(SufficientStatistics(dim=2)) == 0.0

    def test_summary_total_matches_pointwise(
        self, populated_store, built_bubbles
    ):
        fast = compactness(built_bubbles)
        slow = compactness_from_points(built_bubbles, populated_store)
        assert fast == pytest.approx(slow, rel=1e-9)

    def test_tighter_summary_has_lower_compactness(self, populated_store):
        few = BubbleBuilder(BubbleConfig(num_bubbles=4, seed=0)).build(
            populated_store
        )
        few_value = compactness(few)
        many = BubbleBuilder(BubbleConfig(num_bubbles=40, seed=0)).build(
            populated_store
        )
        many_value = compactness(many)
        assert many_value < few_value


class TestContingencyAndAri:
    def test_contingency_counts(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([0, 1, 1, 1])
        table, values_a, values_b = contingency_table(a, b)
        assert values_a.tolist() == [0, 1]
        assert values_b.tolist() == [0, 1]
        assert table.tolist() == [[1, 1], [0, 2]]

    def test_contingency_shape_mismatch(self):
        with pytest.raises(ValueError):
            contingency_table(np.array([0]), np.array([0, 1]))

    def test_ari_identical(self):
        labels = np.array([0, 0, 1, 1, 2])
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)

    def test_ari_relabeled(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([7, 7, 3, 3])
        assert adjusted_rand_index(a, b) == pytest.approx(1.0)

    def test_ari_independent_is_near_zero(self, rng):
        a = rng.integers(0, 5, size=5000)
        b = rng.integers(0, 5, size=5000)
        assert abs(adjusted_rand_index(a, b)) < 0.02

    def test_ari_symmetry(self, rng):
        a = rng.integers(0, 3, size=200)
        b = rng.integers(0, 4, size=200)
        assert adjusted_rand_index(a, b) == pytest.approx(
            adjusted_rand_index(b, a)
        )

    def test_ari_trivial_cases(self):
        assert adjusted_rand_index(np.array([0]), np.array([0])) == 1.0


class TestSummarize:
    def test_mean_and_std(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == pytest.approx(2.5)
        assert summary.std == pytest.approx(np.std([1, 2, 3, 4]))
        assert summary.count == 4
        assert summary.values == (1.0, 2.0, 3.0, 4.0)

    def test_single_value(self):
        summary = summarize([7.0])
        assert summary.mean == 7.0
        assert summary.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_format(self):
        summary = summarize([1.0, 3.0])
        assert format(summary, ".1f") == "2.0 ± 1.0"
        assert "±" in format(summary)
