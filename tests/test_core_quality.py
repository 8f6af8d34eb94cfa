"""Unit tests for the β quality measure and Chebyshev classification."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import PointStore
from repro.core import (
    BetaQuality,
    BubbleClass,
    BubbleSet,
    chebyshev_k,
    classify_values,
)
from repro.exceptions import InvalidConfigError


class TestChebyshevK:
    def test_paper_default(self):
        # p = 0.9 → k = 1/sqrt(0.1) = sqrt(10)
        assert chebyshev_k(0.9) == pytest.approx(math.sqrt(10.0))

    def test_eighty_percent(self):
        assert chebyshev_k(0.8) == pytest.approx(math.sqrt(5.0))

    def test_monotone_in_probability(self):
        ks = [chebyshev_k(p) for p in (0.5, 0.7, 0.9, 0.99)]
        assert ks == sorted(ks)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_out_of_range(self, bad):
        with pytest.raises(InvalidConfigError):
            chebyshev_k(bad)


class TestClassifyValues:
    def test_uniform_values_all_good(self):
        report = classify_values(np.full(10, 0.1), probability=0.9)
        assert all(c is BubbleClass.GOOD for c in report.classes)
        assert report.std == 0.0

    def test_high_outlier_flagged_over_filled(self):
        values = np.array([0.01] * 50 + [0.5])
        report = classify_values(values, probability=0.9)
        assert report.classes[-1] is BubbleClass.OVER_FILLED
        assert report.over_filled_ids == (50,)

    def test_low_outlier_flagged_under_filled(self):
        # Tight mass near 1.0 with one value at 0 and enough samples that
        # the lower boundary stays positive.
        values = np.array([1.0, 1.001, 0.999] * 40 + [0.0])
        report = classify_values(values, probability=0.9)
        assert report.classes[-1] is BubbleClass.UNDER_FILLED

    def test_boundaries_formula(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        report = classify_values(values, probability=0.9)
        k = chebyshev_k(0.9)
        assert report.lower == pytest.approx(values.mean() - k * values.std())
        assert report.upper == pytest.approx(values.mean() + k * values.std())
        assert report.k == pytest.approx(k)

    def test_id_partitions_are_disjoint_and_complete(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.normal(1.0, 0.01, 100), [5.0, -3.0]])
        report = classify_values(values, probability=0.9)
        ids = (
            set(report.good_ids)
            | set(report.under_filled_ids)
            | set(report.over_filled_ids)
        )
        assert ids == set(range(len(values)))
        assert not set(report.good_ids) & set(report.over_filled_ids)

    def test_class_of(self):
        report = classify_values(np.array([0.1, 0.1, 9.9]), probability=0.9)
        assert report.class_of(0) is report.classes[0]

    def test_empty_values(self):
        report = classify_values(np.empty(0), probability=0.9)
        assert report.classes == ()


class TestBetaQuality:
    def test_beta_is_count_over_database_size(self):
        bubbles = BubbleSet(PointStore(dim=2))
        for i in range(4):
            bubbles.add_bubble(np.zeros(2))
        for pid in range(8):
            bubbles[pid % 2].absorb(np.zeros(2))
        report = BetaQuality(0.9).classify(bubbles, database_size=8)
        assert report.values == pytest.approx([0.5, 0.5, 0.0, 0.0])

    def test_over_filled_bubble_detected(self):
        bubbles = BubbleSet(PointStore(dim=2))
        for i in range(20):
            bubbles.add_bubble(np.zeros(2))
        pid = 0
        # 19 bubbles with 10 points, one with 300.
        for b in range(19):
            for _ in range(10):
                bubbles[b].absorb(np.zeros(2))
                pid += 1
        for _ in range(300):
            bubbles[19].absorb(np.zeros(2))
            pid += 1
        report = BetaQuality(0.9).classify(bubbles, database_size=pid)
        assert report.classes[19] is BubbleClass.OVER_FILLED
        assert all(
            report.classes[b] is BubbleClass.GOOD for b in range(19)
        )

    def test_probability_validated(self):
        with pytest.raises(InvalidConfigError):
            BetaQuality(1.5)

    def test_probability_accessor(self):
        assert BetaQuality(0.8).probability == 0.8
