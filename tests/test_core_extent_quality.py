"""Unit tests for the extent-based baseline quality measure."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PointStore
from repro.core import BubbleClass, BubbleSet, ExtentQuality
from repro.exceptions import InvalidConfigError


def bubble_set_with_extents(spreads: list[float]) -> BubbleSet:
    """One bubble per requested spread (two points ``spread`` apart)."""
    bubbles = BubbleSet(PointStore(dim=2))
    for spread in spreads:
        bubble = bubbles.add_bubble(np.zeros(2))
        bubble.absorb(np.array([0.0, 0.0]))
        bubble.absorb(np.array([spread, 0.0]))
    return bubbles


class TestExtentQuality:
    def test_values_are_extents(self):
        bubbles = bubble_set_with_extents([1.0, 2.0, 3.0])
        report = ExtentQuality(0.9).classify(bubbles, database_size=6)
        assert report.values == pytest.approx(bubbles.extents())

    def test_wide_bubble_flagged(self):
        spreads = [1.0] * 60 + [50.0]
        bubbles = bubble_set_with_extents(spreads)
        report = ExtentQuality(0.9).classify(bubbles, database_size=122)
        assert report.classes[-1] is BubbleClass.OVER_FILLED

    def test_blind_to_point_count(self):
        # The core failure mode of Figure 7: a bubble with far more points
        # but the same spatial extent is NOT flagged by the extent measure.
        # Note: with k = sqrt(10), a lone outlier among B bubbles can only
        # be flagged when (B-1)/sqrt(B) > k, i.e. B >= 13 — hence 20
        # bubbles here (the paper's summaries use far more).
        bubbles = BubbleSet(PointStore(dim=2))
        pid = 0
        rng = np.random.default_rng(0)
        for b in range(20):
            bubble = bubbles.add_bubble(np.zeros(2))
            count = 300 if b == 0 else 10  # same extent, 30x the points
            for _ in range(count):
                bubble.absorb(rng.normal(0.0, 1.0, size=2))
                pid += 1
        report = ExtentQuality(0.9).classify(bubbles, database_size=pid)
        assert report.classes[0] is BubbleClass.GOOD

        from repro.core import BetaQuality

        beta_report = BetaQuality(0.9).classify(bubbles, database_size=pid)
        assert beta_report.classes[0] is BubbleClass.OVER_FILLED

    def test_database_size_ignored(self):
        bubbles = bubble_set_with_extents([1.0, 1.0])
        a = ExtentQuality(0.9).classify(bubbles, database_size=4)
        b = ExtentQuality(0.9).classify(bubbles, database_size=4000)
        assert a.values == pytest.approx(b.values)
        assert a.classes == b.classes

    def test_probability_validated(self):
        with pytest.raises(InvalidConfigError):
            ExtentQuality(0.0)
