"""Unit tests for the structured (non-Gaussian-mixture) generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import nested_density_mixture, ring, varying_density_mixture


class TestVaryingDensity:
    def test_counts_follow_ratio(self, rng):
        points, labels = varying_density_mixture(
            rng, total=900, density_ratio=8.0
        )
        dense = int((labels == 0).sum())
        sparse = int((labels == 1).sum())
        assert dense + sparse == 900
        assert dense / sparse == pytest.approx(8.0, rel=0.05)

    def test_equal_radii(self, rng):
        points, labels = varying_density_mixture(rng, total=4000)
        spread_dense = points[labels == 0].std(axis=0).mean()
        spread_sparse = points[labels == 1].std(axis=0).mean()
        assert spread_dense == pytest.approx(spread_sparse, rel=0.15)

    def test_separation(self, rng):
        points, labels = varying_density_mixture(rng, separation=30.0)
        center_gap = np.linalg.norm(
            points[labels == 0].mean(axis=0) - points[labels == 1].mean(axis=0)
        )
        assert center_gap == pytest.approx(30.0, abs=1.0)

    def test_ratio_validated(self, rng):
        with pytest.raises(ValueError):
            varying_density_mixture(rng, density_ratio=1.0)

    def test_seed_allocation_follows_density(self, rng):
        """The Section 4.1 point, made concrete: random seed sampling (the
        behaviour the β measure preserves) allocates bubbles proportionally
        to density — the dense region gets many more bubbles than the
        equal-volume sparse one, so its substructure stays resolvable."""
        from repro import BubbleBuilder, BubbleConfig, PointStore
        from repro.core import BetaQuality, BubbleClass

        points, labels = varying_density_mixture(
            rng, total=4_000, density_ratio=15.0
        )
        store = PointStore(dim=2)
        store.insert(points, labels)
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=30, seed=0)).build(
            store
        )
        sparse_bubbles = [
            b.bubble_id
            for b in bubbles
            if b.n
            and (store.labels_of(store.owned_by(b.bubble_id)) == 1).mean()
            > 0.5
        ]
        dense_bubbles = [
            b.bubble_id
            for b in bubbles
            if b.n
            and (store.labels_of(store.owned_by(b.bubble_id)) == 0).mean()
            > 0.5
        ]
        assert len(dense_bubbles) >= 5 * max(len(sparse_bubbles), 1)
        # Per-bubble point loads stay comparable across regions (the β
        # distribution is what keeps them so).
        betas = bubbles.betas(store.size)
        report = BetaQuality(0.9).classify(bubbles, store.size)
        assert report.classes.count(BubbleClass.OVER_FILLED) <= 2
        assert betas.sum() == pytest.approx(1.0)


class TestNestedDensity:
    def test_counts_and_labels(self, rng):
        points, labels = nested_density_mixture(rng, parent=300, child=100)
        assert points.shape == (400, 2)
        assert int((labels == 1).sum()) == 100

    def test_child_is_denser(self, rng):
        points, labels = nested_density_mixture(rng)
        child_spread = points[labels == 1].std(axis=0).mean()
        parent_spread = points[labels == 0].std(axis=0).mean()
        assert child_spread < parent_spread / 5.0

    def test_child_inside_parent_region(self, rng):
        points, labels = nested_density_mixture(rng, parent_std=6.0)
        child_center = points[labels == 1].mean(axis=0)
        parent_center = points[labels == 0].mean(axis=0)
        assert np.linalg.norm(child_center - parent_center) < 2.5 * 6.0

    def test_optics_sees_nested_valley(self, rng):
        """The hierarchical claim: the dense child forms a deeper valley
        inside the parent's valley, recoverable at some dendrogram cut."""
        from repro.clustering import PointOptics, extract_candidates

        points, labels = nested_density_mixture(
            rng, parent=600, child=300, parent_std=6.0, child_std=0.3
        )
        plot = PointOptics(min_pts=10).fit(points)
        candidates = extract_candidates(plot.reachability, min_size=100)
        best_child_purity = 0.0
        for start, end in candidates:
            members = plot.ordering[start:end]
            best_child_purity = max(
                best_child_purity, float((labels[members] == 1).mean())
            )
        assert best_child_purity > 0.9


class TestRing:
    def test_radius_distribution(self, rng):
        points, labels = ring(rng, count=3000, radius=10.0, thickness=0.5)
        radii = np.linalg.norm(points, axis=1)
        assert radii.mean() == pytest.approx(10.0, abs=0.15)
        assert radii.std() == pytest.approx(0.5, abs=0.1)
        assert (labels == 0).all()

    def test_center_and_label(self, rng):
        points, labels = ring(
            rng, count=500, center=(5.0, -5.0), label=7
        )
        assert points.mean(axis=0) == pytest.approx([5.0, -5.0], abs=0.8)
        assert (labels == 7).all()

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            ring(rng, radius=0.0)
        with pytest.raises(ValueError):
            ring(rng, thickness=-1.0)

    def test_dbscan_keeps_ring_together(self, rng):
        """Non-convex shape: density-based methods keep the annulus whole
        (the k-means-vs-density motivation of Section 1)."""
        from repro.clustering import DBSCAN

        points, _ = ring(rng, count=1500, radius=10.0, thickness=0.3)
        labels = DBSCAN(eps=1.5, min_pts=5).fit(points)
        values, counts = np.unique(labels[labels >= 0], return_counts=True)
        assert counts.max() > 1400  # one dominant connected cluster
