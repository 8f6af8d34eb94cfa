"""End-to-end integration tests across the whole pipeline.

These drive realistic (small) versions of the paper's workflows through
the public API only: build → maintain over a dynamic stream → cluster →
extract → score, plus the headline comparisons each evaluation artifact
rests on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BubbleBuilder,
    BubbleConfig,
    CompleteRebuildMaintainer,
    IncrementalMaintainer,
    MaintenanceConfig,
    PointStore,
)
from repro.clustering import BubbleOptics, PointOptics, extract_cluster_tree
from repro.core import verify_consistency
from repro.data import UpdateStream, apply_raw, clone_batch_for, make_scenario
from repro.evaluation import adjusted_rand_index, fscore_from_labels
from repro.experiments import ExperimentConfig, run_comparison, score_summary


class TestFullPipeline:
    def test_summarized_clustering_matches_point_clustering(self, rng):
        """OPTICS on bubbles must recover the same clusters as OPTICS on
        the raw points for clean, well-separated data."""
        points = np.vstack(
            [
                rng.normal([0, 0], 0.3, size=(400, 2)),
                rng.normal([15, 0], 0.3, size=(400, 2)),
                rng.normal([7, 13], 0.3, size=(400, 2)),
            ]
        )
        truth = np.repeat([0, 1, 2], 400)
        store = PointStore(dim=2)
        store.insert(points, truth)

        # Point-level clustering (the reference).
        plot = PointOptics(min_pts=10).fit(points)
        tree = extract_cluster_tree(plot.reachability, min_size=100)
        point_labels = np.full(len(points), -1, dtype=np.int64)
        for i, leaf in enumerate(tree.leaves()):
            point_labels[plot.ordering[leaf.start : leaf.end]] = i
        point_f = fscore_from_labels(truth, point_labels).overall

        # Bubble-level clustering of the same database.
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=30, seed=0)).build(
            store
        )
        config = ExperimentConfig(min_pts=30, min_cluster_size=0.05)
        bubble_f, _ = score_summary(bubbles, store, config)

        assert point_f > 0.9
        assert bubble_f > 0.9
        assert abs(point_f - bubble_f) < 0.1

    def test_incremental_tracks_appearing_cluster(self, rng):
        """The headline behaviour: after a new cluster appears, the
        incrementally maintained summary clusters as well as a from-scratch
        rebuild."""
        config = ExperimentConfig(
            scenario="appear",
            dim=2,
            initial_size=2500,
            num_bubbles=50,
            update_fraction=0.08,
            num_batches=6,
            min_pts=25,
            seed=5,
        )
        result = run_comparison(config)
        final_inc = result.incremental.measurements[-1].fscore
        final_cmp = result.complete.measurements[-1].fscore
        assert final_inc > 0.85
        assert final_inc > final_cmp - 0.1

    def test_incremental_and_rebuild_agree_on_labels(self, rng):
        """Both summaries of the same database must induce very similar
        point partitions (high ARI between their flat clusterings)."""
        points = np.vstack(
            [
                rng.normal([0, 0], 0.4, size=(600, 2)),
                rng.normal([20, 5], 0.4, size=(600, 2)),
            ]
        )
        truth = np.repeat([0, 1], 600)
        store_a = PointStore(dim=2)
        store_a.insert(points, truth)
        store_b = PointStore(dim=2)
        store_b.insert(points, truth)

        bubbles_a = BubbleBuilder(BubbleConfig(num_bubbles=24, seed=1)).build(
            store_a
        )
        bubbles_b = BubbleBuilder(BubbleConfig(num_bubbles=24, seed=99)).build(
            store_b
        )

        def flat_labels(bubbles, store):
            result = BubbleOptics(min_pts=25).fit(bubbles)
            expanded = result.expanded()
            tree = extract_cluster_tree(expanded.reachability, min_size=120)
            from repro.clustering import majority_bubble_labels

            # Compare the two summaries at the top resolution (the root
            # split); leaf-level sub-splits legitimately differ between
            # random summaries of the same data.
            top = tree.root.children or [tree.root]
            spans = [node.span() for node in top]
            mapping = majority_bubble_labels(expanded, spans)
            owners = store.owners_of(store.ids())
            return np.array([mapping.get(int(b), -1) for b in owners])

        labels_a = flat_labels(bubbles_a, store_a)
        labels_b = flat_labels(bubbles_b, store_b)
        assert adjusted_rand_index(labels_a, labels_b) > 0.9

    def test_long_stream_stability(self):
        """Twenty batches of heavy churn: invariants hold, quality stays."""
        scenario = make_scenario("complex", dim=2, initial_size=2000, seed=7)
        store = PointStore(dim=2)
        scenario.populate(store)
        bubbles = BubbleBuilder(BubbleConfig(num_bubbles=40, seed=7)).build(
            store
        )
        maintainer = IncrementalMaintainer(
            bubbles, store, MaintenanceConfig(seed=7)
        )
        stream = UpdateStream(scenario, store, 0.1, num_batches=20)
        for batch in stream:
            maintainer.apply_batch(batch)
            assert verify_consistency(bubbles, store).ok
        assert store.size == 2000
        config = ExperimentConfig(min_pts=20, min_cluster_size=0.02)
        fscore, _ = score_summary(bubbles, store, config)
        assert fscore > 0.75

    def test_mirrored_rebuild_arm_sees_identical_database(self):
        """clone_batch_for keeps the two arms' stores logically identical."""
        scenario = make_scenario("random", dim=3, initial_size=500, seed=11)
        points, labels = scenario.initial()
        store_inc = PointStore(dim=3)
        store_inc.insert(points, labels)
        store_cmp = PointStore(dim=3)
        store_cmp.insert(points, labels)
        rebuilder = CompleteRebuildMaintainer(
            store_cmp, CompleteRebuildMaintainer.default_config(10, seed=0)
        )
        rebuilder.rebuild()
        stream = UpdateStream(scenario, store_inc, 0.2, num_batches=4)
        for batch in stream:
            mirrored = clone_batch_for(batch, store_inc, store_cmp)
            apply_raw(store_inc, batch)
            rebuilder.apply_batch(mirrored)
            _, pa, la = store_inc.snapshot()
            _, pb, lb = store_cmp.snapshot()
            assert pa == pytest.approx(pb)
            assert la.tolist() == lb.tolist()


class TestHighDimensional:
    @pytest.mark.parametrize("dim", [5, 10, 20])
    def test_pipeline_works_in_high_dimensions(self, dim):
        config = ExperimentConfig(
            scenario="random",
            dim=dim,
            initial_size=1500,
            num_bubbles=30,
            update_fraction=0.1,
            num_batches=2,
            min_pts=20,
            seed=2,
        )
        result = run_comparison(config)
        assert result.incremental.mean_fscore() > 0.8
        assert result.complete.mean_fscore() > 0.8
