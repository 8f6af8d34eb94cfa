"""Unit tests for reachability-plot cluster extraction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.clustering import (
    clusters_at_threshold,
    extract_candidates,
    extract_cluster_tree,
    labels_from_spans,
    local_maxima,
    majority_bubble_labels,
)
from repro.clustering.extraction import _interior_average
from repro.clustering.reachability import ExpandedPlot

INF = np.inf


class TestClustersAtThreshold:
    def test_two_valleys(self):
        reach = np.array([INF, 0.1, 0.1, 0.1, 5.0, 0.1, 0.1, 0.1])
        spans = clusters_at_threshold(reach, 1.0, min_size=2)
        assert spans == [(0, 4), (4, 8)]

    def test_high_bar_starts_its_group(self):
        # The entry carrying the separation bar belongs to the following
        # group (its bar is its distance backwards).
        reach = np.array([INF, 0.1, 3.0, 0.1])
        spans = clusters_at_threshold(reach, 1.0, min_size=1)
        assert spans == [(0, 2), (2, 4)]

    def test_min_size_filters_noise_runs(self):
        reach = np.array([INF, 0.1, 0.1, 9.0, 9.0, 9.0, 0.1, 0.1])
        spans = clusters_at_threshold(reach, 1.0, min_size=2)
        # Positions 3 and 4 form singleton groups and are dropped; the
        # group starting at 5 has size 3.
        assert spans == [(0, 3), (5, 8)]
        # Short runs first, in the middle and last.
        reach = np.array([INF, 9.0, 0.1, 0.1, 9.0, 9.0, 0.1, 0.1, 9.0])
        assert clusters_at_threshold(reach, 1.0, min_size=2) == [
            (1, 4),
            (5, 8),
        ]
        assert clusters_at_threshold(reach, 1.0, min_size=1) == [
            (0, 1),
            (1, 4),
            (4, 5),
            (5, 8),
            (8, 9),
        ]

    def test_all_below_threshold_single_cluster(self):
        reach = np.array([INF, 0.1, 0.2, 0.1])
        assert clusters_at_threshold(reach, 1.0) == [(0, 4)]

    def test_empty_plot(self):
        assert clusters_at_threshold(np.empty(0), 1.0) == []


class TestLocalMaxima:
    def test_simple_peak(self):
        reach = np.array([INF, 1.0, 5.0, 1.0])
        assert local_maxima(reach) == [2]

    def test_position_zero_excluded(self):
        reach = np.array([INF, 1.0, 1.0, 1.0])
        assert 0 not in local_maxima(reach)

    def test_plateau_contributes_once(self):
        reach = np.array([INF, 1.0, 5.0, 5.0, 5.0, 1.0])
        maxima = local_maxima(reach)
        assert maxima == [4]  # last entry of the plateau

    def test_last_position_can_be_maximum(self):
        reach = np.array([INF, 1.0, 2.0, 6.0])
        assert 3 in local_maxima(reach)

    def test_monotone_plot_has_boundary_max_only(self):
        reach = np.array([INF, 1.0, 2.0, 3.0, 4.0])
        assert local_maxima(reach) == [4]


class TestExtractClusterTree:
    def test_splits_two_valleys(self):
        reach = np.concatenate(
            [[INF], np.full(9, 0.1), [5.0], np.full(9, 0.1)]
        )
        tree = extract_cluster_tree(reach, min_size=5)
        leaves = sorted(leaf.span() for leaf in tree.leaves())
        assert leaves == [(0, 10), (10, 20)]
        assert tree.root.span() == (0, 20)
        assert tree.depth == 2

    def test_nested_structure(self):
        # Big separation at 20, small separations inside the first half.
        reach = np.concatenate(
            [
                [INF], np.full(9, 0.1),
                [1.0], np.full(9, 0.1),
                [8.0], np.full(19, 0.1),
            ]
        )
        tree = extract_cluster_tree(reach, min_size=5, significance=0.75)
        assert sorted(leaf.span() for leaf in tree.leaves()) == [
            (0, 10),
            (10, 20),
            (20, 40),
        ]
        # The top split separates [0,20) from [20,40).
        top_spans = sorted(child.span() for child in tree.root.children)
        assert top_spans == [(0, 20), (20, 40)]

    def test_insignificant_bump_not_split(self):
        # A bar barely above the region's average is not a cluster split.
        reach = np.concatenate(
            [[INF], np.full(9, 1.0), [1.2], np.full(9, 1.0)]
        )
        tree = extract_cluster_tree(reach, min_size=3, significance=0.75)
        assert tree.root.is_leaf()

    def test_min_size_respected(self):
        reach = np.concatenate([[INF], np.full(3, 0.1), [9.0], np.full(20, 0.1)])
        tree = extract_cluster_tree(reach, min_size=5)
        # The left side would have size 4 < 5: no split at position 4.
        assert tree.root.is_leaf()

    def test_empty_plot_rejected(self):
        with pytest.raises(ValueError):
            extract_cluster_tree(np.empty(0))

    def test_significance_validated(self):
        with pytest.raises(ValueError):
            extract_cluster_tree(np.array([INF, 1.0]), significance=0.0)


    @settings(max_examples=300, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(0, 80),
            elements=st.one_of(
                st.floats(0.0, 1e300, allow_nan=False),
                st.just(np.inf),
            ),
        ),
        st.integers(0, 80),
        st.integers(0, 80),
    )
    @example(np.full(7, np.inf), 0, 7)
    @example(np.array([np.inf, 0.1, 0.2, 0.7]), 0, 4)
    def test_interior_average_is_the_mean_bitwise(self, reach, lo, hi):
        start = min(lo, reach.shape[0])
        end = min(max(hi, start), reach.shape[0])
        interior = reach[start + 1 : end]
        finite = interior[np.isfinite(interior)]
        expected = float(finite.mean()) if finite.size else 0.0
        assert _interior_average(reach, start, end).hex() == expected.hex()


class TestExtractCandidates:
    def test_includes_multiple_resolutions(self):
        reach = np.concatenate(
            [
                [INF], np.full(9, 0.1),
                [1.0], np.full(9, 0.1),
                [8.0], np.full(19, 0.1),
            ]
        )
        spans = extract_candidates(reach, min_size=5, num_levels=16)
        assert (0, 10) in spans      # finest resolution
        assert (10, 20) in spans
        assert (0, 20) in spans      # the merged pair at a coarser cut
        assert (20, 40) in spans

    def test_deduplicates(self):
        reach = np.array([INF] + [0.1] * 9)
        spans = extract_candidates(reach, min_size=2, num_levels=32)
        assert spans == [(0, 10)]

    def test_all_infinite_plot(self):
        spans = extract_candidates(np.array([INF, INF, INF]), min_size=1)
        assert spans == []


class TestLabelsFromSpans:
    def test_assigns_and_leaves_noise(self):
        labels = labels_from_spans(6, [(0, 2), (4, 6)])
        assert labels.tolist() == [0, 0, -1, -1, 1, 1]

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            labels_from_spans(5, [(0, 3), (2, 5)])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            labels_from_spans(3, [(0, 4)])
        with pytest.raises(ValueError):
            labels_from_spans(3, [(2, 2)])


class TestMajorityBubbleLabels:
    def test_majority_vote(self):
        expanded = ExpandedPlot(
            reachability=np.zeros(6),
            source=np.array([7, 7, 7, 8, 8, 8]),
        )
        mapping = majority_bubble_labels(expanded, [(0, 3), (3, 6)])
        assert mapping == {7: 0, 8: 1}

    def test_straddling_bubble_goes_to_majority(self):
        expanded = ExpandedPlot(
            reachability=np.zeros(5),
            source=np.array([7, 7, 8, 8, 8]),
        )
        # Span boundary cuts bubble 8? No: spans are (0,3) and (3,5); the
        # first span holds entries [7,7,8], second [8,8]. Bubble 8 has two
        # of three entries in the second span.
        mapping = majority_bubble_labels(expanded, [(0, 3), (3, 5)])
        assert mapping[7] == 0
        assert mapping[8] == 1

    def test_uncovered_bubble_is_noise(self):
        expanded = ExpandedPlot(
            reachability=np.zeros(4),
            source=np.array([1, 1, 2, 2]),
        )
        mapping = majority_bubble_labels(expanded, [(0, 2)])
        assert mapping == {1: 0, 2: -1}
