"""Unit tests for reachability plot structures and expansion."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import ReachabilityPlot

INF = np.inf


def make_plot() -> ReachabilityPlot:
    return ReachabilityPlot(
        ordering=np.array([2, 0, 1], dtype=np.int64),
        reachability=np.array([INF, 0.5, 0.7]),
        core_distances=np.array([0.4, 0.6, 0.3]),
    )


class TestReachabilityPlot:
    def test_length(self):
        assert len(make_plot()) == 3

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ValueError):
            ReachabilityPlot(
                ordering=np.array([0, 1]),
                reachability=np.array([INF]),
                core_distances=np.array([0.1, 0.1]),
            )

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError):
            ReachabilityPlot(
                ordering=np.zeros((2, 2), dtype=np.int64),
                reachability=np.zeros((2, 2)),
                core_distances=np.zeros(4),
            )

    def test_finite_reachability_drops_inf(self):
        assert make_plot().finite_reachability().tolist() == [0.5, 0.7]

    def test_reachability_of(self):
        plot = make_plot()
        assert plot.reachability_of(2) == INF
        assert plot.reachability_of(0) == 0.5
        with pytest.raises(KeyError):
            plot.reachability_of(9)


class TestExpansion:
    def test_expansion_layout(self):
        plot = make_plot()
        counts = np.array([2, 3, 1])          # per object id
        virtual = np.array([0.11, 0.22, 0.33])
        expanded = plot.expand(counts, virtual)
        # Ordering is [2, 0, 1] -> blocks of sizes 1, 2, 3.
        assert len(expanded) == 6
        assert expanded.source.tolist() == [2, 0, 0, 1, 1, 1]
        assert expanded.reachability[0] == INF          # object 2's actual
        assert expanded.reachability[1] == 0.5          # object 0's actual
        assert expanded.reachability[2] == 0.11         # object 0's virtual
        assert expanded.reachability[3] == 0.7          # object 1's actual
        assert expanded.reachability[4:].tolist() == [0.22, 0.22]

    def test_zero_count_objects_still_present(self):
        plot = make_plot()
        counts = np.array([0, 1, 1])
        virtual = np.zeros(3)
        expanded = plot.expand(counts, virtual)
        assert len(expanded) == 3
        assert 0 in expanded.source.tolist()

    def test_coverage_validation(self):
        plot = make_plot()
        with pytest.raises(ValueError):
            plot.expand(np.array([1, 1]), np.array([0.1, 0.1]))


def expand_by_loop(plot, counts, virtual):
    """The per-object loop ``expand`` once ran, kept as its reference:
    a block of ``max(count, 1)`` entries per ordered object, opening at
    the object's reachability and filled with its virtual one."""
    reach_blocks, source_blocks = [], []
    for position, obj in enumerate(plot.ordering):
        count = max(int(counts[obj]), 1)
        reach = np.full(count, virtual[obj], dtype=np.float64)
        reach[0] = plot.reachability[position]
        reach_blocks.append(reach)
        source_blocks.append(np.full(count, obj, dtype=np.int64))
    return np.concatenate(reach_blocks), np.concatenate(source_blocks)


@st.composite
def plots_to_expand(draw):
    n = draw(st.integers(1, 40))
    ids = n + draw(st.integers(0, 3))
    heights = st.one_of(
        st.floats(0, 1e6, allow_nan=False), st.just(np.inf)
    )
    plot = ReachabilityPlot(
        ordering=np.asarray(draw(st.permutations(range(n))), np.int64),
        reachability=np.asarray(
            draw(st.lists(heights, min_size=n, max_size=n)), np.float64
        ),
        core_distances=np.zeros(n),
    )
    counts = np.asarray(
        draw(st.lists(st.integers(-3, 6), min_size=ids, max_size=ids)),
        np.int64,
    )
    virtual = np.asarray(
        draw(st.lists(heights, min_size=ids, max_size=ids)), np.float64
    )
    return plot, counts, virtual


class TestExpansionMatchesTheLoop:
    @settings(max_examples=200, deadline=None)
    @given(case=plots_to_expand())
    def test_bit_for_bit(self, case):
        """Zero and negative counts still give one entry per object."""
        plot, counts, virtual = case
        expanded = plot.expand(counts, virtual)
        reach, source = expand_by_loop(plot, counts, virtual)
        assert expanded.reachability.dtype == reach.dtype
        assert expanded.source.dtype == source.dtype
        assert expanded.reachability.tobytes() == reach.tobytes()
        assert expanded.source.tobytes() == source.tobytes()
