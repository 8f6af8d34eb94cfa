"""Unit tests for the shared OPTICS engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import OpticsWalk, run_optics


def line_distances(positions: np.ndarray):
    """1-d objects at the given coordinates."""

    def distances_from(obj: int) -> np.ndarray:
        return np.abs(positions - positions[obj])

    return distances_from


class TestEngine:
    def test_zero_objects_rejected(self):
        with pytest.raises(ValueError):
            run_optics(0, lambda i: np.empty(0), lambda i, d: 0.0)
        with pytest.raises(ValueError):
            OpticsWalk(np.empty((0, 0)), np.empty(0))

    def test_single_object(self):
        plot = run_optics(
            1, lambda i: np.zeros(1), lambda i, d: 0.0
        )
        assert plot.ordering.tolist() == [0]
        assert np.isinf(plot.reachability[0])

    def test_walk_visits_nearest_first(self):
        positions = np.array([0.0, 1.0, 10.0, 11.0])
        plot = run_optics(
            4,
            line_distances(positions),
            lambda i, d: 0.0,  # every object is core with distance 0
        )
        # Starting at 0: nearest unprocessed chain is 1, then the far pair.
        assert plot.ordering.tolist() == [0, 1, 2, 3]
        assert plot.reachability.tolist() == pytest.approx(
            [np.inf, 1.0, 9.0, 1.0]
        )

    def test_core_distance_floors_reachability(self):
        positions = np.array([0.0, 1.0, 2.0])
        plot = run_optics(
            3,
            line_distances(positions),
            lambda i, d: 5.0,  # giant core distance everywhere
        )
        assert plot.reachability[1:].tolist() == pytest.approx([5.0, 5.0])

    def test_non_core_objects_do_not_expand(self):
        positions = np.array([0.0, 1.0, 2.0])

        def core(obj: int, dists: np.ndarray) -> float:
            return np.inf if obj == 1 else 0.0

        plot = run_optics(3, line_distances(positions), core)
        assert plot.ordering.tolist() == [0, 1, 2]
        # Object 1 was reached from 0, but could not propagate to 2 — the
        # reachability of 2 was set by 0 (distance 2), not by 1.
        assert plot.reachability[2] == pytest.approx(2.0)

    def test_disconnected_components_each_start_with_inf(self):
        positions = np.array([0.0, 1.0, 100.0, 101.0])
        plot = run_optics(
            4,
            line_distances(positions),
            lambda i, d: 0.0,
            eps=5.0,
        )
        assert np.isinf(plot.reachability).sum() == 2

    def test_reachability_values_are_max_of_core_and_distance(self):
        positions = np.array([0.0, 3.0])
        plot = run_optics(
            2, line_distances(positions), lambda i, d: 1.0
        )
        assert plot.reachability[1] == pytest.approx(3.0)

    def test_lazy_heap_updates_take_best(self):
        # A later-discovered shorter path must win: classic OPTICS update.
        positions = np.array([0.0, 10.0, 11.0, 20.0])
        plot = run_optics(
            4, line_distances(positions), lambda i, d: 0.0
        )
        order = plot.ordering.tolist()
        # 3 is reached via 2 (distance 9), not via 0 (distance 20).
        pos_of_3 = order.index(3)
        assert plot.reachability[pos_of_3] == pytest.approx(9.0)
