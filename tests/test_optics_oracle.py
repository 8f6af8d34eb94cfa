"""Oracle test: OPTICS against an independent brute-force implementation.

The production engine replaces the lazy-deletion heap with flat arrays
and vectorised updates; this reference implementation follows the
textbook pseudocode with an O(n²) linear scan per step and no shared
code. It works on a distance matrix and a core-distance vector, so it
can check the engine twice over:

* on Gaussian points through :class:`PointOptics`, where the engine
  computes its own distances (agreement up to float rounding), and
* on small integer-grid matrices through both entry points of the walk
  — :func:`run_optics` over callbacks and :class:`OpticsWalk` over the
  whole matrix, as the cluster cache runs it — where ties are everywhere
  and ordering, reachability and cores must be bit-equal. That pins the
  heap's tie rule — smallest reachability, then the earliest last
  improving push — independently of the engine, which a
  cold-versus-incremental comparison cannot do (both sides run the same
  walk).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.clustering import OpticsWalk, PointOptics, run_optics


def reference_optics(
    dist: np.ndarray, cores: np.ndarray, eps: float = np.inf
) -> tuple[list[int], list[float]]:
    """Textbook OPTICS over a distance matrix and a core-distance vector.

    Linear-scan seed list, no heap, no vectorisation.
    """
    num = len(dist)
    processed = [False] * num
    reachability = [np.inf] * num
    ordering: list[int] = []
    order_reach: list[float] = []
    push_counter = 0

    def update_seeds(center: int, seeds: dict[int, tuple[float, int]]) -> None:
        # Reachability ties are COMMON (any neighbour within the center's
        # core distance gets reachability == that core distance), so the
        # reference replicates the heap's tie-break exactly: among equal
        # reachabilities, the earliest last improvement push wins
        # (ascending object index within one expansion).
        nonlocal push_counter
        core = float(cores[center])
        if not np.isfinite(core):
            return
        for other in range(num):
            if processed[other]:
                continue
            d = float(dist[center, other])
            if d > eps:
                continue
            new_reach = max(core, d)
            if new_reach < reachability[other]:
                reachability[other] = new_reach
                push_counter += 1
                seeds[other] = (new_reach, push_counter)

    for start in range(num):
        if processed[start]:
            continue
        processed[start] = True
        ordering.append(start)
        order_reach.append(np.inf)
        seeds: dict[int, tuple[float, int]] = {}
        update_seeds(start, seeds)
        while seeds:
            nxt = min(seeds, key=lambda k: seeds[k])
            seeds.pop(nxt)
            processed[nxt] = True
            ordering.append(nxt)
            order_reach.append(reachability[nxt])
            update_seeds(nxt, seeds)
    return ordering, order_reach


def point_instance(
    points: np.ndarray, min_pts: int, eps: float = np.inf
) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean distance matrix and textbook core distances of points."""
    num = len(points)
    dist = np.array(
        [
            [float(np.linalg.norm(points[i] - points[j])) for j in range(num)]
            for i in range(num)
        ]
    )
    cores = np.full(num, np.inf)
    for i in range(num):
        within = sorted(d for d in dist[i] if d <= eps)
        if len(within) >= min_pts:
            cores[i] = within[min_pts - 1]
    return dist, cores


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("min_pts", [2, 4, 7])
def test_engine_matches_reference(seed, min_pts):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(40, 2)) * 7.0
    plot = PointOptics(min_pts=min_pts).fit(points)
    ref_order, ref_reach = reference_optics(
        *point_instance(points, min_pts)
    )
    assert plot.ordering.tolist() == ref_order
    finite_ours = np.asarray(plot.reachability)
    finite_ref = np.asarray(ref_reach)
    both_finite = np.isfinite(finite_ours) & np.isfinite(finite_ref)
    assert (np.isfinite(finite_ours) == np.isfinite(finite_ref)).all()
    assert finite_ours[both_finite] == pytest.approx(
        finite_ref[both_finite], rel=1e-9
    )


def test_engine_matches_reference_with_finite_eps():
    rng = np.random.default_rng(9)
    points = np.vstack(
        [
            rng.normal([0, 0], 0.5, size=(20, 2)),
            rng.normal([30, 0], 0.5, size=(20, 2)),
        ]
    )
    plot = PointOptics(min_pts=3, eps=2.0).fit(points)
    ref_order, ref_reach = reference_optics(
        *point_instance(points, 3, eps=2.0), eps=2.0
    )
    assert plot.ordering.tolist() == ref_order
    ours = np.asarray(plot.reachability)
    ref = np.asarray(ref_reach)
    assert (np.isfinite(ours) == np.isfinite(ref)).all()
    mask = np.isfinite(ours)
    assert ours[mask] == pytest.approx(ref[mask], rel=1e-9)


@st.composite
def tie_heavy_instances(draw):
    """A symmetric integer-grid matrix split into components, with cores.

    Distances take at most four values, so reachabilities tie all the
    time; pairs in different components are ``inf`` apart; some objects
    are not core (``inf``, ``nan`` or ``-inf``).
    """
    num = draw(st.integers(1, 20))
    raw = draw(
        hnp.arrays(np.int64, (num, num), elements=st.integers(0, 3))
    )
    dist = np.minimum(raw, raw.T).astype(np.float64)
    np.fill_diagonal(dist, 0.0)
    component = draw(
        hnp.arrays(np.int64, num, elements=st.integers(0, 2))
    )
    dist[component[:, None] != component[None, :]] = np.inf
    cores = draw(
        hnp.arrays(
            np.float64,
            num,
            elements=st.sampled_from(
                [0.0, 1.0, 2.0, 3.0, np.inf, np.nan, -np.inf]
            ),
        )
    )
    eps = draw(st.sampled_from([np.inf, 1.0, 2.0]))
    return dist, cores, eps


def assert_matches_reference(plot, dist, cores, eps):
    ref_order, ref_reach = reference_optics(dist, cores, eps)
    assert plot.ordering.tolist() == ref_order
    assert plot.ordering.dtype == np.int64
    assert np.array_equal(plot.reachability, np.asarray(ref_reach))
    assert plot.core_distances.tobytes() == cores.tobytes()
    # The plot owns its cores: a caller that updates its core vector in
    # place (the cluster cache's repair does) leaves the plot alone.
    assert not np.shares_memory(plot.core_distances, cores)


@settings(max_examples=300, deadline=None)
@given(tie_heavy_instances())
def test_run_optics_matches_reference_bitwise_under_ties(instance):
    dist, cores, eps = instance
    plot = run_optics(
        len(dist), lambda i: dist[i], lambda i, d: float(cores[i]), eps=eps
    )
    assert_matches_reference(plot, dist, cores, eps)


@settings(max_examples=300, deadline=None)
@given(tie_heavy_instances())
def test_matrix_walk_matches_reference_bitwise_under_ties(instance):
    """The matrix form the cluster cache walks: every reach row at once,
    over the complete ordering."""
    dist, cores, _ = instance
    dist_before, cores_before = dist.copy(), cores.copy()
    plot = OpticsWalk(dist, cores).run()
    assert plot.core_distances is not cores
    assert_matches_reference(plot, dist, cores, np.inf)
    # The walk reads its inputs and never writes them.
    assert dist.tobytes() == dist_before.tobytes()
    assert cores.tobytes() == cores_before.tobytes()
