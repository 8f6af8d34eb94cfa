"""The seed matrix :class:`AssignerCache` keeps across batches.

The keeper holds exact distances ``D0`` between base representatives
``R0``, each row's drift ``δ_i = ‖r_i − R0_i‖`` and the Lemma 1 bounds
``L = D0 − (δ_i + δ_j)``. These tests pin its invariants after every
``get`` over random mutation schedules, and that maintainers pruning on
it end in the same summary as maintainers rebuilding an exact matrix on
every call, at under half the distances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import BubbleBuilder, BubbleConfig, PointStore, UpdateBatch
from repro.core import (
    AdaptiveMaintainer,
    AssignerCache,
    BubbleSet,
    MaintenanceConfig,
)
from repro.geometry import DistanceCounter
from repro.geometry.distance import row_norms


def exact_distances(points: np.ndarray) -> np.ndarray:
    """All pairwise distances, each from its own coordinate differences."""
    diffs = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))


def check_kept_state(cache: AssignerCache, reps: np.ndarray) -> None:
    """The keeper's invariants against the representatives it just saw.

    The full rebuild uses ``pairwise``'s norm trick, which rounds to
    within about ``sqrt(eps)·‖x‖`` of the exact distance (two points at
    the same spot can read 1e-6 apart at ‖x‖ ≈ 50), so ``D0`` and ``L``
    are compared with the exact distances up to ``1e-7·(1 + max ‖x‖)``.
    """
    base, dists = cache._base, cache._base_dists
    drift, lower = cache._drift, cache._lower
    tol = 1e-7 * (1.0 + float(np.abs(np.vstack([base, reps])).max()))
    assert np.array_equal(lower, lower.T)
    assert np.array_equal(lower, dists - np.add.outer(drift, drift))
    # A row's drift is its distance from its base, whenever it moved.
    assert np.array_equal(drift, row_norms(reps - base))
    assert np.abs(dists - exact_distances(base)).max() <= tol
    assert (lower <= exact_distances(reps) + tol).all()
    assert np.array_equal(cache._last, reps)


OPS = st.sampled_from(["absorb", "nudge", "release", "clear", "reseed", "add"])


class TestKeptMatrixInvariants:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        dim=st.integers(1, 4),
        start=st.integers(2, 7),
        ops=st.lists(
            st.tuples(OPS, st.integers(0, 2**31 - 1)),
            min_size=1,
            max_size=20,
        ),
        subset=st.booleans(),
    )
    def test_bounds_hold_after_every_get(self, dim, start, ops, subset):
        rng = np.random.default_rng(start * 1000 + dim)
        bubbles = BubbleSet(PointStore(dim=dim))
        held: list[list[np.ndarray]] = []
        for seed in rng.uniform(-20.0, 20.0, size=(start, dim)):
            bubbles.add_bubble(seed)
            held.append([])
        cache = AssignerCache()
        counter = DistanceCounter()
        cache.get(bubbles, counter)
        check_kept_state(cache, bubbles.reps())

        for op, draw in ops:
            op_rng = np.random.default_rng(draw)
            num = len(bubbles)
            b = int(op_rng.integers(num))
            if op in ("absorb", "nudge"):
                # A nudge stays well inside a quarter of the nearest-seed
                # distance (no rebase); an absorb may move the rep anywhere.
                scale = 1e-3 if op == "nudge" else 15.0
                centre = bubbles.reps([b])[0]
                points = centre + op_rng.normal(size=(3, dim)) * scale
                bubbles.absorb(points, [b] * 3)
                held[b].extend(points)
            elif op == "release" and held[b]:
                points = np.array(held[b][-2:])
                del held[b][-2:]
                bubbles.release(points, [b] * points.shape[0])
            elif op == "clear":
                bubbles.clear([b])
                held[b] = []
            elif op == "reseed" and not held[b]:
                bubbles.reseed(b, op_rng.uniform(-20.0, 20.0, size=dim))
            elif op == "add":
                bubbles.add_bubble(op_rng.uniform(-20.0, 20.0, size=dim))
                held.append([])

            misses, matrix, computed = (
                cache.misses,
                cache.matrix_computed,
                counter.computed,
            )
            ids = None
            if subset and len(bubbles) > 2:
                ids = np.sort(
                    op_rng.choice(len(bubbles), size=2, replace=False)
                )
            assigner = cache.get(bubbles, counter, active_ids=ids)
            reps = bubbles.reps()
            check_kept_state(cache, reps)
            # Every distance the keeper spent went to the shared counter;
            # only a change of K rebuilt.
            assert counter.computed - computed == (
                cache.matrix_computed - matrix
            )
            assert cache.misses - misses == int(op == "add")
            if ids is None:
                assert assigner._seed_dists is cache._lower
                assert np.array_equal(assigner.locations, reps)
            else:
                assert np.array_equal(
                    assigner._seed_dists, cache._lower[np.ix_(ids, ids)]
                )
                assert np.array_equal(assigner.locations, reps[ids])

    def test_nudge_costs_one_distance_per_moved_row(self):
        bubbles = BubbleSet(PointStore(dim=2))
        for seed in np.arange(10.0).reshape(5, 2) * 3.0:
            bubbles.add_bubble(seed)
        cache, counter = AssignerCache(), DistanceCounter()
        cache.get(bubbles, counter)
        assert counter.computed == 10
        reps = bubbles.reps()
        bubbles.absorb(reps[[1, 3]] + 0.01, [1, 3])
        cache.get(bubbles, counter)
        assert counter.computed == 12
        assert cache._drift[[1, 3]].tolist() == pytest.approx(
            [0.01 * 2**0.5] * 2
        )

    def test_far_moves_rebase_their_rows(self):
        # Rows 1 and 3 move far: each costs its drift plus K − 1
        # distances against the bases, the pair between them once.
        bubbles = BubbleSet(PointStore(dim=2))
        for seed in np.arange(12.0).reshape(6, 2) * 3.0:
            bubbles.add_bubble(seed)
        cache, counter = AssignerCache(), DistanceCounter()
        cache.get(bubbles, counter)
        assert counter.computed == 15
        reps = bubbles.reps()
        bubbles.absorb(reps[[1, 3]] + 40.0, [1, 3])
        cache.get(bubbles, counter)
        assert counter.computed == 15 + 2 + (2 * 5 - 1)
        assert cache._drift.tolist() == [0.0] * 6
        assert np.array_equal(cache._base, bubbles.reps())
        check_kept_state(cache, bubbles.reps())

    def test_naive_and_single_location_leave_the_keeper_alone(self):
        bubbles = BubbleSet(PointStore(dim=2))
        for seed in np.eye(2) * 4.0:
            bubbles.add_bubble(seed)
        cache, counter = AssignerCache(), DistanceCounter()
        naive = cache.get(bubbles, counter, use_triangle_inequality=False)
        single = cache.get(bubbles, counter, active_ids=[1])
        assert type(naive).__name__ == type(single).__name__ == (
            "NaiveAssigner"
        )
        assert (cache.hits, cache.misses, counter.computed) == (2, 0, 0)
        assert cache._lower is None


class _RebuildEveryGet(AssignerCache):
    """The exact-matrix reference: an empty keeper on every call."""

    def get(self, *args, **kwargs):
        self.invalidate()
        return super().get(*args, **kwargs)


def _drifting_points(rng, dim, centres, count, t):
    """``count`` points around drifting ``centres``, plus 5% noise."""
    shift = np.zeros(dim)
    shift[0] = 0.15 * t
    labels = rng.integers(len(centres), size=count)
    points = centres[labels] + shift + rng.normal(size=(count, dim))
    noise = rng.random(count) < 0.05
    points[noise] = rng.uniform(-15.0, 15.0, size=(int(noise.sum()), dim))
    return points


def _run_stream(dim: int, rebuild_every_get: bool):
    """A maintainer of 80 bubbles fed 32-point micro-batches: drift and an
    appearing cluster (splits and merges), a deletion-heavy phase
    (bubbles retire), then regrowth (retired bubbles revive and new ones
    are added)."""
    rng = np.random.default_rng(40 + dim)
    centres = rng.uniform(-10.0, 10.0, size=(4, dim))
    store = PointStore(dim=dim)
    store.insert(_drifting_points(rng, dim, centres, 2400, 0))
    bubbles = BubbleBuilder(BubbleConfig(num_bubbles=80, seed=3)).build(
        store
    )
    counter = DistanceCounter()
    maintainer = AdaptiveMaintainer(
        bubbles,
        store,
        points_per_bubble=30,
        config=MaintenanceConfig(seed=5),
        counter=counter,
    )
    if rebuild_every_get:
        maintainer._assigner_cache = _RebuildEveryGet()
    rebuilt = 0
    appearing = np.full(dim, 18.0)

    def apply(deletions, insertions):
        nonlocal rebuilt
        report = maintainer.apply_batch(
            UpdateBatch(
                deletions=tuple(int(i) for i in deletions),
                insertions=insertions,
                insertion_labels=tuple([0] * insertions.shape[0]),
            )
        )
        rebuilt += report.num_rebuilt

    for t in range(1, 25):
        points = _drifting_points(rng, dim, centres, 32, t)
        if t > 8:
            points[:8] = appearing + rng.normal(size=(8, dim))
        apply(store.ids()[:32], points)
    for _ in range(6):
        apply(store.ids()[:250], np.empty((0, dim)))
    retired_peak = len(maintainer.retired_ids)
    for t in range(25, 37):
        apply((), _drifting_points(rng, dim, centres, 200, t))
    return maintainer, counter.computed, rebuilt, retired_peak


class TestKeptMatrixMaintainer:
    @pytest.mark.parametrize("dim", [2, 8])
    def test_same_summary_at_under_half_the_distances(self, dim):
        kept, kept_computed, rebuilt, retired = _run_stream(dim, False)
        exact, exact_computed, _, _ = _run_stream(dim, True)
        # The stream exercises what it is meant to: splits and merges,
        # retirements, and growth past the bootstrap count.
        assert rebuilt > 0
        assert retired > 0
        assert len(kept.bubbles) > 80
        assert kept.assigner_cache.hits > 0

        ids = kept.store.ids()
        assert np.array_equal(ids, exact.store.ids())
        assert np.array_equal(
            kept.store.owners_of(ids), exact.store.owners_of(ids)
        )
        for ours, theirs in zip(
            kept.bubbles.statistics(), exact.bubbles.statistics()
        ):
            assert ours.tobytes() == theirs.tobytes()
        assert kept.bubbles.seeds().tobytes() == (
            exact.bubbles.seeds().tobytes()
        )
        assert kept.retired_ids == exact.retired_ids
        assert kept.rng_state == exact.rng_state
        assert kept_computed <= 0.5 * exact_computed
