"""Equivalence and caching tests for the batch assignment engine.

The vectorized :meth:`TriangleInequalityAssigner.assign_many` promises
*bit-identical* results to the scalar Figure 2 loop under the same RNG:
same indices, same computed/pruned totals, and the same RNG stream
position afterwards (so scalar and batch calls can interleave freely).
These tests pin that contract, plus the :class:`AssignerCache` /
``BubbleSet.version`` machinery that lets maintainers reuse one assigner
(and its O(B²) seed matrix) across batches.
"""

from __future__ import annotations

import contextlib
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PointStore
from repro.core import (
    AssignerCache,
    BubbleSet,
    TriangleInequalityAssigner,
    assignment,
)
from repro.geometry import DistanceCounter

# A batch that the lockstep tiles, _TI_TILE_ELEMENTS // B rows each,
# cut into sixteen full tiles and a short last one.
BOUNDARY_SEEDS = 1024
BOUNDARY_POINTS = (
    16 * (assignment._TI_TILE_ELEMENTS // BOUNDARY_SEEDS) + 6
)


#: Crossover values that force every row of a tile through one finish:
#: lockstep rounds to the end, or its own loop right after the first
#: probe.
FORCED_SERIAL_ROWS = {"lockstep": 0, "serial": sys.maxsize}


@contextlib.contextmanager
def forced_finish(path: str):
    """Make every row of every tile finish in lockstep, or serially."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            assignment, "_TI_SERIAL_ROWS", FORCED_SERIAL_ROWS[path]
        )
        yield


def _paired_assigners(seeds, seed=0):
    """Two TI assigners over the same seeds with identically seeded RNGs."""
    scalar = TriangleInequalityAssigner(
        seeds,
        DistanceCounter(),
        rng=np.random.default_rng(seed),
        count_setup=False,
    )
    batch = TriangleInequalityAssigner(
        seeds,
        DistanceCounter(),
        rng=np.random.default_rng(seed),
        count_setup=False,
    )
    return scalar, batch


def _scalar_loop(assigner, points):
    return np.array([assigner.assign(p) for p in points], dtype=np.int64)


class TestBatchScalarEquivalence:
    """assign_many == a scalar assign() loop, bit for bit."""

    @pytest.mark.parametrize(
        "num_points,num_seeds,dim,scale",
        [
            (1, 2, 2, 1.0),  # single point, minimal seed count
            (7, 3, 1, 5.0),  # 1-d data
            (50, 25, 3, 10.0),  # generic
            (200, 40, 2, 0.3),  # dense overlap: little pruning
            (128, 16, 8, 50.0),  # well-separated: heavy pruning
            # crosses the default tile boundary
            (BOUNDARY_POINTS, BOUNDARY_SEEDS, 2, 10.0),
        ],
    )
    def test_property_bit_identical(self, num_points, num_seeds, dim, scale):
        rng = np.random.default_rng(num_points * 31 + num_seeds)
        seeds = rng.normal(size=(num_seeds, dim)) * scale
        points = rng.normal(size=(num_points, dim)) * scale

        scalar, batch = _paired_assigners(seeds, seed=99)
        expected = _scalar_loop(scalar, points)
        actual = batch.assign_many(points)

        assert actual.tolist() == expected.tolist()
        assert batch.assign_computed == scalar.assign_computed
        assert batch.assign_pruned == scalar.assign_pruned
        assert batch.counter.computed == scalar.counter.computed
        assert batch.counter.pruned == scalar.counter.pruned
        # Same RNG stream position: further draws stay in lockstep.
        assert (
            batch._rng.bit_generator.state == scalar._rng.bit_generator.state
        )

    @given(
        num_seeds=st.integers(min_value=2, max_value=40),
        distinct=st.integers(min_value=1, max_value=39),
        dim=st.integers(min_value=1, max_value=4),
        num_points=st.integers(min_value=1, max_value=80),
        tile_rows=st.one_of(
            st.none(), st.integers(min_value=1, max_value=64)
        ),
        data_seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_ties_bit_identical(
        self, num_seeds, distinct, dim, num_points, tile_rows, data_seed
    ):
        # Duplicated seeds on a small integer grid, points on seeds and
        # at midpoints between two seeds: distances tie exactly, and the
        # Lemma 1 test meets its boundary dist(s_j, s_c) == 2 · minDist.
        rng = np.random.default_rng(data_seed)
        distinct = min(distinct, num_seeds - 1)
        base = rng.integers(-3, 4, size=(distinct, dim)).astype(np.float64)
        owners = np.concatenate(
            [
                np.arange(distinct),
                rng.integers(0, distinct, size=num_seeds - distinct),
            ]
        )
        seeds = base[rng.permutation(owners)]
        first = seeds[rng.integers(0, num_seeds, size=num_points)]
        second = seeds[rng.integers(0, num_seeds, size=num_points)]
        on_seed = rng.random(num_points) < 0.5
        points = np.where(on_seed[:, None], first, (first + second) / 2.0)

        # tile_rows rows per tile (None: the default budget), so a few
        # points still run as a multi-tile call.
        elements = (
            assignment._TI_TILE_ELEMENTS
            if tile_rows is None
            else tile_rows * num_seeds
        )
        for path in FORCED_SERIAL_ROWS:
            scalar, batch = _paired_assigners(seeds, seed=data_seed)
            expected = _scalar_loop(scalar, points)
            with forced_finish(path), pytest.MonkeyPatch.context() as patch:
                patch.setattr(assignment, "_TI_TILE_ELEMENTS", elements)
                actual = batch.assign_many(points)

            assert actual.tolist() == expected.tolist(), path
            assert batch.assign_computed == scalar.assign_computed, path
            assert batch.assign_pruned == scalar.assign_pruned, path
            assert (
                batch._rng.bit_generator.state
                == scalar._rng.bit_generator.state
            ), path

    def test_clustered_data_heavy_pruning(self):
        rng = np.random.default_rng(5)
        seeds = np.vstack(
            [
                rng.normal([0, 0], 0.2, size=(30, 2)),
                rng.normal([80, 80], 0.2, size=(30, 2)),
            ]
        )
        points = np.vstack(
            [
                rng.normal([0, 0], 1.0, size=(300, 2)),
                rng.normal([80, 80], 1.0, size=(300, 2)),
            ]
        )
        scalar, batch = _paired_assigners(seeds, seed=3)
        expected = _scalar_loop(scalar, points)
        actual = batch.assign_many(points)
        assert actual.tolist() == expected.tolist()
        assert batch.assign_pruned == scalar.assign_pruned
        assert batch.pruned_fraction > 0.3  # pruning actually engaged

    def test_outliers_prune_nothing(self):
        # Points far outside the seeds' hull: 2 · minDist exceeds every
        # seed-to-seed distance, so Lemma 1 prunes nothing and every row
        # probes all B seeds — the rows that outlast a tile's lockstep.
        rng = np.random.default_rng(31)
        seeds = rng.uniform(-1.0, 1.0, size=(30, 3))
        directions = rng.normal(size=(45, 3))
        points = 1000.0 * directions / np.linalg.norm(
            directions, axis=1, keepdims=True
        )
        for path in (None, *FORCED_SERIAL_ROWS):
            scalar, batch = _paired_assigners(seeds, seed=4)
            expected = _scalar_loop(scalar, points)
            finish = (
                contextlib.nullcontext()
                if path is None
                else forced_finish(path)
            )
            with finish:
                actual = batch.assign_many(points)
            assert actual.tolist() == expected.tolist(), path
            assert scalar.assign_computed == 45 * 30
            assert scalar.assign_pruned == 0
            assert batch.assign_computed == scalar.assign_computed, path
            assert batch.assign_pruned == scalar.assign_pruned, path
            assert (
                batch._rng.bit_generator.state
                == scalar._rng.bit_generator.state
            ), path

    def test_small_tiles_multi_tile(self, monkeypatch):
        # Eight-row tiles force many tiles; totals and indices must be
        # independent of the tiling.
        rng = np.random.default_rng(17)
        seeds = rng.normal(size=(12, 3)) * 4.0
        points = rng.normal(size=(97, 3)) * 4.0
        scalar, batch = _paired_assigners(seeds, seed=1)
        expected = _scalar_loop(scalar, points)
        monkeypatch.setattr(assignment, "_TI_TILE_ELEMENTS", 8 * 12)
        actual = batch.assign_many(points)
        assert actual.tolist() == expected.tolist()
        assert batch.assign_computed == scalar.assign_computed
        assert batch.assign_pruned == scalar.assign_pruned

    def test_tile_size_does_not_change_results(self, monkeypatch):
        rng = np.random.default_rng(23)
        seeds = rng.normal(size=(20, 2)) * 6.0
        points = rng.normal(size=(150, 2)) * 6.0
        for path in FORCED_SERIAL_ROWS:
            a, b = _paired_assigners(seeds, seed=2)
            with forced_finish(path):
                # One row per tile against one tile for the whole call.
                monkeypatch.setattr(assignment, "_TI_TILE_ELEMENTS", 1)
                one_row = a.assign_many(points)
                monkeypatch.setattr(
                    assignment, "_TI_TILE_ELEMENTS", 150 * 20
                )
                whole = b.assign_many(points)
            assert one_row.tolist() == whole.tolist(), path
            assert a.assign_computed == b.assign_computed, path
            assert a.assign_pruned == b.assign_pruned, path
            assert (
                a._rng.bit_generator.state == b._rng.bit_generator.state
            ), path

    def test_empty_batch(self):
        seeds = np.random.default_rng(0).normal(size=(5, 2))
        scalar, batch = _paired_assigners(seeds, seed=0)
        result = batch.assign_many(np.empty((0, 2)))
        assert result.shape == (0,)
        assert batch.assign_computed == 0
        assert batch.assign_pruned == 0
        # m == 0 consumes no randomness.
        assert (
            batch._rng.bit_generator.state == scalar._rng.bit_generator.state
        )

    def test_single_seed_batch(self):
        # B == 1: one computed distance per point, RNG untouched.
        seeds = np.zeros((1, 2))
        scalar, batch = _paired_assigners(seeds, seed=0)
        points = np.random.default_rng(1).normal(size=(9, 2))
        expected = _scalar_loop(scalar, points)
        actual = batch.assign_many(points)
        assert actual.tolist() == expected.tolist() == [0] * 9
        assert batch.assign_computed == scalar.assign_computed == 9
        assert (
            batch._rng.bit_generator.state == scalar._rng.bit_generator.state
        )

    def test_interleaved_scalar_and_batch_calls(self):
        # Because both paths consume the RNG identically, any interleaving
        # of scalar and batch calls stays reproducible across assigners.
        rng = np.random.default_rng(8)
        seeds = rng.normal(size=(15, 2)) * 5.0
        p1 = rng.normal(size=(20, 2)) * 5.0
        p2 = rng.normal(size=(3, 2)) * 5.0
        p3 = rng.normal(size=(40, 2)) * 5.0

        a, b = _paired_assigners(seeds, seed=6)
        # a: batch, scalar, batch — b: scalar, batch, scalar loop.
        r_a = [
            a.assign_many(p1),
            _scalar_loop(a, p2),
            a.assign_many(p3),
        ]
        r_b = [
            _scalar_loop(b, p1),
            b.assign_many(p2),
            _scalar_loop(b, p3),
        ]
        for got, want in zip(r_a, r_b):
            assert got.tolist() == want.tolist()
        assert a.assign_computed == b.assign_computed
        assert a.assign_pruned == b.assign_pruned


class TestAssignerCache:
    def _bubble_set(self, seeds):
        bubbles = BubbleSet(PointStore(dim=seeds.shape[1]))
        for seed in seeds:
            bubbles.add_bubble(seed)
        return bubbles

    def test_hit_while_unchanged(self):
        seeds = np.random.default_rng(0).normal(size=(6, 2))
        bubbles = self._bubble_set(seeds)
        cache = AssignerCache()
        counter = DistanceCounter()
        rng = np.random.default_rng(0)
        a1 = cache.get(bubbles, counter, rng=rng)
        a2 = cache.get(bubbles, counter, rng=rng)
        assert a1 is a2
        assert cache.misses == 1
        assert cache.hits == 1

    def test_miss_after_mutation(self):
        seeds = np.random.default_rng(0).normal(size=(6, 2))
        bubbles = self._bubble_set(seeds)
        cache = AssignerCache()
        counter = DistanceCounter()
        a1 = cache.get(bubbles, counter)
        bubbles[0].absorb(np.array([1.0, 1.0]))
        a2 = cache.get(bubbles, counter)
        assert a1 is not a2
        assert cache.misses == 2

    def test_key_includes_active_ids_and_flag(self):
        seeds = np.random.default_rng(0).normal(size=(6, 2))
        bubbles = self._bubble_set(seeds)
        cache = AssignerCache()
        counter = DistanceCounter()
        full = cache.get(bubbles, counter)
        subset = cache.get(bubbles, counter, active_ids=[0, 2, 4])
        assert subset is not full
        assert subset.num_locations == 3
        naive = cache.get(
            bubbles, counter, use_triangle_inequality=False
        )
        assert naive is not subset

    def test_invalidate(self):
        seeds = np.random.default_rng(0).normal(size=(4, 2))
        bubbles = self._bubble_set(seeds)
        cache = AssignerCache()
        counter = DistanceCounter()
        a1 = cache.get(bubbles, counter)
        cache.invalidate()
        a2 = cache.get(bubbles, counter)
        assert a1 is not a2
        assert cache.misses == 2

    def test_cached_assigner_is_isolated_from_later_mutations(self):
        # Later bubble mutations must not skew an in-flight
        # (stale-keyed) assigner's geometry.
        seeds = np.random.default_rng(0).normal(size=(4, 2))
        bubbles = self._bubble_set(seeds)
        cache = AssignerCache()
        assigner = cache.get(bubbles, DistanceCounter())
        before = assigner.locations.copy()
        bubbles[0].absorb(np.array([100.0, 100.0]))
        bubbles.reps()  # refresh the set's cache in place
        assert np.array_equal(assigner.locations, before)


class TestBubbleSetVersioning:
    def test_version_bumps_on_every_mutation(self):
        bubbles = BubbleSet(PointStore(dim=2))
        v0 = bubbles.version
        bubble = bubbles.add_bubble(np.zeros(2))
        assert bubbles.version > v0

        v1 = bubbles.version
        bubble.absorb(np.array([1.0, 0.0]))
        assert bubbles.version > v1

        v2 = bubbles.version
        bubble.release(np.array([1.0, 0.0]))
        assert bubbles.version > v2

        v3 = bubbles.version
        bubble.absorb_many(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert bubbles.version > v3

        v4 = bubbles.version
        bubble.release_many(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert bubbles.version > v4

        v5 = bubbles.version
        bubble.clear()
        assert bubbles.version > v5

        v6 = bubbles.version
        bubble.reseed(np.array([3.0, 3.0]))
        assert bubbles.version > v6

    def test_reps_follow_every_mutation(self):
        bubbles = BubbleSet(PointStore(dim=2))
        a = bubbles.add_bubble(np.array([0.0, 0.0]))
        bubbles.add_bubble(np.array([5.0, 5.0]))
        first = bubbles.reps()
        assert first[0].tolist() == [0.0, 0.0]

        a.absorb(np.array([2.0, 2.0]))
        second = bubbles.reps()
        assert second[0].tolist() == [2.0, 2.0]  # the mean, not the seed
        assert second[1].tolist() == [5.0, 5.0]
        assert first[0].tolist() == [0.0, 0.0]  # earlier results stay
        assert bubbles.reps([1, 0]).tolist() == [[5.0, 5.0], [2.0, 2.0]]

    def test_reps_is_a_fresh_array(self):
        bubbles = BubbleSet(PointStore(dim=2))
        bubbles.add_bubble(np.zeros(2))
        reps = bubbles.reps()
        reps[0, 0] = 1.0  # the caller owns it ...
        assert bubbles.reps()[0].tolist() == [0.0, 0.0]  # ... not the set
        assert bubbles[0].seed.tolist() == [0.0, 0.0]
