"""Parity tests for the spatial-index and parallel assignment paths.

Three contracts are pinned here:

1. **Spatial parity** — ``use_seed_index=True`` (either backend) returns
   bit-identical indices and an identical RNG end-state to the plain
   batch kernel, never computes *more* exact distances, and preserves
   the conservation law ``computed + pruned == m * B``.
2. **Worker determinism** — ``workers=0`` is the bit-reproducible serial
   reference; any ``workers >= 1`` consumes exactly one 64-bit draw from
   the main RNG and produces output independent of the worker count,
   with assigned-seed distances identical to the serial answer.
3. **Cache keying** — :class:`AssignerCache` keys on the new flags, so
   flipping either rebuilds the assigner while repeated calls reuse the
   lazily built index until the bubble-set version moves.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    BubbleBuilder,
    BubbleConfig,
    IncrementalMaintainer,
    MaintenanceConfig,
    PointStore,
    UpdateBatch,
)
from repro.core import AssignerCache, BubbleSet, TriangleInequalityAssigner
from repro.core.assignment import DEFAULT_BLOCK_SIZE, _TI_BLOCK_ELEMENTS
from repro.core.seed_index import kdtree_available
from repro.geometry import DistanceCounter

BACKENDS = ["grid"] + (["kdtree"] if kdtree_available() else [])

# A batch that the adaptive partition, max(DEFAULT_BLOCK_SIZE,
# _TI_BLOCK_ELEMENTS // B) rows per block, cuts into two blocks; each
# block spans several lockstep tiles.
BOUNDARY_SEEDS = 1024
BOUNDARY_POINTS = (
    max(DEFAULT_BLOCK_SIZE, _TI_BLOCK_ELEMENTS // BOUNDARY_SEEDS) + 6
)


def _workload(num_points, num_seeds, dim, seed=0, scale=10.0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, scale, size=(max(4, num_seeds // 4), dim))
    points = rng.normal(
        centers[rng.integers(0, len(centers), size=num_points)], 1.0
    )
    seeds = rng.uniform(0, scale, size=(num_seeds, dim))
    return points, seeds


def _assigner(seeds, seed=0, **kwargs):
    return TriangleInequalityAssigner(
        seeds,
        DistanceCounter(),
        rng=np.random.default_rng(seed),
        count_setup=False,
        **kwargs,
    )


def _assert_spatial_parity(points, seeds, seed=0, **spatial_kwargs):
    """Spatial assign_many is bit-identical and never computes more."""
    plain = _assigner(seeds, seed=seed)
    spatial = _assigner(seeds, seed=seed, use_seed_index=True, **spatial_kwargs)
    plain_idx = plain.assign_many(points)
    spatial_idx = spatial.assign_many(points)
    assert np.array_equal(plain_idx, spatial_idx)
    assert (
        plain._rng.bit_generator.state == spatial._rng.bit_generator.state
    )
    assert spatial.assign_computed <= plain.assign_computed
    total = points.shape[0] * seeds.shape[0]
    assert plain.assign_computed + plain.assign_pruned == total
    assert spatial.assign_computed + spatial.assign_pruned == total
    # Index skips are a subset of the pruned total.
    assert 0 <= spatial.assign_index_pruned <= spatial.assign_pruned
    return plain, spatial


class TestSpatialParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "num_points,num_seeds,dim,scale",
        [
            (1, 2, 2, 1.0),  # single point, minimal seed count
            (40, 1, 3, 1.0),  # B=1 short-circuits before the index
            (50, 25, 3, 10.0),  # generic
            (200, 40, 2, 0.3),  # dense overlap: little pruning
            (128, 16, 8, 50.0),  # well-separated: heavy pruning
            (96, 24, 128, 10.0),  # high dimension
            # crosses the default block boundary
            (BOUNDARY_POINTS, BOUNDARY_SEEDS, 2, 10.0),
        ],
    )
    def test_bit_identical_to_batch(
        self, backend, num_points, num_seeds, dim, scale
    ):
        points, seeds = _workload(num_points, num_seeds, dim, scale=scale)
        _assert_spatial_parity(points, seeds, index_backend=backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_duplicate_seeds(self, backend):
        rng = np.random.default_rng(5)
        base = rng.uniform(0, 10, size=(8, 2))
        seeds = np.vstack([base, base])
        points = rng.uniform(0, 10, size=(120, 2))
        _assert_spatial_parity(points, seeds, index_backend=backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_batch(self, backend):
        points, seeds = _workload(0, 12, 3)
        plain, spatial = _assert_spatial_parity(
            points, seeds, index_backend=backend
        )
        assert plain.assign_computed == spatial.assign_computed == 0
        # An empty batch never consults (or builds) the index.
        assert spatial.seed_index is None

    def test_spatial_matches_scalar_loop(self):
        points, seeds = _workload(80, 20, 3)
        scalar = _assigner(seeds)
        spatial = _assigner(seeds, use_seed_index=True)
        scalar_idx = np.array(
            [scalar.assign(p) for p in points], dtype=np.int64
        )
        assert np.array_equal(scalar_idx, spatial.assign_many(points))
        assert (
            scalar._rng.bit_generator.state
            == spatial._rng.bit_generator.state
        )
        assert spatial.assign_computed <= scalar.assign_computed

    def test_index_built_lazily_and_reused(self):
        points, seeds = _workload(64, 16, 2)
        spatial = _assigner(seeds, use_seed_index=True)
        assert spatial.seed_index is None
        spatial.assign_many(points)
        index = spatial.seed_index
        assert index is not None
        queries = index.queries
        spatial.assign_many(points)
        assert spatial.seed_index is index
        assert index.queries == 2 * queries

    @given(
        num_points=st.integers(min_value=0, max_value=120),
        num_seeds=st.integers(min_value=2, max_value=40),
        dim=st.integers(min_value=1, max_value=8),
        data_seed=st.integers(min_value=0, max_value=2**31),
        scale=st.sampled_from([0.3, 1.0, 10.0, 100.0]),
    )
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_parity_property(
        self, num_points, num_seeds, dim, data_seed, scale
    ):
        points, seeds = _workload(
            num_points, num_seeds, dim, seed=data_seed, scale=scale
        )
        for backend in BACKENDS:
            _assert_spatial_parity(
                points, seeds, seed=data_seed, index_backend=backend
            )


class TestWorkerDeterminism:
    def test_workers_zero_is_the_serial_reference(self):
        points, seeds = _workload(150, 20, 3)
        serial = _assigner(seeds)
        w0 = _assigner(seeds, workers=0)
        assert np.array_equal(
            serial.assign_many(points), w0.assign_many(points)
        )
        assert (
            serial._rng.bit_generator.state == w0._rng.bit_generator.state
        )

    @pytest.mark.parametrize("use_seed_index", [False, True])
    def test_worker_count_never_changes_the_answer(self, use_seed_index):
        points, seeds = _workload(300, 25, 3)
        results = {}
        for workers in (1, 2, 4):
            assigner = _assigner(
                seeds, workers=workers, use_seed_index=use_seed_index
            )
            results[workers] = (
                assigner.assign_many(points),
                assigner._rng.bit_generator.state,
                assigner.assign_computed,
                assigner.assign_pruned,
            )
        for workers in (2, 4):
            assert np.array_equal(results[1][0], results[workers][0])
            assert results[1][1:] == results[workers][1:]

    def test_parallel_consumes_exactly_one_draw(self):
        points, seeds = _workload(200, 15, 2)
        assigner = _assigner(seeds, workers=4)
        assigner.assign_many(points)
        # Replay: one uint64 draw is the entire main-stream footprint.
        witness = np.random.default_rng(0)
        witness.integers(0, 2**64, dtype=np.uint64)
        assert (
            assigner._rng.bit_generator.state
            == witness.bit_generator.state
        )

    def test_parallel_empty_batch_consumes_no_rng(self):
        _, seeds = _workload(1, 15, 2)
        assigner = _assigner(seeds, workers=4)
        assigner.assign_many(np.zeros((0, 2)))
        assert (
            assigner._rng.bit_generator.state
            == np.random.default_rng(0).bit_generator.state
        )

    def test_parallel_assigned_distances_match_serial(self):
        # Substream permutations may break distance ties differently,
        # but the assigned seed is always a true nearest seed — the
        # realised distances agree exactly with the serial reference.
        points, seeds = _workload(400, 30, 2, scale=2.0)
        serial_idx = _assigner(seeds).assign_many(points)
        par_idx = _assigner(
            seeds, workers=2, use_seed_index=True
        ).assign_many(points)
        serial_d = np.linalg.norm(points - seeds[serial_idx], axis=1)
        par_d = np.linalg.norm(points - seeds[par_idx], axis=1)
        assert np.array_equal(serial_d, par_d)


class TestCacheKeying:
    def _bubble_set(self, rng, num_bubbles=12):
        bubbles = BubbleSet(dim=2)
        for seed in rng.normal(size=(num_bubbles, 2)) * 5:
            bubbles.add_bubble(seed)
        return bubbles, DistanceCounter()

    def test_flags_are_part_of_the_key(self, rng):
        bubbles, counter = self._bubble_set(rng)
        cache = AssignerCache()
        plain = cache.get(bubbles, counter)
        spatial = cache.get(bubbles, counter, use_seed_index=True)
        assert plain is not spatial
        # Same flags, unchanged bubbles: a hit (single-slot cache).
        assert cache.get(bubbles, counter, use_seed_index=True) is spatial
        parallel = cache.get(bubbles, counter, workers=2)
        assert parallel is not spatial
        assert cache.get(bubbles, counter, workers=2) is parallel

    def test_cache_hit_reuses_the_lazily_built_index(self, rng):
        bubbles, counter = self._bubble_set(rng)
        cache = AssignerCache()
        assigner = cache.get(bubbles, counter, use_seed_index=True)
        points = rng.normal(size=(50, 2)) * 5
        assigner.assign_many(points)
        index = assigner.seed_index
        assert index is not None
        again = cache.get(bubbles, counter, use_seed_index=True)
        assert again is assigner
        assert again.seed_index is index

    def test_version_bump_rebuilds_assigner_and_index(self, rng):
        bubbles, counter = self._bubble_set(rng)
        cache = AssignerCache()
        assigner = cache.get(bubbles, counter, use_seed_index=True)
        assigner.assign_many(rng.normal(size=(20, 2)) * 5)
        next(iter(bubbles)).absorb(0, np.array([0.5, 0.5]))
        fresh = cache.get(bubbles, counter, use_seed_index=True)
        assert fresh is not assigner
        assert fresh.seed_index is None  # rebuilt lazily on next batch


class TestMaintainerSpatialEquivalence:
    """End-to-end: a spatial maintainer walks the same trajectory."""

    def _run(self, use_seed_index, assign_workers=0):
        rng = np.random.default_rng(7)
        points = np.vstack(
            [
                rng.normal([0, 0], 0.5, size=(300, 2)),
                rng.normal([20, 20], 0.5, size=(300, 2)),
            ]
        )
        store = PointStore(dim=2)
        store.insert(points, np.zeros(600, dtype=np.int64))
        counter = DistanceCounter()
        bubbles = BubbleBuilder(
            BubbleConfig(num_bubbles=15, seed=0), counter
        ).build(store)
        maintainer = IncrementalMaintainer(
            bubbles,
            store,
            MaintenanceConfig(
                seed=0,
                use_seed_index=use_seed_index,
                assign_workers=assign_workers,
            ),
            counter=counter,
        )
        for batch_seed in (1, 2):
            batch_rng = np.random.default_rng(batch_seed)
            inserts = batch_rng.normal([10, 10], 3.0, size=(40, 2))
            maintainer.apply_batch(
                UpdateBatch(
                    deletions=(),
                    insertions=inserts,
                    insertion_labels=(0,) * len(inserts),
                )
            )
        owners = [int(store.owner(i)) for i in store.ids()]
        stats = [(b.n, float(b.extent)) for b in bubbles]
        return owners, stats, counter.computed

    def test_spatial_maintainer_matches_plain(self):
        plain_owners, plain_stats, plain_computed = self._run(False)
        spat_owners, spat_stats, spat_computed = self._run(True)
        assert spat_owners == plain_owners
        assert spat_stats == plain_stats
        assert spat_computed <= plain_computed
