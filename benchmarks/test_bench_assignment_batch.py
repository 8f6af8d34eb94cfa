"""Batch assignment engine: speedup gates and equivalence proof.

The vectorized :meth:`TriangleInequalityAssigner.assign_many` must beat a
scalar ``assign()`` loop at two shapes of the reference workload (100
seeds, d=2) while returning bit-identical assignments, identical
computed/pruned totals and the same RNG end state under identically
seeded RNGs:

* **bulk** — one 10k-point call, gated at >= 10x;
* **micro-batch** — 40 consecutive 64-point calls, the shape the service
  feeds the maintainers, gated at >= 3x the scalar loop over the same
  points.

Both facts are asserted here and recorded in
``benchmarks/results/BENCH_assignment_batch.json`` so the engine's perf
trajectory and its equivalence guarantee stay visible across PRs.

Methodology: best-of-N wall-clock (min, the least noisy estimator on a
shared CI runner); the scalar arm runs fewer rounds because it is the
slow side by construction.
"""

from __future__ import annotations

import time

import numpy as np
from _results import write_bench_result

from repro.core import TriangleInequalityAssigner
from repro.geometry import DistanceCounter

NUM_POINTS = 10_000
NUM_SEEDS = 100
BATCH_ROUNDS = 5
SCALAR_ROUNDS = 2
SPEEDUP_GATE = 10.0
MICRO_POINTS = 64
MICRO_CALLS = 40
MICRO_GATE = 3.0


def make_workload(num_points, num_seeds, dim=2, seed=0):
    """The paper-style clustered workload (same shape as the ablation
    benchmark's): 8 Gaussian blobs, seeds sampled from the points."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 100, size=(8, dim))
    points = np.vstack(
        [
            rng.normal(centers[i % 8], 1.0, size=(num_points // 8, dim))
            for i in range(8)
        ]
    )
    seeds = points[rng.choice(len(points), size=num_seeds, replace=False)]
    return points, seeds


def _make_assigner(seeds: np.ndarray) -> TriangleInequalityAssigner:
    # Identically seeded RNGs per arm: the probing permutations — and so
    # the assignments and the accounting — are reproduced exactly.
    return TriangleInequalityAssigner(
        seeds,
        DistanceCounter(),
        rng=np.random.default_rng(42),
        count_setup=False,
    )


def _scalar_arm(seeds, points):
    assigner = _make_assigner(seeds)
    started = time.perf_counter()
    result = np.array([assigner.assign(p) for p in points], dtype=np.int64)
    return time.perf_counter() - started, result, assigner


def _batch_arm(seeds, points):
    assigner = _make_assigner(seeds)
    started = time.perf_counter()
    result = assigner.assign_many(points)
    return time.perf_counter() - started, result, assigner


def _micro_arm(seeds, points):
    # Consecutive MICRO_POINTS-point calls on one assigner, as a shard
    # applies its micro-batches.
    assigner = _make_assigner(seeds)
    started = time.perf_counter()
    result = np.concatenate(
        [
            assigner.assign_many(points[start : start + MICRO_POINTS])
            for start in range(0, len(points), MICRO_POINTS)
        ]
    )
    return time.perf_counter() - started, result, assigner


def _best_of(arm, rounds, seeds, points):
    best = float("inf")
    for _ in range(rounds):
        elapsed, result, assigner = arm(seeds, points)
        best = min(best, elapsed)
    return best, result, assigner


def _assert_equivalent(batch_result, batch, scalar_result, scalar):
    # Equivalence first: a fast kernel that drifts is worthless.
    assert batch_result.tolist() == scalar_result.tolist()
    assert batch.assign_computed == scalar.assign_computed
    assert batch.assign_pruned == scalar.assign_pruned
    assert batch._rng.bit_generator.state == scalar._rng.bit_generator.state


def test_batch_engine_speedup_gate(benchmark):
    """assign_many beats the scalar loop at both shapes, bit-identically.

    Bulk calls must be >= 10x faster, consecutive 64-point calls >= 3x.
    """
    points, seeds = make_workload(
        num_points=NUM_POINTS, num_seeds=NUM_SEEDS, dim=2, seed=0
    )

    # Warm-up (allocators, numpy dispatch) before either arm is timed.
    _batch_arm(seeds, points[:256])

    scalar_time, scalar_result, scalar_assigner = _best_of(
        _scalar_arm, SCALAR_ROUNDS, seeds, points
    )
    batch_time, batch_result, batch_assigner = _best_of(
        _batch_arm, BATCH_ROUNDS, seeds, points
    )
    _assert_equivalent(
        batch_result, batch_assigner, scalar_result, scalar_assigner
    )
    speedup = scalar_time / batch_time

    # Micro-batch arm: a fixed shuffle mixes the blobs as a live stream
    # does, so every call sees points from all over the seed set.
    order = np.random.default_rng(1).permutation(len(points))
    micro_points = points[order[: MICRO_CALLS * MICRO_POINTS]]
    micro_scalar_time, micro_scalar_result, micro_scalar_assigner = (
        _best_of(_scalar_arm, SCALAR_ROUNDS, seeds, micro_points)
    )
    micro_time, micro_result, micro_assigner = _best_of(
        _micro_arm, BATCH_ROUNDS, seeds, micro_points
    )
    _assert_equivalent(
        micro_result,
        micro_assigner,
        micro_scalar_result,
        micro_scalar_assigner,
    )
    micro_speedup = micro_scalar_time / micro_time

    # Register with pytest-benchmark so the run lands in the CI JSON
    # artifact next to the other assignment numbers.
    benchmark.pedantic(
        lambda: _batch_arm(seeds, points), rounds=1, iterations=1
    )

    document = {
        "workload": {
            "num_points": NUM_POINTS,
            "num_seeds": NUM_SEEDS,
            "dim": 2,
            "scalar_rounds": SCALAR_ROUNDS,
            "batch_rounds": BATCH_ROUNDS,
        },
        "scalar_seconds": scalar_time,
        "batch_seconds": batch_time,
        "speedup": speedup,
        "speedup_gate": SPEEDUP_GATE,
        "equivalence": {
            "indices_identical": True,
            "computed_distances": batch_assigner.assign_computed,
            "pruned_distances": batch_assigner.assign_pruned,
            "pruned_fraction": batch_assigner.pruned_fraction,
        },
        "micro_batch": {
            "points_per_call": MICRO_POINTS,
            "calls": MICRO_CALLS,
            "scalar_seconds": micro_scalar_time,
            "batch_seconds": micro_time,
            "batch_ms_per_call": micro_time / MICRO_CALLS * 1e3,
            "speedup": micro_speedup,
            "speedup_gate": MICRO_GATE,
            "equivalence": {
                "indices_identical": True,
                "rng_state_identical": True,
                "computed_distances": micro_assigner.assign_computed,
                "pruned_distances": micro_assigner.assign_pruned,
                "pruned_fraction": micro_assigner.pruned_fraction,
            },
        },
    }
    write_bench_result("assignment_batch", document)

    assert speedup >= SPEEDUP_GATE, (
        f"batch engine speedup {speedup:.1f}x below the "
        f"{SPEEDUP_GATE:.0f}x gate (scalar {scalar_time:.3f}s, "
        f"batch {batch_time:.3f}s)"
    )
    assert micro_speedup >= MICRO_GATE, (
        f"{MICRO_POINTS}-point calls only {micro_speedup:.1f}x the scalar "
        f"loop, below the {MICRO_GATE:.0f}x gate (scalar "
        f"{micro_scalar_time:.3f}s, batch {micro_time:.3f}s over "
        f"{MICRO_CALLS} calls)"
    )
