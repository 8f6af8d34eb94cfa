"""Batch assignment engine: speedup gates and equivalence proof.

The vectorized :meth:`TriangleInequalityAssigner.assign_many` must beat a
scalar ``assign()`` loop at three call shapes while returning
bit-identical assignments, identical computed/pruned totals and the same
RNG end state under identically seeded RNGs:

* **bulk** — one 10k-point call at 100 seeds, d=2, gated at >= 10x;
* **micro-batch** — 40 consecutive 64-point calls at 100 seeds, d=2, the
  shape the service feeds the maintainers, gated at >= 3x the scalar
  loop over the same points;
* **live** — 40 consecutive 32-point calls at 250 seeds, d=8, drawn from
  a noisy mixture: the shape of ``perfbench``'s ``cluster_live``
  appends, where the few noise points of a call that Lemma 1 cannot
  prune for probe nearly every seed. Gated at >= 4x: in five runs
  each on a 2-vCPU host, the kernel that ran such rows to the end in
  lockstep rounds measured 2.0–2.8x, the one that finishes them
  serially 4.9–6.9x.

All of it is asserted here and recorded in
``benchmarks/results/BENCH_assignment_batch.json`` so the engine's perf
trajectory and its equivalence guarantee stay visible across PRs.

Methodology: best-of-N wall-clock (min, the least noisy estimator on a
shared CI runner). In the bulk arm the scalar side runs fewer rounds
because it is the slow side by construction; the two multi-call arms
alternate scalar and batch rounds, so both sides see the same host.
"""

from __future__ import annotations

import time

import numpy as np
from _results import write_bench_result

from repro.core import TriangleInequalityAssigner
from repro.data import well_separated_mixture
from repro.geometry import DistanceCounter

NUM_POINTS = 10_000
NUM_SEEDS = 100
BATCH_ROUNDS = 5
SCALAR_ROUNDS = 2
SPEEDUP_GATE = 10.0
MICRO_POINTS = 64
MICRO_CALLS = 40
MICRO_GATE = 3.0
CALLS_ROUNDS = 5
LIVE_POINTS = 32
LIVE_CALLS = 40
LIVE_SEEDS = 250
LIVE_DIM = 8
LIVE_GATE = 4.0


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


def make_live_workload(seed=0):
    """``cluster_live``'s mixture (10 clusters, separation 4, box 12, 5%
    uniform noise) at d=8, seeds sampled from a 10k-point window, then
    the next ``LIVE_CALLS`` × ``LIVE_POINTS`` points of the stream.

    Sampled seeds reproduce the probe profile of captured
    ``cluster_live`` calls: about 37 probes per point on average, and
    a call's slowest point probes about 200 of the 250 seeds.
    """
    rng = np.random.default_rng(seed)
    mixture = well_separated_mixture(
        LIVE_DIM, 10, rng, separation=4.0, box=12.0
    )
    window = 10_000
    points, _ = mixture.sample(window + LIVE_CALLS * LIVE_POINTS, rng)
    seeds = points[rng.choice(window, size=LIVE_SEEDS, replace=False)]
    return points[window:], seeds


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


def _calls_arm(per_call):
    """Consecutive ``per_call``-point calls on one assigner, as a shard
    applies its micro-batches or a live summary its appends."""

    def arm(seeds, points):
        assigner = _make_assigner(seeds)
        started = time.perf_counter()
        result = np.concatenate(
            [
                assigner.assign_many(points[start : start + per_call])
                for start in range(0, len(points), per_call)
            ]
        )
        return time.perf_counter() - started, result, assigner

    return arm


def _best_of(arm, rounds, seeds, points):
    best = float("inf")
    for _ in range(rounds):
        elapsed, result, assigner = arm(seeds, points)
        best = min(best, elapsed)
    return best, result, assigner


def _measure_calls(per_call, calls, seeds, points):
    """Scalar loop against consecutive calls over the same points, as a
    result document; equivalence is asserted first.

    The two arms alternate, best of ``CALLS_ROUNDS`` each, so a change
    of host speed during the measurement reaches both of them.
    """
    batch_arm = _calls_arm(per_call)
    scalar_time = batch_time = float("inf")
    for _ in range(CALLS_ROUNDS):
        elapsed, scalar_result, scalar_assigner = _scalar_arm(seeds, points)
        scalar_time = min(scalar_time, elapsed)
        elapsed, batch_result, batch_assigner = batch_arm(seeds, points)
        batch_time = min(batch_time, elapsed)
    _assert_equivalent(
        batch_result, batch_assigner, scalar_result, scalar_assigner
    )
    return {
        "points_per_call": per_call,
        "calls": calls,
        "rounds": CALLS_ROUNDS,
        "scalar_seconds": scalar_time,
        "batch_seconds": batch_time,
        "batch_ms_per_call": batch_time / calls * 1e3,
        "speedup": scalar_time / batch_time,
        "equivalence": {
            "indices_identical": True,
            "rng_state_identical": True,
            "computed_distances": batch_assigner.assign_computed,
            "pruned_distances": batch_assigner.assign_pruned,
            "pruned_fraction": batch_assigner.pruned_fraction,
        },
    }


def _assert_equivalent(batch_result, batch, scalar_result, scalar):
    # Equivalence first: a fast kernel that drifts is worthless.
    assert batch_result.tolist() == scalar_result.tolist()
    assert batch.assign_computed == scalar.assign_computed
    assert batch.assign_pruned == scalar.assign_pruned
    assert batch._rng.bit_generator.state == scalar._rng.bit_generator.state


def test_batch_engine_speedup_gate(benchmark):
    """assign_many beats the scalar loop at all three shapes,
    bit-identically.

    Bulk calls must be >= 10x faster, consecutive 64-point calls >= 3x
    and consecutive live-shaped 32-point calls >= 4x.
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
    micro = _measure_calls(MICRO_POINTS, MICRO_CALLS, seeds, micro_points)

    live_points, live_seeds = make_live_workload(seed=0)
    live = _measure_calls(LIVE_POINTS, LIVE_CALLS, live_seeds, live_points)

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
        "micro_batch": {**micro, "speedup_gate": MICRO_GATE},
        "live": {
            "num_seeds": LIVE_SEEDS,
            "dim": LIVE_DIM,
            **live,
            "speedup_gate": LIVE_GATE,
        },
    }
    write_bench_result("assignment_batch", document)

    assert speedup >= SPEEDUP_GATE, (
        f"batch engine speedup {speedup:.1f}x below the "
        f"{SPEEDUP_GATE:.0f}x gate (scalar {scalar_time:.3f}s, "
        f"batch {batch_time:.3f}s)"
    )
    for name in ("micro_batch", "live"):
        arm = document[name]
        assert arm["speedup"] >= arm["speedup_gate"], (
            f"{name}: {arm['points_per_call']}-point calls only "
            f"{arm['speedup']:.1f}x the scalar loop, below the "
            f"{arm['speedup_gate']}x gate (scalar "
            f"{arm['scalar_seconds']:.3f}s, batch "
            f"{arm['batch_seconds']:.3f}s over {arm['calls']} calls)"
        )
