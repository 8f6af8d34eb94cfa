"""Incremental clustering gate: repair beats cold re-walking, 5x.

The tentpole claim of the incremental clustering layer is that a
"cluster me now" request against a *warm* version-keyed cache — after a
small maintenance batch touched ~1% of the bubbles — costs a small
fraction of a from-scratch OPTICS walk, while producing **bitwise
identical** state (equivalence is asserted inline here and exhaustively
in ``tests/test_clustering_incremental.py``). This benchmark measures
both arms on the paper-scale summary (K=500 bubbles, d=8) and gates the
speedup at 5x. Every repair of that arm must have spliced.

A repair past the splice crossover (here 25% touched, the share one
live append touches) walks the repaired matrix in full instead; the
second gate pins that regime: every such repair walked, is bitwise
equal to a cold refresh, and is no slower than one.

The third gate covers the anytime contract: under a deadline, the
first staged tree (the coarse but valid answer the caller is promised)
must be delivered within 100 ms.

Methodology: best-of-N wall-clock (min, not mean — the minimum is the
least noisy estimator on a shared CI runner). The result document is
written to ``benchmarks/results/BENCH_cluster_incremental.json`` and
mirrored at the repo root.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from _results import write_bench_result

from repro.clustering.incremental import ClusterCache, IncrementalClusterer
from repro.core.builder import BubbleBuilder, BubbleConfig
from repro.database.store import PointStore

NUM_BUBBLES = 500
DIM = 8
MIN_PTS = 25
POINTS = 25_000
TOUCH_PER_BATCH = 5  # 1% of the bubbles
COLD_ROUNDS = 5
WARM_ROUNDS = 10
SPEEDUP_FLOOR = 5.0
WIDE_TOUCH_PER_BATCH = 125  # 25% of the bubbles
WIDE_ROUNDS = 8
FIRST_TREE_BUDGET_SECONDS = 0.100


def _build_bubbles():
    rng = np.random.default_rng(7)
    third = POINTS // 3
    pts = np.concatenate(
        [
            rng.normal(np.zeros(DIM), 1.0, size=(third, DIM)),
            rng.normal(np.full(DIM, 7.0), 0.9, size=(third, DIM)),
            rng.normal(
                np.concatenate(([-6.0], np.zeros(DIM - 1))),
                1.1,
                size=(POINTS - 2 * third, DIM),
            ),
        ]
    )
    store = PointStore(dim=DIM)
    store.insert(pts, labels=[0] * len(pts))
    bubbles = BubbleBuilder(
        BubbleConfig(num_bubbles=NUM_BUBBLES, seed=3)
    ).build(store)
    return bubbles, rng


@pytest.fixture(scope="module")
def document():
    """The result document every gate arm fills, written at the end."""
    doc = {}
    yield doc
    if doc:
        write_bench_result("cluster_incremental", doc)


def _absorb_into(bubbles, rng, count):
    """Absorb one nearby point into each of ``count`` distinct bubbles."""
    ids = rng.choice(NUM_BUBBLES, size=count, replace=False)
    for bid in ids:
        bubble = bubbles[int(bid)]
        bubble.absorb(bubble.rep + rng.normal(0, 0.3, size=DIM))


def test_warm_repair_beats_cold_walk(benchmark, document):
    """After a 1%-touched batch, a warm fit is >= 5x a cold fit."""
    bubbles, rng = _build_bubbles()

    # Cold arm: a fresh cache pays the full matrix + full walk.
    def cold_fit():
        cache = ClusterCache(min_pts=MIN_PTS)
        cache.refresh(bubbles)

    cold_fit()  # warm numpy caches before timing either arm
    cold_best = float("inf")
    for _ in range(COLD_ROUNDS):
        started = time.perf_counter()
        cold_fit()
        cold_best = min(cold_best, time.perf_counter() - started)

    # Warm arm: one maintained cache absorbs a small batch per round
    # and repairs. Every repair is checked bitwise against a cold walk
    # (outside the timed region) so the gate can never pass on a wrong
    # answer.
    cache = ClusterCache(min_pts=MIN_PTS)
    cache.refresh(bubbles)
    warm_best = float("inf")
    warm_times = []
    for _ in range(WARM_ROUNDS):
        _absorb_into(bubbles, rng, TOUCH_PER_BATCH)
        started = time.perf_counter()
        state, source = cache.refresh(bubbles)
        elapsed = time.perf_counter() - started
        assert source == "repair"
        assert cache.last_splice.spliced > 0
        warm_times.append(elapsed)
        warm_best = min(warm_best, elapsed)
        fresh, _ = ClusterCache(min_pts=MIN_PTS).refresh(bubbles)
        assert np.array_equal(state.plot.ordering, fresh.plot.ordering)
        assert np.array_equal(
            state.plot.reachability, fresh.plot.reachability
        )

    speedup = cold_best / warm_best
    benchmark.pedantic(cold_fit, rounds=1, iterations=1)

    document.update({
        "workload": {
            "num_bubbles": NUM_BUBBLES,
            "dim": DIM,
            "points": POINTS,
            "min_pts": MIN_PTS,
            "touched_per_batch": TOUCH_PER_BATCH,
            "cold_rounds": COLD_ROUNDS,
            "warm_rounds": WARM_ROUNDS,
        },
        "cold_best_seconds": cold_best,
        "warm_best_seconds": warm_best,
        "warm_median_seconds": float(np.median(warm_times)),
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "first_tree_budget_seconds": FIRST_TREE_BUDGET_SECONDS,
    })

    assert speedup >= SPEEDUP_FLOOR, (
        f"warm repair speedup {speedup:.1f}x is below the "
        f"{SPEEDUP_FLOOR:.0f}x floor (cold {cold_best * 1e3:.1f} ms, "
        f"warm {warm_best * 1e3:.1f} ms)"
    )


def test_wide_repair_walks_no_slower_than_cold(document):
    """After a 25%-touched batch, the repair walks and is <= a cold fit.

    Each round times the warm repair and then the cold refresh of the
    same bubbles that its bitwise check needs anyway, so both sides see
    identical states.
    """
    bubbles, rng = _build_bubbles()
    cache = ClusterCache(min_pts=MIN_PTS)
    cache.refresh(bubbles)
    ClusterCache(min_pts=MIN_PTS).refresh(bubbles)  # warm numpy caches
    warm_times, cold_times = [], []
    for _ in range(WIDE_ROUNDS):
        _absorb_into(bubbles, rng, WIDE_TOUCH_PER_BATCH)
        started = time.perf_counter()
        state, source = cache.refresh(bubbles)
        warm_times.append(time.perf_counter() - started)
        assert source == "repair"
        assert cache.last_splice.spliced == 0
        started = time.perf_counter()
        fresh, _ = ClusterCache(min_pts=MIN_PTS).refresh(bubbles)
        cold_times.append(time.perf_counter() - started)
        assert np.array_equal(state.plot.ordering, fresh.plot.ordering)
        assert np.array_equal(
            state.plot.reachability, fresh.plot.reachability
        )
        assert np.array_equal(state.cores, fresh.cores)
        assert np.array_equal(state.dist, fresh.dist)

    warm_best, cold_best = min(warm_times), min(cold_times)
    document["wide_touch"] = {
        "touched_per_batch": WIDE_TOUCH_PER_BATCH,
        "rounds": WIDE_ROUNDS,
        "cold_best_seconds": cold_best,
        "warm_best_seconds": warm_best,
        "warm_median_seconds": float(np.median(warm_times)),
        "speedup": cold_best / warm_best,
        "speedup_floor": 1.0,
    }

    assert warm_best <= cold_best, (
        f"a 25%-touched repair ({warm_best * 1e3:.1f} ms) is slower "
        f"than a cold fit ({cold_best * 1e3:.1f} ms)"
    )


def test_anytime_first_tree_within_budget():
    """A cold deadline-bounded fit stages a valid tree within 100 ms."""
    bubbles, _ = _build_bubbles()
    best = float("inf")
    for _ in range(3):
        clusterer = IncrementalClusterer(min_pts=MIN_PTS)
        fit = clusterer.fit(bubbles, deadline_seconds=0.050)
        assert fit.stages, "a deadline-bounded cold fit must stage"
        first = fit.stages[0]
        assert first.size == IncrementalClusterer.FIRST_STAGE_BUBBLES
        assert fit.num_bubbles >= first.size
        assert len(fit.tree.leaves()) >= 1
        best = min(best, first.elapsed_seconds)
    assert best <= FIRST_TREE_BUDGET_SECONDS, (
        f"first anytime tree took {best * 1e3:.1f} ms, budget is "
        f"{FIRST_TREE_BUDGET_SECONDS * 1e3:.0f} ms"
    )
