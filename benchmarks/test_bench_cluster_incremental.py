"""Incremental clustering gates: a repair beats a cold fit.

A "cluster me now" request against a *warm* version-keyed cache
refreshes only the distance rows and cores that a maintenance batch
touched, then walks the repaired matrix once; a cold fit computes the
whole K×K matrix and every core first. Both must produce **bitwise
identical** state: every round here checks the ordering, the
reachability bars, the cores and the distance matrix, and
``tests/test_clustering_incremental.py`` checks it exhaustively. The
workload is the paper-scale summary (K=500 bubbles, d=8).

Both repair gates pair their rounds. Each round absorbs a batch, times
the warm repair, then times the cold refresh of the same bubbles that
its bitwise check runs anyway, so both sides see identical states and
the same host noise:

* 1% of the bubbles touched: the median per-round cold/warm ratio must
  be at least 3x. A median of ratios, not a best case, because a single
  lucky warm round says nothing about what a request pays.
* 25% touched (the share one live append touches): the best warm round
  must be no slower than the best cold one.

The third gate covers the anytime contract: under a deadline, the
first staged tree (the coarse but valid answer the caller is promised)
must be delivered within 100 ms.

The result document is written to
``benchmarks/results/BENCH_cluster_incremental.json`` and mirrored at the
repo root.
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
ROUNDS = 10
SPEEDUP_FLOOR = 3.0
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


def _paired_rounds(touched, rounds):
    """Per round: absorb, time the warm repair, then the cold refresh.

    Every repair is checked bitwise against the cold refresh (outside
    both timed regions), so no gate can pass on a wrong answer.
    Returns the bubbles and the ``(warm, cold)`` seconds of each round.
    """
    bubbles, rng = _build_bubbles()
    cache = ClusterCache(min_pts=MIN_PTS)
    cache.refresh(bubbles)
    ClusterCache(min_pts=MIN_PTS).refresh(bubbles)  # warm numpy caches
    warm_times, cold_times = [], []
    for _ in range(rounds):
        _absorb_into(bubbles, rng, touched)
        started = time.perf_counter()
        state, source = cache.refresh(bubbles)
        warm_times.append(time.perf_counter() - started)
        assert source == "repair"
        started = time.perf_counter()
        fresh, _ = ClusterCache(min_pts=MIN_PTS).refresh(bubbles)
        cold_times.append(time.perf_counter() - started)
        assert np.array_equal(state.plot.ordering, fresh.plot.ordering)
        assert np.array_equal(
            state.plot.reachability, fresh.plot.reachability
        )
        assert np.array_equal(state.cores, fresh.cores)
        assert np.array_equal(state.dist, fresh.dist)
    return bubbles, np.asarray(warm_times), np.asarray(cold_times)


def test_warm_repair_beats_cold_walk(benchmark, document):
    """After a 1%-touched batch, a warm fit is >= 3x a cold fit.

    The gate is the median over rounds of each round's cold/warm ratio.
    """
    bubbles, warm, cold = _paired_rounds(TOUCH_PER_BATCH, ROUNDS)
    ratios = cold / warm
    speedup = float(np.median(ratios))
    benchmark.pedantic(
        lambda: ClusterCache(min_pts=MIN_PTS).refresh(bubbles),
        rounds=1,
        iterations=1,
    )

    document.update({
        "workload": {
            "num_bubbles": NUM_BUBBLES,
            "dim": DIM,
            "points": POINTS,
            "min_pts": MIN_PTS,
            "touched_per_batch": TOUCH_PER_BATCH,
            "rounds": ROUNDS,
        },
        "cold_median_seconds": float(np.median(cold)),
        "warm_median_seconds": float(np.median(warm)),
        "round_speedups": [float(r) for r in ratios],
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "first_tree_budget_seconds": FIRST_TREE_BUDGET_SECONDS,
    })

    assert speedup >= SPEEDUP_FLOOR, (
        f"median warm repair speedup {speedup:.2f}x is below the "
        f"{SPEEDUP_FLOOR:.0f}x floor (cold median "
        f"{np.median(cold) * 1e3:.1f} ms, warm median "
        f"{np.median(warm) * 1e3:.1f} ms)"
    )


def test_wide_repair_no_slower_than_cold(document):
    """After a 25%-touched batch, a repair is no slower than a cold fit."""
    _, warm, cold = _paired_rounds(WIDE_TOUCH_PER_BATCH, WIDE_ROUNDS)
    warm_best, cold_best = float(warm.min()), float(cold.min())
    document["wide_touch"] = {
        "touched_per_batch": WIDE_TOUCH_PER_BATCH,
        "rounds": WIDE_ROUNDS,
        "cold_best_seconds": cold_best,
        "warm_best_seconds": warm_best,
        "warm_median_seconds": float(np.median(warm)),
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
