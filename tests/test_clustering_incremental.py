"""The incremental clustering subsystem: cache, repair, anytime, lineage.

The load-bearing claim under test is *exact equivalence*: every cache
outcome — hit, repair, rebuild — must produce state bitwise equal to a
cold fit of the current bubbles (ordering, reachability bars, core
distances and the distance matrix). Repairs and rebuilds reuse the
untouched distances and cores, so any of them that a batch should have
moved shows up here as a hard failure.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.clustering.bubble_optics import (
    BubbleOptics,
    optics_over_summaries,
)
from repro.clustering.cluster_tree import ClusterNode
from repro.clustering.incremental import (
    ClusterCache,
    ClusterFit,
    ClusterLineage,
    IncrementalClusterer,
    LineageEvent,
    _weighted_cores,
)
from repro.clustering.reachability import ReachabilityPlot
from repro.core.builder import BubbleBuilder, BubbleConfig
from repro.database.store import PointStore
from repro.geometry.counting import DistanceCounter


def build_bubbles(
    num_bubbles: int,
    dim: int,
    points: int,
    seed: int = 3,
    data_seed: int = 42,
):
    rng = np.random.default_rng(data_seed)
    third = points // 3
    pts = np.concatenate(
        [
            rng.normal(np.zeros(dim), 1.0, size=(third, dim)),
            rng.normal(np.full(dim, 6.0), 0.8, size=(third, dim)),
            rng.normal(
                np.concatenate(([-5.0], np.zeros(dim - 1))),
                1.2,
                size=(points - 2 * third, dim),
            ),
        ]
    )
    store = PointStore(dim=dim)
    store.insert(pts, labels=[0] * len(pts))
    return BubbleBuilder(
        BubbleConfig(num_bubbles=num_bubbles, seed=seed)
    ).build(store)


def assert_states_equal(state, fresh_state):
    """Bitwise equality of everything a cold fit derives."""
    assert np.array_equal(state.plot.ordering, fresh_state.plot.ordering)
    assert np.array_equal(
        state.plot.reachability, fresh_state.plot.reachability
    )
    assert np.array_equal(
        state.plot.core_distances, fresh_state.plot.core_distances
    )
    assert np.array_equal(state.cores, fresh_state.cores)
    assert np.array_equal(state.dist, fresh_state.dist)


def apply_move(bubbles, bid: int, move: int, rng):
    """One mutation: absorb near, release, absorb far (a drifter), drain
    (``bubbles.clear``, as ``merge_bubble`` does), refill an empty bubble,
    or ``add_bubble`` with points. The last three change the id set."""
    b = bubbles[int(bid)]
    dim = b.rep.shape[0]
    if move == 3:
        bubbles.clear([b.bubble_id])
    elif move in (4, 5):
        empty = np.flatnonzero(bubbles.counts() == 0)
        if move == 5:
            b = bubbles.add_bubble(b.rep + rng.normal(0, 0.5, size=dim))
        elif empty.size:  # with none empty, this grows ``b`` instead
            b = bubbles[int(empty[int(bid) % empty.size])]
        size = (int(rng.integers(1, 40)), dim)
        b.absorb_many(b.rep + rng.normal(0, 0.3, size=size))
    elif move == 0 or b.n <= 2:
        b.absorb(b.rep + rng.normal(0, 0.3, size=dim))
    elif move == 1:
        b.release(b.rep + rng.normal(0, 0.2, size=dim))
    else:
        b.absorb(b.rep + rng.normal(0, 1.8, size=dim))


MIN_PTS = 12

class TestCacheSources:
    def test_cold_then_hit_is_same_object(self):
        bubbles = build_bubbles(24, 3, 900)
        cache = ClusterCache(min_pts=MIN_PTS)
        state, src = cache.refresh(bubbles)
        assert src == "cold"
        state2, src2 = cache.refresh(bubbles)
        assert src2 == "hit"
        assert state2 is state
        assert cache.hits == 1 and cache.cold_fits == 1

    def test_cold_matches_bubble_optics_reference(self):
        bubbles = build_bubbles(24, 3, 900)
        state, _ = ClusterCache(min_pts=MIN_PTS).refresh(bubbles)
        ref = BubbleOptics(min_pts=MIN_PTS).fit(bubbles)
        assert np.array_equal(state.plot.ordering, ref.plot.ordering)
        assert np.array_equal(
            state.plot.reachability, ref.plot.reachability
        )
        assert np.array_equal(
            state.plot.core_distances, ref.plot.core_distances
        )

    def test_hit_computes_zero_distances(self):
        bubbles = build_bubbles(24, 3, 900)
        counter = DistanceCounter()
        cache = ClusterCache(min_pts=MIN_PTS, counter=counter)
        cache.refresh(bubbles)
        before = counter.snapshot().computed
        cache.refresh(bubbles)
        assert counter.snapshot().computed == before

    def test_repair_computes_fewer_distances_than_cold(self):
        bubbles = build_bubbles(40, 3, 1500)
        counter = DistanceCounter()
        cache = ClusterCache(min_pts=MIN_PTS, counter=counter)
        cache.refresh(bubbles)
        cold_cost = counter.snapshot().computed
        rng = np.random.default_rng(0)
        touched = (5, 11, 23)
        for bid in touched:
            apply_move(bubbles, bid, 0, rng)
        before = counter.snapshot()
        state, src = cache.refresh(bubbles)
        assert src == "repair"
        after = counter.snapshot()
        repair_cost = after.computed - before.computed
        assert 0 < repair_cost < cold_cost
        # Exactly the touched rows: each touched bubble against every
        # untouched one, plus the pairs among the touched; every other
        # pair of the matrix is reused and counts as pruned.
        k, t = state.num, len(touched)
        assert repair_cost == t * (k - t) + t * (t - 1) // 2
        assert repair_cost + after.pruned - before.pruned == k * (k - 1) // 2

    def test_invalidate_forces_cold(self):
        bubbles = build_bubbles(24, 3, 900)
        cache = ClusterCache(min_pts=MIN_PTS)
        cache.refresh(bubbles)
        cache.invalidate()
        _, src = cache.refresh(bubbles)
        assert src == "cold"

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ClusterCache(min_pts=0)
        with pytest.raises(ValueError):
            IncrementalClusterer(min_size=0)


class TestRepairEquivalence:
    """repair/rebuild ≡ cold, bitwise, across mutation schedules."""

    def run_schedule(self, make_bubbles, schedule, rng, min_pts=MIN_PTS):
        bubbles = make_bubbles()
        cache = ClusterCache(min_pts=min_pts)
        cache.refresh(bubbles)
        for moves in schedule:
            for bid, move in moves:
                apply_move(bubbles, bid % len(bubbles), move, rng)
            state, _ = cache.refresh(bubbles)
            fresh_state, _ = ClusterCache(min_pts=min_pts).refresh(bubbles)
            assert_states_equal(state, fresh_state)
            assert np.array_equal(state.bubble_ids, fresh_state.bubble_ids)
        return cache

    def test_absorb_only_schedule(self):
        rng = np.random.default_rng(1)
        schedule = [[(i, 0) for i in rng.integers(0, 32, size=3)]
                    for _ in range(6)]
        cache = self.run_schedule(
            lambda: build_bubbles(32, 3, 1200), schedule, rng
        )
        assert cache.repairs == len(schedule)

    def test_release_only_schedule(self):
        rng = np.random.default_rng(2)
        schedule = [[(i, 1) for i in rng.integers(0, 32, size=3)]
                    for _ in range(6)]
        self.run_schedule(lambda: build_bubbles(32, 3, 1200), schedule, rng)

    def test_mixed_schedule_with_drifters(self):
        rng = np.random.default_rng(3)
        schedule = [
            [
                (int(i), int(m))
                for i, m in zip(
                    rng.integers(0, 32, size=4), rng.integers(0, 3, size=4)
                )
            ]
            for _ in range(8)
        ]
        self.run_schedule(lambda: build_bubbles(32, 3, 1200), schedule, rng)

    def test_release_tied_at_a_neighbours_core(self):
        """Bubble 15's distance to an untouched small bubble equals that
        bubble's core; a release drops the mass at that distance below
        MinPts, so the neighbour's core moves although no changed value
        fell below it."""
        self.run_schedule(
            lambda: build_bubbles(24, 3, 800, data_seed=7),
            [[(15, 1)]],
            np.random.default_rng(7),
        )

    def test_drain_beside_a_tied_core(self):
        """Draining bubble 15 changes the id set: the rebuild keeps the
        untouched small cores only where the departed bubble's old
        distances leave them standing."""
        cache = self.run_schedule(
            lambda: build_bubbles(24, 3, 800, data_seed=7),
            [[(15, 3)]],
            np.random.default_rng(7),
        )
        assert cache.rebuilds == 1
        assert 15 not in set(int(i) for i in cache.state.bubble_ids)

    def test_idset_change_rebuild_equivalence(self):
        bubbles = build_bubbles(24, 3, 900)
        cache = ClusterCache(min_pts=MIN_PTS)
        cache.refresh(bubbles)
        # Empty one bubble out entirely: the id set shrinks, so the
        # cache must take the rebuild path (reusing surviving entries).
        rng = np.random.default_rng(5)
        donor = bubbles[3]
        for _ in range(donor.n):
            donor.release(donor.rep + rng.normal(0, 0.1, size=3))
        assert donor.n == 0
        state, src = cache.refresh(bubbles)
        assert src == "rebuild"
        assert 3 not in set(int(i) for i in state.bubble_ids)
        fresh_state, _ = ClusterCache(min_pts=MIN_PTS).refresh(bubbles)
        assert_states_equal(state, fresh_state)

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        data_seed=st.integers(0, 2**16),
        schedule=st.lists(
            st.lists(
                st.tuples(st.integers(0, 23), st.integers(0, 5)),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=4,
        ),
        min_pts=st.sampled_from([5, 12, 40, 120]),
    )
    def test_random_chained_schedules(self, data_seed, schedule, min_pts):
        self.run_schedule(
            lambda: build_bubbles(24, 3, 800, data_seed=data_seed),
            schedule,
            np.random.default_rng(data_seed),
            min_pts=min_pts,
        )


def reference_cores(rows, counts, min_pts):
    """Per row, the value where the cumulative count, in stable-argsort
    order, first reaches ``min_pts``; ``inf`` where it never does."""
    cores = []
    for row in rows:
        order = np.argsort(row, kind="stable")
        reached = np.flatnonzero(np.cumsum(counts[order]) >= min_pts)
        cores.append(row[order[reached[0]]] if reached.size else np.inf)
    return np.asarray(cores, dtype=np.float64)


@st.composite
def weighted_core_instances(draw):
    """Integer-grid rows with ``inf`` entries, so distances tie in
    blocks, and counts small enough that crossings land past the first
    32-entry head or never happen."""
    num_cols = draw(st.integers(1, 300))
    num_rows = draw(st.integers(1, 6))
    rows = draw(
        hnp.arrays(
            np.float64,
            (num_rows, num_cols),
            elements=st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, np.inf]),
        )
    )
    min_pts = draw(st.integers(1, 320))
    cap = min(min_pts, draw(st.sampled_from([1, 2, 3, 8, min_pts])))
    counts = draw(
        hnp.arrays(np.int64, num_cols, elements=st.integers(1, cap))
    )
    return rows, counts, min_pts


class TestWeightedCores:
    @settings(max_examples=300, deadline=None)
    @given(weighted_core_instances())
    def test_matches_stable_argsort_reference_bitwise(self, instance):
        rows, counts, min_pts = instance
        got = _weighted_cores(rows, counts, min_pts)
        want = reference_cores(rows, counts, min_pts)
        assert got.tobytes() == want.tobytes()


class TestDegenerates:
    def test_empty_bubble_set_fit(self):
        store = PointStore(dim=2)
        store.insert(np.zeros((1, 2)), labels=[0])
        bubbles = BubbleBuilder(
            BubbleConfig(num_bubbles=1, seed=0)
        ).build(store)
        b = bubbles[0]
        b.release(np.zeros(2))
        clusterer = IncrementalClusterer(min_pts=MIN_PTS)
        fit = clusterer.fit(bubbles)
        assert fit.source == "empty"
        assert fit.num_bubbles == 0
        assert fit.quality == 1.0
        assert all(
            leaf.end <= leaf.start for leaf in fit.tree.leaves()
        )

    def test_single_bubble_single_leaf(self):
        store = PointStore(dim=2)
        store.insert(np.random.default_rng(0).normal(size=(50, 2)),
                     labels=[0] * 50)
        bubbles = BubbleBuilder(
            BubbleConfig(num_bubbles=1, seed=0)
        ).build(store)
        fit = IncrementalClusterer(min_pts=MIN_PTS).fit(bubbles)
        assert fit.num_bubbles == 1
        assert len(fit.tree.leaves()) == 1
        assert np.isfinite(fit.plot.core_distances).all() or True
        expanded = fit.expanded()
        assert np.isfinite(expanded.reachability[1:]).all()

    def test_duplicate_points_stay_finite(self):
        store = PointStore(dim=2)
        pts = np.zeros((120, 2))
        store.insert(pts, labels=[0] * 120)
        bubbles = BubbleBuilder(
            BubbleConfig(num_bubbles=4, seed=0)
        ).build(store)
        fit = IncrementalClusterer(min_pts=5).fit(bubbles)
        reach = fit.plot.reachability
        assert not np.isnan(reach).any()
        # Only component starts may be infinite.
        finite = reach[np.isfinite(reach)]
        assert (finite >= 0.0).all()
        expanded = fit.expanded()
        assert not np.isnan(expanded.reachability).any()


class FakeClock:
    """Deterministic monotonic clock: advances ``step`` per read."""

    def __init__(self, step: float) -> None:
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


class TestAnytime:
    def make_clusterer(self, step: float) -> IncrementalClusterer:
        return IncrementalClusterer(
            min_pts=MIN_PTS, clock=FakeClock(step)
        )

    def test_no_deadline_is_direct(self):
        bubbles = build_bubbles(90, 3, 2700)
        fit = self.make_clusterer(0.001).fit(bubbles)
        assert fit.source == "cold"
        assert fit.stages == ()
        assert fit.quality == 1.0

    def test_deadline_with_budget_reaches_full_quality(self):
        bubbles = build_bubbles(90, 3, 2700)
        fit = self.make_clusterer(1e-6).fit(
            bubbles, deadline_seconds=10.0
        )
        assert fit.quality == 1.0
        assert len(fit.stages) == 2  # 64 then 90 bubbles
        assert fit.source == "anytime"
        qualities = [s.quality for s in fit.stages]
        assert qualities == sorted(qualities)  # monotone refinement

    def test_tight_deadline_still_returns_a_valid_tree(self):
        bubbles = build_bubbles(90, 3, 2700)
        # Every clock read advances a full second: the deadline is blown
        # immediately, but the first stage must never yield to it.
        fit = self.make_clusterer(1.0).fit(bubbles, deadline_seconds=0.5)
        assert len(fit.stages) == 1
        assert fit.stages[0].size == 64
        assert 0.0 < fit.quality < 1.0
        assert fit.source == "anytime"
        assert fit.num_bubbles == 64
        assert len(fit.tree.leaves()) >= 1
        # The subset keeps the heaviest bubbles, so coverage is high.
        assert fit.quality > 0.5

    def test_subset_stage_matches_the_reference(self):
        """The 64-bubble stage is a cold fit of its subset: bit for bit
        ``optics_over_summaries``, and 64·63/2 computed distances."""
        bubbles = build_bubbles(90, 3, 2700)
        counter = DistanceCounter()
        fit = IncrementalClusterer(
            min_pts=MIN_PTS, counter=counter, clock=FakeClock(1.0)
        ).fit(bubbles, deadline_seconds=0.5)
        assert fit.num_bubbles == 64 and fit.source == "anytime"
        counts, reps, extents, core = bubbles.features(
            fit.bubble_ids, MIN_PTS
        )
        ref = optics_over_summaries(
            reps, extents, counts, core, min_pts=MIN_PTS
        )
        assert np.array_equal(fit.plot.ordering, ref.ordering)
        assert np.array_equal(fit.plot.reachability, ref.reachability)
        assert np.array_equal(fit.plot.core_distances, ref.core_distances)
        assert counter.snapshot().computed == 64 * 63 // 2

    def test_anytime_is_deterministic_under_a_fake_clock(self):
        fits = []
        for _ in range(2):
            bubbles = build_bubbles(90, 3, 2700)
            fit = self.make_clusterer(1.0).fit(
                bubbles, deadline_seconds=0.5
            )
            fits.append(fit)
        a, b = fits
        assert np.array_equal(a.bubble_ids, b.bubble_ids)
        assert np.array_equal(a.plot.ordering, b.plot.ordering)
        assert np.array_equal(a.plot.reachability, b.plot.reachability)
        assert a.quality == b.quality
        assert [s.size for s in a.stages] == [s.size for s in b.stages]

    def test_small_sets_fit_in_one_stage(self):
        bubbles = build_bubbles(24, 3, 900)
        fit = self.make_clusterer(1e-6).fit(
            bubbles, deadline_seconds=10.0
        )
        # num <= FIRST_STAGE_BUBBLES: single full stage, full quality.
        assert fit.quality == 1.0
        assert len(fit.stages) == 1

    def test_deadline_on_cached_idset_repairs_instead(self):
        bubbles = build_bubbles(40, 3, 1500)
        clusterer = IncrementalClusterer(
            min_pts=MIN_PTS, clock=FakeClock(1e-6)
        )
        clusterer.fit(bubbles)
        rng = np.random.default_rng(6)
        apply_move(bubbles, 11, 0, rng)
        fit = clusterer.fit(bubbles, deadline_seconds=10.0)
        # A repairable cache beats staged re-walking.
        assert fit.source == "repair"
        assert fit.quality == 1.0


class TestClustererWiring:
    def test_fit_sources_and_stats_rollup(self):
        bubbles = build_bubbles(32, 3, 1200)
        clusterer = IncrementalClusterer(min_pts=MIN_PTS)
        assert clusterer.fit(bubbles).source == "cold"
        assert clusterer.fit(bubbles).source == "hit"
        rng = np.random.default_rng(7)
        apply_move(bubbles, 3, 0, rng)
        assert clusterer.fit(bubbles).source == "repair"
        stats = clusterer.stats()
        assert stats["fits"] == 3
        assert stats["cache_hits"] == 1
        assert stats["repairs"] == 1
        assert stats["rebuilds"] == 1
        assert stats["last_source"] == "repair"
        assert stats["last_quality"] == 1.0
        assert stats["last_leaves"] >= 1

    def test_repair_equivalence_survives_maintainer_batches(self):
        """End-to-end: maintainer-applied batches, then repair ≡ cold."""
        from repro import (
            IncrementalMaintainer,
            MaintenanceConfig,
            UpdateBatch,
        )

        rng = np.random.default_rng(8)
        store = PointStore(dim=3)
        store.insert(
            rng.normal(3.0, 2.5, size=(1200, 3)), labels=[0] * 1200
        )
        bubbles = BubbleBuilder(
            BubbleConfig(num_bubbles=32, seed=3)
        ).build(store)
        maintainer = IncrementalMaintainer(
            bubbles, store, config=MaintenanceConfig()
        )
        clusterer = IncrementalClusterer(min_pts=MIN_PTS)
        clusterer.fit(bubbles)
        for _ in range(3):
            maintainer.apply_batch(
                UpdateBatch(
                    insertions=rng.normal(3.0, 2.0, size=(40, 3)),
                    insertion_labels=tuple([0] * 40),
                )
            )
            fit = clusterer.fit(bubbles)
            fresh, _ = ClusterCache(min_pts=MIN_PTS).refresh(bubbles)
            assert np.array_equal(fit.plot.ordering, fresh.plot.ordering)
            assert np.array_equal(
                fit.plot.reachability, fresh.plot.reachability
            )
            assert fit.quality == 1.0

    def test_held_fit_survives_later_repairs_and_rebuilds(self):
        """A returned fit is a value: later fits never write into it.

        A repair keeps the cached state and refreshes the touched rows'
        features; it once wrote the new counts into the array an earlier
        fit held, so that fit's ``expanded()`` paired its plot with the
        new counts.
        """
        bubbles = build_bubbles(32, 3, 1200)
        clusterer = IncrementalClusterer(min_pts=MIN_PTS)
        rng = np.random.default_rng(5)

        def arrays(fit):
            expanded = fit.expanded()
            return [
                a.copy()
                for a in (
                    fit.bubble_ids,
                    fit.counts,
                    fit.virtual_reachability,
                    fit.plot.ordering,
                    fit.plot.reachability,
                    fit.plot.core_distances,
                    expanded.reachability,
                    expanded.source,
                )
            ]

        held = [clusterer.fit(bubbles)]
        frozen = [arrays(held[0])]
        # Absorb, release (repairs), add a bubble, drain one (rebuilds).
        for move, source in ((0, "repair"), (1, "repair"), (5, "rebuild"),
                             (3, "rebuild")):
            apply_move(bubbles, int(held[-1].bubble_ids[3]), move, rng)
            fit = clusterer.fit(bubbles)
            assert fit.source == source
            for old, before in zip(held, frozen):
                after = arrays(old)
                assert all(
                    a.tobytes() == b.tobytes() for a, b in zip(after, before)
                )
            held.append(fit)
            frozen.append(arrays(fit))

    def test_expanded_plot_attributes_points_to_bubbles(self):
        bubbles = build_bubbles(24, 3, 900)
        fit = IncrementalClusterer(min_pts=MIN_PTS).fit(bubbles)
        expanded = fit.expanded()
        assert expanded.reachability.shape[0] == int(fit.counts.sum())
        assert set(np.unique(expanded.source)) <= set(
            int(i) for i in fit.bubble_ids
        )


class _Leaves:
    """A cluster-tree stand-in that only knows its leaf spans."""

    def __init__(self, spans):
        self._leaves = [ClusterNode(start=s, end=e) for s, e in spans]

    def leaves(self):
        return self._leaves


def fake_fit(bubble_ids, counts, spans, ordering=None):
    """A full-quality fit with the given leaves over ``ordering``."""
    num = len(bubble_ids)
    if ordering is None:
        ordering = np.arange(num)
    plot = ReachabilityPlot(
        ordering=np.asarray(ordering, dtype=np.int64),
        reachability=np.full(num, 1.0),
        core_distances=np.full(num, 1.0),
    )
    return ClusterFit(
        version=0,
        bubble_ids=np.asarray(bubble_ids, dtype=np.int64),
        counts=np.asarray(counts, dtype=np.int64),
        virtual_reachability=np.full(num, 1.0),
        plot=plot,
        tree=_Leaves(spans),
        source="cold",
        quality=1.0,
    )


class ReferenceLineage:
    """``ClusterLineage.observe`` as it was: every pair of leaves compared.

    Kept verbatim as the oracle for the one-pass overlap count.
    """

    def __init__(self) -> None:
        self._next_id = 0
        self._fit_index = -1
        self._previous: list[tuple[int, dict[int, int]]] = []
        self.events: list[LineageEvent] = []

    @property
    def live_clusters(self) -> int:
        return len(self._previous)

    def observe(self, fit) -> list[LineageEvent]:
        self._fit_index += 1
        current: list[dict[int, int]] = []
        ordering = fit.plot.ordering
        for leaf in fit.tree.leaves():
            if leaf.end <= leaf.start:
                continue
            members = {
                int(fit.bubble_ids[c]): int(fit.counts[c])
                for c in ordering[leaf.start : leaf.end]
            }
            current.append(members)

        overlaps: list[tuple[int, int, int]] = []
        for new_i, members in enumerate(current):
            for prev_i, (_, prev_members) in enumerate(self._previous):
                shared = sum(
                    count
                    for bid, count in members.items()
                    if bid in prev_members
                )
                if shared > 0:
                    overlaps.append((shared, new_i, prev_i))
        overlaps.sort(key=lambda item: (-item[0], item[1], item[2]))
        new_to_prev: dict[int, int] = {}
        claimed_prev: set[int] = set()
        for _, new_i, prev_i in overlaps:
            if new_i in new_to_prev or prev_i in claimed_prev:
                continue
            new_to_prev[new_i] = prev_i
            claimed_prev.add(prev_i)

        produced: list[LineageEvent] = []
        next_previous: list[tuple[int, dict[int, int]]] = []
        for new_i, members in enumerate(current):
            points = sum(members.values())
            if new_i in new_to_prev:
                lineage_id, prev_members = self._previous[
                    new_to_prev[new_i]
                ]
                gained = tuple(
                    sorted(b for b in members if b not in prev_members)
                )
                lost = tuple(
                    sorted(b for b in prev_members if b not in members)
                )
                if gained or lost:
                    produced.append(
                        LineageEvent(
                            kind="drifted",
                            cluster_id=lineage_id,
                            fit_index=self._fit_index,
                            points=points,
                            gained_bubbles=gained,
                            lost_bubbles=lost,
                        )
                    )
            else:
                lineage_id = self._next_id
                self._next_id += 1
                produced.append(
                    LineageEvent(
                        kind="born",
                        cluster_id=lineage_id,
                        fit_index=self._fit_index,
                        points=points,
                        gained_bubbles=tuple(sorted(members)),
                    )
                )
            next_previous.append((lineage_id, members))
        for prev_i, (lineage_id, prev_members) in enumerate(
            self._previous
        ):
            if prev_i not in claimed_prev:
                produced.append(
                    LineageEvent(
                        kind="died",
                        cluster_id=lineage_id,
                        fit_index=self._fit_index,
                        points=sum(prev_members.values()),
                        lost_bubbles=tuple(sorted(prev_members)),
                    )
                )
        self._previous = next_previous
        self.events.extend(produced)
        return produced


@st.composite
def leaf_fits(draw):
    """A fit over a random id set: a random ordering cut into leaves.

    Ids come from a small pool, so they enter and leave between fits;
    some leaves are empty or dropped (noise), and counts may be zero.
    """
    pool = draw(
        st.lists(st.integers(0, 15), min_size=1, max_size=16, unique=True)
    )
    ids = sorted(pool)
    num = len(ids)
    counts = draw(
        st.lists(st.integers(0, 6), min_size=num, max_size=num)
    )
    ordering = draw(st.permutations(range(num)))
    cuts = sorted(
        draw(st.lists(st.integers(0, num), max_size=6)) + [0, num]
    )
    spans = [
        span
        for span in zip(cuts[:-1], cuts[1:])
        if draw(st.integers(0, 4))  # drop about one leaf in five
    ]
    return fake_fit(ids, counts, spans, ordering)


class TestLineage:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(leaf_fits(), min_size=1, max_size=6))
    def test_observe_matches_the_pairwise_reference(self, fits):
        lineage, reference = ClusterLineage(), ReferenceLineage()
        for fit in fits:
            assert lineage.observe(fit) == reference.observe(fit)
            assert lineage.live_clusters == reference.live_clusters
        assert lineage.events == reference.events

    def leaf_fit(self, bubbles, clusterer):
        fit = clusterer.fit(bubbles)
        assert fit.quality == 1.0
        return fit

    def test_first_fit_births_every_leaf(self):
        bubbles = build_bubbles(32, 3, 1200)
        clusterer = IncrementalClusterer(min_pts=MIN_PTS)
        fit = self.leaf_fit(bubbles, clusterer)
        lineage = clusterer.lineage
        born = [e for e in lineage.events if e.kind == "born"]
        assert len(born) == len(
            [
                leaf
                for leaf in fit.tree.leaves()
                if leaf.end > leaf.start
            ]
        )
        assert lineage.live_clusters == len(born)

    def test_unchanged_refit_is_silent(self):
        bubbles = build_bubbles(32, 3, 1200)
        clusterer = IncrementalClusterer(min_pts=MIN_PTS)
        self.leaf_fit(bubbles, clusterer)
        events_before = len(clusterer.lineage.events)
        self.leaf_fit(bubbles, clusterer)  # cache hit, same membership
        assert len(clusterer.lineage.events) == events_before

    def test_drift_and_death_are_recorded(self):
        lineage = ClusterLineage()
        # Two leaves: {10, 11} and {12, 13}.
        events = lineage.observe(
            fake_fit(
                [10, 11, 12, 13],
                [5, 5, 5, 5],
                [(0, 2), (2, 4)],
            )
        )
        assert [e.kind for e in events] == ["born", "born"]
        # Leaf one gains bubble 14; leaf two dies.
        events = lineage.observe(
            fake_fit([10, 11, 14], [5, 5, 5], [(0, 3)])
        )
        kinds = sorted(e.kind for e in events)
        assert kinds == ["died", "drifted"]
        drift = next(e for e in events if e.kind == "drifted")
        assert drift.gained_bubbles == (14,)
        assert lineage.live_clusters == 1


class TestObservabilityWiring:
    def test_spans_and_metrics_cover_the_new_ops(self):
        import pathlib

        from repro.observability import Observability
        from repro.observability.spans import SpanTracer

        obs = Observability(spans=SpanTracer())
        bubbles = build_bubbles(90, 3, 2700)
        clusterer = IncrementalClusterer(
            min_pts=MIN_PTS, obs=obs, clock=FakeClock(1e-6)
        )
        clusterer.fit(bubbles, deadline_seconds=10.0)  # anytime stages
        rng = np.random.default_rng(11)
        apply_move(bubbles, 4, 0, rng)
        clusterer.fit(bubbles)  # repair
        counts = obs.spans.counts()
        assert counts["cluster_fit"] == 2
        assert counts["cluster_stage"] >= 2
        assert counts["cluster_repair"] == 1
        snap = obs.metrics.snapshot()
        assert snap.value("repro_cluster_fits_total") == 2
        assert snap.value("repro_cluster_repairs_total") == 1
        assert snap.value("repro_cluster_anytime_stages_total") >= 2
        # Every op this subsystem emits must be documented (the same
        # drift guard the rest of the taxonomy lives under).
        docs = (
            pathlib.Path(__file__).parent.parent
            / "docs"
            / "OBSERVABILITY.md"
        ).read_text()
        for op in counts:
            assert f"`{op}`" in docs, f"span op {op} not documented"
