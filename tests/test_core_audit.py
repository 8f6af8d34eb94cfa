"""Self-healing invariant audits: detect, repair, re-verify."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AuditReport,
    BubbleBuilder,
    BubbleConfig,
    InvariantAuditor,
    PointStore,
    SlidingWindowSummarizer,
)
from repro.core import verify_consistency
from repro.observability import EventTracer, Observability


@pytest.fixture
def world(rng):
    store = PointStore(dim=2)
    store.insert(rng.normal(size=(300, 2)), np.zeros(300, dtype=np.int64))
    bubbles = BubbleBuilder(BubbleConfig(num_bubbles=10, seed=0)).build(
        store
    )
    return store, bubbles


def point_of(store, pid):
    return store.points_of(np.asarray([pid], dtype=np.int64))[0]


def retire_first(maintainer):
    """Move the first non-empty bubble's points to the second and park
    the first; returns ``(retired_id, target_id)``."""
    store, bubbles = maintainer.store, maintainer.bubbles
    retired_bid, target_bid = bubbles.non_empty_ids()[:2]
    ids = store.owned_by(retired_bid)
    bubbles[retired_bid].clear()
    bubbles[target_bid].absorb_many(store.points_of(ids))
    store.set_owners(ids, np.full(ids.size, target_bid, dtype=np.int64))
    maintainer.restore_retired(set(maintainer.retired_ids) | {retired_bid})
    return retired_bid, target_bid


class TestAuditReport:
    def test_healthy_when_clean(self):
        assert AuditReport(ok=True).healthy

    def test_healthy_when_repaired(self):
        assert AuditReport(ok=False, post_repair_ok=True).healthy

    def test_unhealthy_when_repair_failed_or_skipped(self):
        assert not AuditReport(ok=False, post_repair_ok=False).healthy
        assert not AuditReport(ok=False, violations=("x",)).healthy


class TestCleanAudit:
    def test_fresh_build_audits_clean(self, world):
        store, bubbles = world
        report = InvariantAuditor(bubbles, store).audit()
        assert report.ok
        assert report.healthy
        assert report.violations == ()
        assert report.repaired_bubbles == ()
        assert report.post_repair_ok is None

    def test_clean_audit_does_not_mutate(self, world):
        store, bubbles = world
        ids = store.ids()

        def state():
            return (
                [b.stats.n for b in bubbles],
                store.owners_of(ids).tolist(),
            )

        before = state()
        InvariantAuditor(bubbles, store).audit()
        assert state() == before


class TestRepairs:
    def test_stats_drift_is_repaired(self, world):
        store, bubbles = world
        victim = bubbles.non_empty_ids()[0]
        # A phantom point in the statistics only: n/LS/SS drift away
        # from the points the owner column gives the bubble.
        bubbles[victim].absorb(np.array([50.0, 50.0]))
        assert not verify_consistency(bubbles, store).ok

        report = InvariantAuditor(bubbles, store).audit()
        assert not report.ok
        assert report.post_repair_ok is True
        assert report.healthy
        assert victim in report.repaired_bubbles
        assert verify_consistency(bubbles, store).ok

    def test_orphaned_point_is_rehomed_to_nearest_bubble(self, world):
        store, bubbles = world
        victim = bubbles.non_empty_ids()[0]
        pid = int(store.owned_by(victim)[0])
        bubbles[victim].release(point_of(store, pid))
        store.set_owner(pid, -1)  # owned by no bubble
        assert not verify_consistency(bubbles, store).ok
        sq = ((bubbles.reps() - point_of(store, pid)) ** 2).sum(axis=1)

        report = InvariantAuditor(bubbles, store).audit()
        assert report.healthy
        assert report.reassigned_points == 1
        # The point is owned again — by the bubble whose representative
        # is nearest — and that bubble's statistics include it.
        assert store.owner(pid) == int(np.argmin(sq))
        assert verify_consistency(bubbles, store).ok

    def test_ownership_mismatch_is_rewritten(self, world):
        store, bubbles = world
        donor = bubbles.non_empty_ids()[0]
        other = bubbles.non_empty_ids()[1]
        pid = int(store.owned_by(donor)[0])
        store.set_owners(
            np.asarray([pid], dtype=np.int64),
            np.asarray([other], dtype=np.int64),
        )
        assert not verify_consistency(bubbles, store).ok

        report = InvariantAuditor(bubbles, store).audit()
        assert report.healthy
        # The owner column is the truth: the point stays with `other`,
        # and both bubbles' statistics are rewritten to match it.
        assert report.reassigned_points == 0
        assert set(report.repaired_bubbles) == {donor, other}
        assert store.owner(pid) == other
        assert verify_consistency(bubbles, store).ok

    def test_healthy_bubbles_keep_their_float_history(self, world):
        store, bubbles = world
        victim = bubbles.non_empty_ids()[0]
        untouched = bubbles.non_empty_ids()[1]
        before_ls = np.asarray(bubbles[untouched].stats.linear_sum).copy()
        before_ss = bubbles[untouched].stats.square_sum
        bubbles[victim].absorb(np.array([50.0, 50.0]))

        report = InvariantAuditor(bubbles, store).audit()
        assert report.healthy
        # Only the drifted bubble was rebuilt; the healthy one keeps its
        # insertion-order floating-point history bit-for-bit.
        assert untouched not in report.repaired_bubbles
        assert np.array_equal(
            np.asarray(bubbles[untouched].stats.linear_sum), before_ls
        )
        assert bubbles[untouched].stats.square_sum == before_ss

    def test_repair_false_reports_without_mutating(self, world):
        store, bubbles = world
        victim = bubbles.non_empty_ids()[0]
        bubbles[victim].absorb(np.array([50.0, 50.0]))
        drifted_n = bubbles[victim].stats.n

        report = InvariantAuditor(bubbles, store).audit(repair=False)
        assert not report.ok
        assert not report.healthy
        assert report.violations
        assert report.post_repair_ok is None
        assert bubbles[victim].stats.n == drifted_n  # untouched
        assert not verify_consistency(bubbles, store).ok


class TestRetiredBubbles:
    @pytest.fixture
    def stream(self, rng):
        stream = SlidingWindowSummarizer(
            dim=2, window_size=400, points_per_bubble=20, seed=5
        )
        for _ in range(8):
            stream.append(rng.normal(size=(60, 2)))
        assert stream.is_ready()
        return stream

    def test_orphans_never_rehomed_into_retired_bubbles(self, stream):
        maintainer = stream.maintainer
        store, bubbles = maintainer.store, maintainer.bubbles
        # Manufacture a retired bubble: move its points elsewhere
        # through the proper primitives, then park it.
        retired_bid, target_bid = retire_first(maintainer)
        assert verify_consistency(bubbles, store).ok

        # Now orphan a point sitting right on the retired bubble's seed
        # neighbourhood and audit: it must land in an *active* bubble.
        pid = int(store.owned_by(target_bid)[0])
        bubbles[target_bid].release(point_of(store, pid))
        store.set_owner(pid, -1)
        report = InvariantAuditor.for_maintainer(maintainer).audit()
        assert report.healthy
        assert bubbles[retired_bid].is_empty()
        assert store.owned_by(retired_bid).size == 0
        assert store.owner(pid) not in (None, retired_bid)

    def test_point_claimed_only_by_retired_bubble_is_rescued(self, stream):
        maintainer = stream.maintainer
        store, bubbles = maintainer.store, maintainer.bubbles
        # Properly retire an emptied bubble first...
        retired_bid, target_bid = retire_first(maintainer)
        # ...then corrupt: a point owned (and counted) by the retired
        # bubble. Statistics and column agree, but retired bubbles must
        # stay empty.
        pid = int(store.owned_by(target_bid)[0])
        point = point_of(store, pid)
        bubbles[target_bid].release(point)
        bubbles[retired_bid].absorb(point)
        store.set_owner(pid, retired_bid)
        assert verify_consistency(bubbles, store).ok

        report = InvariantAuditor.for_maintainer(maintainer).audit()
        assert not report.ok
        assert report.healthy
        assert bubbles[retired_bid].is_empty()
        assert store.owner(pid) not in (None, retired_bid)


class TestObservability:
    def test_audit_counters_and_events(self, world):
        store, bubbles = world
        obs = Observability(tracer=EventTracer())
        auditor = InvariantAuditor(bubbles, store, obs=obs)

        auditor.audit()  # clean
        victim = bubbles.non_empty_ids()[0]
        bubbles[victim].absorb(np.array([50.0, 50.0]))
        auditor.audit()  # drifted: repairs

        assert obs.metrics.get("repro_audit_runs_total").value == 2
        assert obs.metrics.get("repro_audit_violations_total").value >= 1
        assert obs.metrics.get("repro_audit_repairs_total").value >= 1
        assert obs.tracer.counts().get("audit") == 2
        repair_events = obs.tracer.events("audit_repair")
        assert len(repair_events) == 1
        assert repair_events[0].fields["post_repair_ok"] is True

    def test_for_maintainer_inherits_the_maintainer_obs(self, rng):
        obs = Observability(tracer=EventTracer())
        stream = SlidingWindowSummarizer(
            dim=2, window_size=400, points_per_bubble=20, seed=5, obs=obs
        )
        for _ in range(4):
            stream.append(rng.normal(size=(60, 2)))
        auditor = InvariantAuditor.for_maintainer(stream.maintainer)
        auditor.audit()
        assert obs.metrics.get("repro_audit_runs_total").value == 1
