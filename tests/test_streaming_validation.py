"""Ingestion screening policies and periodic audits in the stream path."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DurableSummarizer,
    InvalidPointError,
    SlidingWindowSummarizer,
)
from repro.core import BAD_POINT_POLICIES, screen_chunk
from repro.core.validate import check_policy
from repro.exceptions import InvalidConfigError
from repro.observability import EventTracer, Observability
from repro.streaming import QUARANTINE_CAPACITY


def chunk_with_nans(rng, m=40, bad_rows=(3, 17)):
    points = rng.normal(size=(m, 2))
    for i, row in enumerate(bad_rows):
        points[row, i % 2] = np.nan if i % 2 == 0 else np.inf
    return points


class TestCheckPolicy:
    @pytest.mark.parametrize("policy", BAD_POINT_POLICIES)
    def test_valid_policies_pass_through(self, policy):
        assert check_policy(policy) == policy

    def test_invalid_policy_rejected(self):
        with pytest.raises(InvalidConfigError, match="on_bad_point"):
            check_policy("ignore")


class TestScreenChunk:
    def test_clean_chunk_passes_untouched(self, rng):
        points = rng.normal(size=(10, 2))
        labels = tuple(range(10))
        screened = screen_chunk(points, labels, 2, "strict")
        assert screened.points is points
        assert screened.labels == labels
        assert screened.num_rejected == 0

    def test_strict_raises_on_nan(self, rng):
        points = chunk_with_nans(rng)
        with pytest.raises(InvalidPointError, match="NaN/Inf"):
            screen_chunk(points, tuple([-1] * 40), 2, "strict")

    def test_invalid_point_error_is_a_value_error(self, rng):
        # Backward compatibility: malformed input at this boundary was
        # historically a ValueError.
        points = chunk_with_nans(rng)
        with pytest.raises(ValueError):
            screen_chunk(points, tuple([-1] * 40), 2, "strict")

    def test_skip_drops_only_the_bad_rows(self, rng):
        points = chunk_with_nans(rng, bad_rows=(3, 17))
        labels = tuple(range(40))
        screened = screen_chunk(points, labels, 2, "skip")
        assert screened.points.shape == (38, 2)
        assert np.isfinite(screened.points).all()
        assert screened.num_rejected == 2
        assert {r.row for r in screened.rejected} == {3, 17}
        assert all(r.reason == "non_finite" for r in screened.rejected)
        # Labels stay aligned with the surviving rows.
        assert 3 not in screened.labels and 17 not in screened.labels
        assert len(screened.labels) == 38

    def test_dimension_mismatch_damns_the_whole_chunk(self, rng):
        points = rng.normal(size=(10, 3))
        with pytest.raises(InvalidPointError, match=r"\(m, 2\)"):
            screen_chunk(points, tuple([-1] * 10), 2, "strict")
        screened = screen_chunk(points, tuple([-1] * 10), 2, "skip")
        assert screened.points.shape == (0, 2)
        assert screened.num_rejected == 10
        assert all(
            r.reason == "dimension_mismatch" for r in screened.rejected
        )


class TestSlidingWindowPolicies:
    def make_stream(self, policy, obs=None, audit_every=0):
        return SlidingWindowSummarizer(
            dim=2,
            window_size=400,
            points_per_bubble=20,
            seed=9,
            obs=obs,
            on_bad_point=policy,
            audit_every=audit_every,
        )

    def test_invalid_policy_rejected_at_construction(self):
        with pytest.raises(InvalidConfigError):
            self.make_stream("ignore")

    def test_negative_audit_every_rejected(self):
        with pytest.raises(InvalidConfigError, match="audit_every"):
            self.make_stream("strict", audit_every=-1)

    def test_strict_raises_and_ingests_nothing(self, rng):
        stream = self.make_stream("strict")
        with pytest.raises(InvalidPointError):
            stream.append(chunk_with_nans(rng))
        assert stream.size == 0
        assert stream.rejected_points == 0

    def test_skip_drops_counts_and_continues(self, rng):
        stream = self.make_stream("skip")
        stream.append(chunk_with_nans(rng, m=60, bad_rows=(1, 2, 3)))
        assert stream.size == 57
        assert stream.rejected_points == 3
        assert stream.quarantined == ()  # skip does not retain
        # The stream keeps working normally afterwards.
        for _ in range(6):
            stream.append(rng.normal(size=(60, 2)))
        assert stream.is_ready()
        assert stream.audit().healthy

    def test_quarantine_retains_the_rejects(self, rng):
        stream = self.make_stream("quarantine")
        stream.append(chunk_with_nans(rng, m=60, bad_rows=(1, 2, 3)))
        assert stream.rejected_points == 3
        assert len(stream.quarantined) == 3
        assert {r.row for r in stream.quarantined} == {1, 2, 3}
        assert all(
            not np.isfinite(r.point).all() for r in stream.quarantined
        )

    def test_quarantine_is_capacity_bounded(self, rng):
        stream = SlidingWindowSummarizer(
            dim=2,
            window_size=QUARANTINE_CAPACITY * 4,
            points_per_bubble=20,
            seed=9,
            on_bad_point="quarantine",
        )
        chunk = rng.normal(size=(700, 2))
        chunk[:, 0] = np.nan  # every row is bad
        stream.append(chunk)
        stream.append(chunk)
        assert stream.rejected_points == 1400
        assert len(stream.quarantined) == QUARANTINE_CAPACITY

    def test_rejections_are_counted_and_traced(self, rng):
        obs = Observability(tracer=EventTracer())
        stream = self.make_stream("skip", obs=obs)
        stream.append(chunk_with_nans(rng, m=60, bad_rows=(1, 2)))
        metric = obs.metrics.get(
            "repro_points_rejected_total", labels={"reason": "non_finite"}
        )
        assert metric is not None and metric.value == 2
        events = obs.tracer.events("bad_points_rejected")
        assert len(events) == 1
        assert events[0].fields["count"] == 2
        assert events[0].fields["policy"] == "skip"
        assert events[0].fields["non_finite"] == 2


class TestPeriodicAudit:
    def test_audit_every_runs_and_records(self, rng):
        obs = Observability(tracer=EventTracer())
        stream = SlidingWindowSummarizer(
            dim=2,
            window_size=400,
            points_per_bubble=20,
            seed=9,
            obs=obs,
            audit_every=2,
        )
        for _ in range(8):
            stream.append(rng.normal(size=(60, 2)))
        # Audits only run once the maintainer exists; with 60-point
        # chunks and 2*20 bootstrap, chunks 2,4,6,8 qualify.
        assert obs.metrics.get("repro_audit_runs_total").value == 4
        assert stream.last_audit is not None
        assert stream.last_audit.healthy

    def test_periodic_audit_heals_injected_drift(self, rng):
        stream = SlidingWindowSummarizer(
            dim=2,
            window_size=400,
            points_per_bubble=20,
            seed=9,
            audit_every=1,
        )
        for _ in range(4):
            stream.append(rng.normal(size=(60, 2)))
        victim = stream.summary.non_empty_ids()[0]
        stream.summary[victim].absorb(np.array([99.0, 99.0]))
        stream.append(rng.normal(size=(60, 2)))
        assert stream.last_audit is not None
        assert not stream.last_audit.ok  # it saw the drift...
        assert stream.last_audit.healthy  # ...and repaired it

    def test_audit_disabled_by_default(self, rng):
        obs = Observability(tracer=EventTracer())
        stream = SlidingWindowSummarizer(
            dim=2, window_size=400, points_per_bubble=20, seed=9, obs=obs
        )
        for _ in range(6):
            stream.append(rng.normal(size=(60, 2)))
        assert obs.metrics.get("repro_audit_runs_total") is None


class TestDurablePolicies:
    def test_rejected_rows_never_reach_the_wal(self, tmp_path, rng):
        stream = DurableSummarizer(
            tmp_path,
            dim=2,
            window_size=400,
            points_per_bubble=20,
            seed=9,
            fsync=False,
            checkpoint_every=100,
            on_bad_point="skip",
        )
        stream.append(chunk_with_nans(rng, m=60, bad_rows=(5, 6)))
        assert stream.rejected_points == 2
        records = stream.checkpoints.wal.replay()
        assert len(records) == 1
        logged = records[0].batch.insertions
        assert logged.shape == (58, 2)
        assert np.isfinite(logged).all()
        stream._manager.close()

        # Replay (crash recovery) sees only the clean history.
        recovered = DurableSummarizer.recover(tmp_path, fsync=False)
        assert recovered.size == 58
        assert recovered.rejected_points == 0  # nothing to re-reject
        recovered.close()

    def test_policy_round_trips_through_the_manifest(self, tmp_path, rng):
        stream = DurableSummarizer(
            tmp_path,
            dim=2,
            window_size=400,
            points_per_bubble=20,
            seed=9,
            fsync=False,
            on_bad_point="quarantine",
        )
        stream.append(rng.normal(size=(60, 2)))
        stream.close()

        recovered = DurableSummarizer.recover(tmp_path, fsync=False)
        assert recovered.on_bad_point == "quarantine"
        recovered.append(chunk_with_nans(rng, m=60, bad_rows=(0,)))
        assert recovered.rejected_points == 1
        assert len(recovered.quarantined) == 1
        recovered.close()

    def test_old_manifest_defaults_to_strict(self, tmp_path, rng):
        import json

        stream = DurableSummarizer(
            tmp_path,
            dim=2,
            window_size=400,
            points_per_bubble=20,
            seed=9,
            fsync=False,
            on_bad_point="skip",
        )
        stream.append(rng.normal(size=(60, 2)))
        stream.close()
        # Rewrite the manifest as an older version of the code would
        # have written it: no on_bad_point key at all.
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["on_bad_point"]
        manifest_path.write_text(json.dumps(manifest))

        recovered = DurableSummarizer.recover(tmp_path, fsync=False)
        assert recovered.on_bad_point == "strict"
        with pytest.raises(InvalidPointError):
            recovered.append(chunk_with_nans(rng, m=60, bad_rows=(0,)))
        recovered.close()

    def test_empty_after_screening_chunk_keeps_seq_contiguous(
        self, tmp_path, rng
    ):
        stream = DurableSummarizer(
            tmp_path,
            dim=2,
            window_size=400,
            points_per_bubble=20,
            seed=9,
            fsync=False,
            checkpoint_every=100,
            on_bad_point="skip",
        )
        stream.append(rng.normal(size=(60, 2)))
        all_bad = np.full((10, 2), np.nan)
        stream.append(all_bad)  # fully rejected: an empty batch
        stream.append(rng.normal(size=(60, 2)))
        assert stream.batches_applied == 3
        records = stream.checkpoints.wal.replay()
        assert [r.seq for r in records] == [0, 1, 2]
        assert records[1].batch.insertions.shape == (0, 2)
        stream._manager.close()

        recovered = DurableSummarizer.recover(tmp_path, fsync=False)
        assert recovered.batches_applied == 3
        assert recovered.size == 120
        recovered.close()

    def test_durable_audit_delegates(self, tmp_path, rng):
        stream = DurableSummarizer(
            tmp_path,
            dim=2,
            window_size=400,
            points_per_bubble=20,
            seed=9,
            fsync=False,
        )
        for _ in range(4):
            stream.append(rng.normal(size=(60, 2)))
        assert stream.audit().healthy
        stream.close()
