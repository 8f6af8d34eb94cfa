"""Fleet routing, rollups, drain, and bit-identical crash recovery."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import PersistenceError, ServiceError
from repro.observability import bucket_quantile
from repro.service import (
    FleetConfig,
    FleetManager,
    LoadSpec,
    PointEvent,
    generate_events,
    render_rollup,
    serve_events,
    tenant_seed,
)

SYNC = dict(
    window_size=400,
    points_per_bubble=20,
    checkpoint_every=8,
    fsync=False,
    workers=0,
    queue_points=64,
    batch_points=16,
)

SPEC = LoadSpec(tenants=8, events=1200, seed=7, burst_mean=16.0)


def fingerprint(summarizer) -> dict:
    """Comparable view of a summarizer's complete captured state."""
    state = summarizer.inner.capture_state(summarizer.batches_applied)
    return {name: getattr(state, name) for name in vars(state)}


def assert_states_equal(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for name in a:
        left, right = a[name], b[name]
        if isinstance(left, np.ndarray):
            assert np.array_equal(left, right), f"state field {name}"
        else:
            assert left == right, f"state field {name}"


class TestLayout:
    def test_fleet_manifest_written(self, tmp_path):
        fleet = FleetManager(tmp_path / "fleet", FleetConfig(**SYNC))
        manifest = json.loads(
            (tmp_path / "fleet" / "fleet.json").read_text()
        )
        assert manifest["fleet_version"] == 1
        assert manifest["window_size"] == 400
        assert "queue_points" not in manifest  # runtime knobs not durable
        fleet.drain()

    @pytest.mark.parametrize("fsync", [True, False])
    def test_fleet_manifest_is_durable(self, tmp_path, fsync_trace, fsync):
        fleet = FleetManager(
            tmp_path / "fleet", FleetConfig(**{**SYNC, "fsync": fsync})
        )
        written = list(fsync_trace)
        fleet.drain()
        if fsync:
            assert written == ["fsync_file", "replace", "fsync_dir"]
        else:
            assert written == ["replace"]
        assert not (tmp_path / "fleet" / "fleet.json.tmp").exists()
        assert FleetManager.read_fleet_manifest(tmp_path / "fleet")

    def test_refuses_existing_fleet(self, tmp_path):
        FleetManager(tmp_path / "f", FleetConfig(**SYNC)).drain()
        with pytest.raises(PersistenceError, match="already holds"):
            FleetManager(tmp_path / "f", FleetConfig(**SYNC))

    def test_recover_missing_fleet(self, tmp_path):
        with pytest.raises(PersistenceError, match="no fleet"):
            FleetManager.recover(tmp_path / "nothing")

    def test_tenant_dirs_per_shard(self, tmp_path):
        with FleetManager(tmp_path / "f", FleetConfig(**SYNC)) as fleet:
            fleet.submit(PointEvent(tenant="alpha", point=(1.0, 2.0)))
            fleet.submit(PointEvent(tenant="beta", point=(3.0, 4.0)))
            assert fleet.tenants == ("alpha", "beta")
        assert (tmp_path / "f" / "tenants" / "alpha" / "wal.log").exists()
        assert (tmp_path / "f" / "tenants" / "beta" / "wal.log").exists()


class TestSeeds:
    def test_deterministic_and_distinct(self):
        assert tenant_seed(0, "a") == tenant_seed(0, "a")
        assert tenant_seed(0, "a") != tenant_seed(0, "b")
        assert tenant_seed(1, "a") != tenant_seed(0, "a")
        assert tenant_seed(None, "a") is None
        assert 0 <= tenant_seed(12345, "tenant-007") <= 0x7FFFFFFF


class TestDispatch:
    def test_dimension_mismatch_counted(self, tmp_path):
        with FleetManager(tmp_path / "f", FleetConfig(**SYNC)) as fleet:
            assert not fleet.submit(
                PointEvent(tenant="a", point=(1.0, 2.0, 3.0))
            )
            assert fleet.invalid_points == 1
            assert fleet.tenants == ()  # no shard materialized

    def test_submit_after_drain_raises(self, tmp_path):
        fleet = FleetManager(tmp_path / "f", FleetConfig(**SYNC))
        fleet.drain()
        with pytest.raises(ServiceError, match="draining"):
            fleet.submit(PointEvent(tenant="a", point=(1.0, 2.0)))
        fleet.drain()  # idempotent

    def test_failed_shard_isolated(self, tmp_path, monkeypatch):
        with FleetManager(tmp_path / "f", FleetConfig(**SYNC)) as fleet:
            fleet.submit(PointEvent(tenant="bad", point=(0.0, 0.0)))
            fleet.submit(PointEvent(tenant="good", point=(0.0, 0.0)))

            def boom(points, labels=None):
                raise RuntimeError("torn page")

            monkeypatch.setattr(
                fleet.shard("bad").summarizer, "append", boom
            )
            for i in range(40):  # enough to trip an inline flush
                fleet.submit(
                    PointEvent(tenant="bad", point=(float(i), 0.0))
                )
                fleet.submit(
                    PointEvent(tenant="good", point=(float(i), 0.0))
                )
            rollup = fleet.rollup()
            assert rollup["tenants"]["bad"]["state"] == "failed"
            assert "torn page" in rollup["tenants"]["bad"]["error"]
            assert rollup["tenants"]["good"]["state"] == "running"
            assert fleet.failed_submissions > 0
        # drain (via __exit__) must survive the failed shard
        assert fleet.shard("good").summarizer.size == 41


class TestRollup:
    def test_rollup_and_render(self, tmp_path):
        with FleetManager(tmp_path / "f", FleetConfig(**SYNC)) as fleet:
            for event in generate_events(
                LoadSpec(tenants=4, events=300, seed=1)
            ):
                fleet.submit(event)
            rollup = fleet.rollup()
            # Read the buckets at the rollup's moment: leaving the block
            # drains the queued tail, which adds its waits to them.
            histograms = [
                fleet.shard(tenant)._h_ingest for tenant in fleet.tenants
            ]
            merged = [
                sum(bucket)
                for bucket in zip(*(h.bucket_counts() for h in histograms))
            ]
        assert rollup["schema"] == 1
        assert rollup["fleet"]["tenants"] == 4
        assert rollup["fleet"]["enqueued_points"] == 300
        # The fleet p95 is the quantile of the shards' summed buckets.
        assert sum(merged) > 0
        assert rollup["fleet"]["ingest_p95_seconds"] == bucket_quantile(
            histograms[0].bounds, merged, 0.95
        )
        text = render_rollup(fleet.rollup())
        assert "tenant-000" in text
        assert "states" in text
        assert "backpressure" in text

    def test_fleet_health_documents(self, tmp_path):
        with FleetManager(tmp_path / "f", FleetConfig(**SYNC)) as fleet:
            for event in generate_events(
                LoadSpec(tenants=3, events=200, seed=2)
            ):
                fleet.submit(event)
            health = fleet.fleet_health()
        assert health["schema"] == 1
        assert set(health["shards"]) == {
            "tenant-000", "tenant-001", "tenant-002",
        }
        for document in health["shards"].values():
            assert "stream" in document
            assert "source" in document


class TestBackpressure:
    def test_block_engages_under_threaded_load(self, tmp_path):
        config = FleetConfig(
            **{**SYNC, "workers": 2, "queue_points": 8, "batch_points": 4}
        )
        with FleetManager(tmp_path / "f", config) as fleet:
            stats = serve_events(
                fleet, generate_events(SPEC)
            )
        assert stats.accepted == SPEC.events
        rollup = stats.rollup
        assert rollup["fleet"]["tenants"] == SPEC.tenants
        assert rollup["fleet"]["applied_points"] == SPEC.events
        assert rollup["fleet"]["blocked_submissions"] >= 1
        assert rollup["fleet"]["states"] == {"stopped": SPEC.tenants}

    def test_shed_counts_drops(self, tmp_path):
        config = FleetConfig(
            **{
                **SYNC,
                "workers": 1,
                "queue_points": 4,
                "batch_points": 4,
                "backpressure": "shed",
            }
        )
        with FleetManager(tmp_path / "f", config) as fleet:
            stats = serve_events(
                fleet,
                (
                    PointEvent(tenant="hot", point=(float(i), 0.0))
                    for i in range(3000)
                ),
            )
        assert stats.accepted + stats.dropped == 3000
        rollup = stats.rollup
        assert (
            rollup["fleet"]["applied_points"]
            + rollup["fleet"]["shed_points"]
            == 3000
        )
        assert rollup["fleet"]["applied_points"] == stats.accepted


class TestDeterminismAndRecovery:
    def _run_drained(self, root):
        """Serve SPEC synchronously, drain, return state fingerprints."""
        fleet = FleetManager(root, FleetConfig(**SYNC))
        stats = serve_events(fleet, generate_events(SPEC))
        assert stats.accepted == SPEC.events
        return {
            tenant: fingerprint(fleet.shard(tenant).summarizer)
            for tenant in fleet.tenants
        }

    def test_sync_mode_is_run_to_run_identical(self, tmp_path):
        a = self._run_drained(tmp_path / "a")
        b = self._run_drained(tmp_path / "b")
        assert a.keys() == b.keys()
        for tenant in a:
            assert_states_equal(a[tenant], b[tenant])

    def test_fleet_recovery_bit_identical(self, tmp_path):
        # Run A: uninterrupted serve + graceful drain.
        reference = self._run_drained(tmp_path / "a")

        # Run B: same events, every point durably applied, then a
        # crash-like close (no final checkpoint) and full-fleet recovery.
        fleet = FleetManager(tmp_path / "b", FleetConfig(**SYNC))
        for event in generate_events(SPEC):
            fleet.submit(event)
        for tenant in fleet.tenants:
            fleet.shard(tenant).drain_flush()
        fleet.close()  # checkpoint=False: recovery must replay the WAL

        recovered = FleetManager.recover(
            tmp_path / "b", FleetConfig(**SYNC)
        )
        try:
            assert recovered.tenants == tuple(sorted(reference))
            assert len(recovered.tenants) == SPEC.tenants
            for tenant in recovered.tenants:
                assert_states_equal(
                    reference[tenant],
                    fingerprint(recovered.shard(tenant).summarizer),
                )
        finally:
            recovered.drain()

    def test_recover_merges_durable_params(self, tmp_path):
        fleet = FleetManager(tmp_path / "f", FleetConfig(**SYNC))
        fleet.submit(PointEvent(tenant="a", point=(1.0, 2.0)))
        fleet.drain()
        # The caller's durable fields are overridden by fleet.json; the
        # runtime block (queues, workers) is honored.
        resumed = FleetManager.recover(
            tmp_path / "f",
            FleetConfig(
                dim=9,
                window_size=1,
                workers=0,
                queue_points=32,
                batch_points=8,
                fsync=False,
            ),
        )
        try:
            assert resumed.config.dim == 2
            assert resumed.config.window_size == 400
            assert resumed.config.queue_points == 32
            assert resumed.config.workers == 0
            shard = resumed.shard("a")
            assert shard.queue_points == 32
            assert shard.batch_points == 8
            assert shard.summarizer.size == 1
            # the resumed fleet keeps ingesting
            resumed.submit(PointEvent(tenant="a", point=(5.0, 6.0)))
        finally:
            resumed.drain()
        assert resumed.shard("a").summarizer.size == 2
