"""Degraded-mode recovery: quarantine, torn tails, missing generations."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CorruptStateError, DurableSummarizer
from repro.observability import EventTracer, Observability
from repro.persistence import CheckpointManager, recover_state

DIM = 2
WINDOW = 400
PPB = 20


def run_stream(wal_dir, num_chunks, checkpoint_every=4, obs=None):
    stream = DurableSummarizer(
        wal_dir,
        dim=DIM,
        window_size=WINDOW,
        points_per_bubble=PPB,
        seed=11,
        checkpoint_every=checkpoint_every,
        fsync=False,
        obs=obs,
    )
    generator = np.random.default_rng(42)
    for _ in range(num_chunks):
        stream.append(generator.normal(size=(60, DIM)))
    return stream


class TestEmptyWal:
    def test_manifest_only_directory_recovers_fresh(self, tmp_path):
        # Crash immediately after creation: manifest + empty WAL, no
        # snapshot, no records.
        stream = run_stream(tmp_path, num_chunks=0)
        stream._manager.close()  # no goodbye checkpoint

        recovered = DurableSummarizer.recover(tmp_path, fsync=False)
        assert recovered.batches_applied == 0
        assert recovered.size == 0
        recovered.close()

    def test_recover_state_reports_empty_tail(self, tmp_path):
        stream = run_stream(tmp_path, num_chunks=0)
        stream._manager.close()
        manager = CheckpointManager(tmp_path, fsync=False)
        recovered = recover_state(manager)
        assert recovered.state is None
        assert recovered.tail == ()
        assert recovered.last_seq == 0
        manager.close()


class TestTornFirstRecord:
    def test_torn_only_record_is_truncated_with_warning(self, tmp_path):
        stream = run_stream(tmp_path, num_chunks=1, checkpoint_every=100)
        stream._manager.close()
        wal_path = tmp_path / "wal.log"
        data = wal_path.read_bytes()
        assert len(data) > 8  # magic + one record
        # Tear the one-and-only record in half, as a crash mid-append
        # would have.
        wal_path.write_bytes(data[: 8 + (len(data) - 8) // 2])

        obs = Observability(tracer=EventTracer())
        manager = CheckpointManager(tmp_path, fsync=False, obs=obs)
        recovered = recover_state(manager)
        assert recovered.state is None
        assert recovered.tail == ()
        # The repair was traced, and the file now holds only the magic.
        assert obs.tracer.counts().get("wal_torn_tail") == 1
        assert wal_path.read_bytes() == data[:8]
        manager.close()

    def test_recovery_continues_after_torn_first_record(self, tmp_path):
        stream = run_stream(tmp_path, num_chunks=1, checkpoint_every=100)
        stream._manager.close()
        wal_path = tmp_path / "wal.log"
        data = wal_path.read_bytes()
        wal_path.write_bytes(data[: 8 + (len(data) - 8) // 2])

        recovered = DurableSummarizer.recover(tmp_path, fsync=False)
        assert recovered.batches_applied == 0
        recovered.append(np.random.default_rng(1).normal(size=(60, DIM)))
        assert recovered.batches_applied == 1
        recovered.close()


class TestMissingSnapshotGeneration:
    def test_all_snapshots_gone_raises_corrupt_state(self, tmp_path):
        stream = run_stream(tmp_path, num_chunks=10, checkpoint_every=4)
        stream.close()
        # The WAL has been compacted past batch 0; deleting every
        # snapshot leaves an unrecoverable gap.
        removed = 0
        for snapshot in tmp_path.glob("snapshot-*.npz"):
            snapshot.unlink()
            removed += 1
        assert removed >= 1

        with pytest.raises(CorruptStateError) as excinfo:
            DurableSummarizer.recover(tmp_path, fsync=False)
        message = str(excinfo.value)
        assert "unrecoverable" in message
        assert "*.corrupt" in message  # actionable: where to look

    def test_all_snapshots_corrupt_raises_corrupt_state(self, tmp_path):
        stream = run_stream(tmp_path, num_chunks=10, checkpoint_every=4)
        stream.close()
        snapshots = sorted(tmp_path.glob("snapshot-*.npz"))
        assert snapshots
        for snapshot in snapshots:
            snapshot.write_bytes(b"not a zip archive")

        with pytest.raises(CorruptStateError):
            DurableSummarizer.recover(tmp_path, fsync=False)
        # Every damaged generation was quarantined, none deleted.
        assert not list(tmp_path.glob("snapshot-*.npz"))
        assert len(list(tmp_path.glob("*.corrupt"))) == len(snapshots)


class TestQuarantineFallback:
    def test_corrupt_newest_falls_back_to_older_generation(self, tmp_path):
        obs = Observability(tracer=EventTracer())
        stream = run_stream(tmp_path, num_chunks=8, checkpoint_every=4)
        stream.close()
        snapshots = sorted(tmp_path.glob("snapshot-*.npz"))
        assert len(snapshots) >= 2
        newest = snapshots[-1]
        original = newest.read_bytes()
        newest.write_bytes(original[: len(original) // 2])  # torn at rest

        manager = CheckpointManager(tmp_path, fsync=False, obs=obs)
        recovered = recover_state(manager)
        # Fallback: the older generation loaded, and the WAL tail (kept
        # since the oldest retained snapshot) replays forward from it.
        assert recovered.state is not None
        assert recovered.state.batches_applied < 8
        assert recovered.last_seq == 8
        manager.close()

        quarantined = newest.with_name(newest.name + ".corrupt")
        assert quarantined.exists()  # preserved for forensics
        assert quarantined.read_bytes() == original[: len(original) // 2]
        assert not newest.exists()
        assert obs.tracer.counts().get("snapshot_quarantined") == 1
        counter = obs.metrics.get("repro_snapshots_quarantined_total")
        assert counter is not None and counter.value == 1

    def test_full_recovery_through_the_fallback(self, tmp_path):
        stream = run_stream(tmp_path, num_chunks=8, checkpoint_every=4)
        expected_size = stream.size
        stream.close()
        newest = sorted(tmp_path.glob("snapshot-*.npz"))[-1]
        newest.write_bytes(newest.read_bytes()[:100])

        recovered = DurableSummarizer.recover(tmp_path, fsync=False)
        assert recovered.batches_applied == 8
        assert recovered.size == expected_size
        assert recovered.audit().healthy
        recovered.close()


class TestStaleTmpSweep:
    def test_stale_tmp_removed_at_startup(self, tmp_path):
        stream = run_stream(tmp_path, num_chunks=4)
        stream.close()
        # A crash mid-atomic-write leaves .tmp siblings behind.
        (tmp_path / "snapshot-000000000099.npz.tmp").write_bytes(b"half")
        (tmp_path / "manifest.json.tmp").write_bytes(b"{")

        obs = Observability(tracer=EventTracer())
        manager = CheckpointManager(tmp_path, fsync=False, obs=obs)
        assert not list(tmp_path.glob("*.tmp"))
        assert obs.tracer.counts().get("stale_tmp_removed") == 2
        counter = obs.metrics.get("repro_stale_tmp_removed_total")
        assert counter is not None and counter.value == 2
        manager.close()

    def test_quarantined_snapshots_survive_the_sweep(self, tmp_path):
        stream = run_stream(tmp_path, num_chunks=4)
        stream.close()
        corrupt = tmp_path / "snapshot-000000000004.npz.corrupt"
        corrupt.write_bytes(b"forensic evidence")

        manager = CheckpointManager(tmp_path, fsync=False)
        assert corrupt.exists()
        # And the quarantined file is never offered as a snapshot again.
        assert corrupt not in manager.snapshot_paths()
        manager.close()

    def test_recovery_counts_the_sweep(self, tmp_path):
        stream = run_stream(tmp_path, num_chunks=4)
        stream.close()
        (tmp_path / "snapshot-000000000099.npz.tmp").write_bytes(b"half")

        # Recovery opens one manager, with the caller's obs, so its
        # startup sweep is traced and counted like any other.
        obs = Observability(tracer=EventTracer())
        recovered = DurableSummarizer.recover(tmp_path, fsync=False, obs=obs)
        assert not list(tmp_path.glob("*.tmp"))
        assert obs.tracer.counts().get("stale_tmp_removed") == 1
        counter = obs.metrics.get("repro_stale_tmp_removed_total")
        assert counter is not None and counter.value == 1
        recovered.close()

    def test_recovery_is_unaffected_by_stale_tmp(self, tmp_path):
        stream = run_stream(tmp_path, num_chunks=8)
        expected_size = stream.size
        stream.close()
        (tmp_path / "wal.log.tmp").write_bytes(b"partial compaction")

        recovered = DurableSummarizer.recover(tmp_path, fsync=False)
        assert recovered.size == expected_size
        assert not list(tmp_path.glob("*.tmp"))
        recovered.close()


class TestInternallyInconsistentSnapshot:
    def test_recover_reports_corrupt_state_cleanly(self, tmp_path):
        # A snapshot can decode fine yet violate internal invariants
        # (a buggy writer, or tampering the checksum cannot detect).
        # Recovery must surface that as CorruptStateError, not a raw
        # ValueError from deep inside state restoration.
        stream = run_stream(tmp_path, num_chunks=8)
        victim = stream.summary.non_empty_ids()[0]
        # Bump n without owning another point: on restore n differs from
        # the count the owner column implies.
        stream.summary[victim].absorb(np.zeros(DIM))
        stream.close()  # the goodbye checkpoint persists the damage

        with pytest.raises(CorruptStateError, match="inconsistent"):
            DurableSummarizer.recover(tmp_path, fsync=False)

    def test_member_arrays_must_match_the_owner_column(self, tmp_path):
        # Swap two points between two bubbles' member lists: every count
        # still agrees, but the lists now contradict the owner column.
        stream = run_stream(tmp_path, num_chunks=8)
        stream.close()
        snapshot = sorted(tmp_path.glob("snapshot-*.npz"))[-1]
        with np.load(snapshot) as archive:
            arrays = {key: archive[key] for key in archive.files}
        offsets, members = arrays["member_offsets"], arrays["member_ids"]
        first, second = np.flatnonzero(np.diff(offsets))[:2]
        i, j = offsets[first], offsets[second]
        members[[i, j]] = members[[j, i]]
        np.savez(snapshot, **arrays)

        with pytest.raises(CorruptStateError, match="owner column"):
            DurableSummarizer.recover(tmp_path, fsync=False)
