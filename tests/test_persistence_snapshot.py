"""Unit tests for snapshot serialization and the checkpoint manager."""

from __future__ import annotations

import json
import pathlib
import shutil
import zipfile

import numpy as np
import pytest

from repro import (
    DurableSummarizer,
    PersistenceError,
    SlidingWindowSummarizer,
    SnapshotError,
)
from repro.persistence import (
    CheckpointManager,
    read_snapshot,
    write_snapshot,
)


@pytest.fixture
def running_stream(rng):
    """A bootstrapped summarizer with some maintenance history."""
    stream = SlidingWindowSummarizer(
        dim=3, window_size=600, points_per_bubble=40, seed=11
    )
    for _ in range(8):
        stream.append(rng.normal(size=(150, 3)))
    return stream


class TestStateRoundTrip:
    def test_bit_identical_summary(self, tmp_path, running_stream):
        state = running_stream.capture_state(batches_applied=8)
        path = write_snapshot(tmp_path / "snap.npz", state, fsync=False)
        restored = SlidingWindowSummarizer.from_state(read_snapshot(path))

        original = running_stream.summary
        copy = restored.summary
        assert len(original) == len(copy)
        for a, b in zip(original, copy):
            assert a.n == b.n
            assert np.array_equal(a.seed, b.seed)
            # Raw statistics — exact equality, not approximate.
            assert np.array_equal(
                np.asarray(a.stats.linear_sum), np.asarray(b.stats.linear_sum)
            )
            assert a.stats.square_sum == b.stats.square_sum
            assert np.array_equal(
                original.store.owned_by(a.bubble_id),
                copy.store.owned_by(b.bubble_id),
            )

    def test_store_round_trip(self, tmp_path, running_stream):
        state = running_stream.capture_state()
        path = write_snapshot(tmp_path / "snap.npz", state, fsync=False)
        restored = SlidingWindowSummarizer.from_state(read_snapshot(path))
        ids = running_stream.store.ids()
        assert np.array_equal(ids, restored.store.ids())
        assert np.array_equal(
            running_stream.store.points_of(ids),
            restored.store.points_of(ids),
        )
        assert np.array_equal(
            running_stream.store.owners_of(ids),
            restored.store.owners_of(ids),
        )
        assert np.array_equal(
            running_stream.store.labels_of(ids),
            restored.store.labels_of(ids),
        )
        assert running_stream.store.next_id == restored.store.next_id

    def test_rng_and_counter_round_trip(self, tmp_path, running_stream):
        state = running_stream.capture_state()
        path = write_snapshot(tmp_path / "snap.npz", state, fsync=False)
        restored = SlidingWindowSummarizer.from_state(read_snapshot(path))
        assert (
            restored.maintainer.rng_state
            == running_stream.maintainer.rng_state
        )
        assert restored.counter.computed == running_stream.counter.computed
        assert restored.counter.pruned == running_stream.counter.pruned
        assert (
            restored.maintainer.retired_ids
            == running_stream.maintainer.retired_ids
        )

    def test_pre_bootstrap_state_round_trips(self, tmp_path, rng):
        stream = SlidingWindowSummarizer(
            dim=2, window_size=500, points_per_bubble=100, seed=0
        )
        stream.append(rng.normal(size=(50, 2)))  # still buffering
        state = stream.capture_state(batches_applied=1)
        path = write_snapshot(tmp_path / "snap.npz", state, fsync=False)
        restored = SlidingWindowSummarizer.from_state(read_snapshot(path))
        assert not restored.is_ready()
        assert restored.size == 50
        assert np.array_equal(stream.store.ids(), restored.store.ids())

    def test_restored_stream_continues_identically(
        self, tmp_path, running_stream, rng
    ):
        """The restored summarizer and the live one stay in lockstep."""
        state = running_stream.capture_state()
        path = write_snapshot(tmp_path / "snap.npz", state, fsync=False)
        restored = SlidingWindowSummarizer.from_state(read_snapshot(path))
        chunk = rng.normal(size=(150, 3))
        running_stream.append(chunk.copy())
        restored.append(chunk.copy())
        for a, b in zip(running_stream.summary, restored.summary):
            assert a.n == b.n
            assert np.array_equal(
                running_stream.store.owned_by(a.bubble_id),
                restored.store.owned_by(b.bubble_id),
            )
            assert a.stats.square_sum == b.stats.square_sum


ARRAY_KEYS = (
    "store_ids",
    "store_points",
    "store_labels",
    "store_owners",
    "seeds",
    "ns",
    "linear_sums",
    "square_sums",
    "member_offsets",
    "member_ids",
)


class TestSnapshotFormat:
    def test_bit_flips_in_array_data_raise(self, tmp_path, running_stream):
        state = running_stream.capture_state()
        path = write_snapshot(tmp_path / "snap.npz", state, fsync=False)
        original = path.read_bytes()
        offsets = []
        for key in ARRAY_KEYS:
            raw = getattr(state, key).tobytes()
            start = original.find(raw)
            # Stored, not deflated: each array's bytes sit in the file
            # verbatim.
            assert start >= 0, key
            offsets.extend(range(start, start + len(raw)))
        # 40 offsets spread over every array's data, first to last byte.
        picks = np.linspace(0, len(offsets) - 1, 40).astype(int)
        for offset in np.asarray(offsets)[picks]:
            damaged = bytearray(original)
            damaged[offset] ^= 0x10
            path.write_bytes(bytes(damaged))
            with pytest.raises(SnapshotError):
                read_snapshot(path)
        path.write_bytes(original)
        read_snapshot(path)

    def test_bit_flip_in_a_shape_raises(self, tmp_path, running_stream):
        """A shape digit flipped to a smaller valid shape: numpy would
        read fewer bytes and never reach the member's CRC-32."""
        state = running_stream.capture_state()
        path = write_snapshot(tmp_path / "snap.npz", state, fsync=False)
        data = bytearray(path.read_bytes())
        shape = f"'shape': {state.store_points.shape}".encode()
        at = data.index(shape) + len(shape) - 2  # the last dimension, 3
        assert data[at : at + 1] == b"3"
        data[at] ^= 0x01  # '3' -> '2'
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="CRC-32"):
            read_snapshot(path)

    def test_compressed_snapshot_from_earlier_versions_recovers(
        self, tmp_path, rng
    ):
        """Earlier versions wrote ``np.savez_compressed`` with the same
        keys; those snapshots still load and recover bit for bit."""
        state_dir = tmp_path / "state"
        stream = DurableSummarizer(
            state_dir,
            dim=2,
            window_size=800,
            points_per_bubble=40,
            seed=7,
            checkpoint_every=4,
            fsync=False,
        )
        for _ in range(10):
            stream.append(rng.normal(size=(120, 2)))
        stream.checkpoints.close()  # crash: no goodbye checkpoint
        snapshots = sorted(state_dir.glob("snapshot-*.npz"))
        assert len(snapshots) == 2
        for snapshot in snapshots:
            with np.load(snapshot) as archive:
                arrays = {key: archive[key] for key in archive.files}
            np.savez_compressed(snapshot, **arrays)
            with zipfile.ZipFile(snapshot) as archive:
                assert {i.compress_type for i in archive.infolist()} == {
                    zipfile.ZIP_DEFLATED
                }
            loaded = read_snapshot(snapshot)
            assert np.array_equal(loaded.square_sums, arrays["square_sums"])

        recovered = DurableSummarizer.recover(state_dir, fsync=False)
        try:
            assert recovered.batches_applied == 10
            ids = stream.store.ids()
            assert np.array_equal(ids, recovered.store.ids())
            for accessor in ("points_of", "owners_of", "labels_of"):
                assert np.array_equal(
                    getattr(stream.store, accessor)(ids),
                    getattr(recovered.store, accessor)(ids),
                )
            assert len(stream.summary) == len(recovered.summary)
            for a, b in zip(stream.summary, recovered.summary):
                assert a.n == b.n
                assert np.array_equal(a.seed, b.seed)
                assert np.array_equal(
                    np.asarray(a.stats.linear_sum),
                    np.asarray(b.stats.linear_sum),
                )
                assert a.stats.square_sum == b.stats.square_sum
                assert np.array_equal(
                    stream.store.owned_by(a.bubble_id),
                    recovered.store.owned_by(b.bubble_id),
                )
            assert (
                recovered.maintainer.rng_state == stream.maintainer.rng_state
            )
        finally:
            recovered.close(checkpoint=False)

    def test_removed_assignment_keys_are_ignored_on_recovery(
        self, tmp_path, rng
    ):
        """Snapshots and manifests from versions that still had a seed
        index and assignment workers carry ``use_seed_index`` and
        ``assign_workers`` in their config; recovery ignores both and
        ends bit for bit where the same state without them ends."""
        plain_dir = tmp_path / "plain"
        stream = DurableSummarizer(
            plain_dir,
            dim=2,
            window_size=800,
            points_per_bubble=40,
            seed=7,
            checkpoint_every=4,
            fsync=False,
        )
        for _ in range(10):
            stream.append(rng.normal(size=(120, 2)))
        stream.checkpoints.close()  # crash: the WAL tail is replayed
        old_dir = tmp_path / "old"
        shutil.copytree(plain_dir, old_dir)
        removed = {"use_seed_index": True, "assign_workers": 2}
        snapshots = sorted(old_dir.glob("snapshot-*.npz"))
        assert len(snapshots) == 2
        for snapshot in snapshots:
            with np.load(snapshot) as archive:
                arrays = {key: archive[key] for key in archive.files}
            meta = json.loads(arrays["meta_json"].tobytes().decode("utf-8"))
            meta["config"].update(removed)
            arrays["meta_json"] = np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            )
            np.savez_compressed(snapshot, **arrays)
        manifest_path = old_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["config"].update(removed)
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

        plain = DurableSummarizer.recover(plain_dir, fsync=False)
        old = DurableSummarizer.recover(old_dir, fsync=False)
        try:
            assert old.batches_applied == plain.batches_applied == 10
            ids = plain.store.ids()
            assert np.array_equal(ids, old.store.ids())
            for accessor in ("points_of", "owners_of", "labels_of"):
                assert np.array_equal(
                    getattr(plain.store, accessor)(ids),
                    getattr(old.store, accessor)(ids),
                )
            assert len(plain.summary) == len(old.summary)
            for a, b in zip(plain.summary, old.summary):
                assert a.n == b.n
                assert np.array_equal(
                    np.asarray(a.stats.linear_sum),
                    np.asarray(b.stats.linear_sum),
                )
                assert a.stats.square_sum == b.stats.square_sum
                assert np.array_equal(
                    plain.store.owned_by(a.bubble_id),
                    old.store.owned_by(b.bubble_id),
                )
            assert old.maintainer.rng_state == plain.maintainer.rng_state
        finally:
            plain.close(checkpoint=False)
            old.close(checkpoint=False)

    @pytest.mark.parametrize("fsync", [True, False])
    def test_rename_is_followed_by_directory_fsync(
        self, tmp_path, running_stream, fsync_trace, fsync
    ):
        write_snapshot(
            tmp_path / "snap.npz", running_stream.capture_state(), fsync
        )
        if fsync:
            assert fsync_trace == ["fsync_file", "replace", "fsync_dir"]
        else:
            assert fsync_trace == ["replace"]


class TestMemberSetStateFixture:
    """A state directory written while bubbles kept member-id sets
    (``tests/fixtures/make_member_set_state.py``) still recovers to the
    arrays that version's own recovery captured."""

    def test_recovers_bit_equal(self, tmp_path):
        fixtures = pathlib.Path(__file__).parent / "fixtures"
        state_dir = tmp_path / "state"
        shutil.copytree(fixtures / "member_set_state", state_dir)
        stream = DurableSummarizer.recover(state_dir, fsync=False)
        try:
            state = stream.inner.capture_state(stream.batches_applied)
            with np.load(fixtures / "member_set_state_expected.npz") as e:
                expected = {key: e[key] for key in e.files}
            for name in ARRAY_KEYS:
                actual = np.asarray(getattr(state, name))
                assert actual.dtype == expected[name].dtype, name
                assert actual.shape == expected[name].shape, name
                assert actual.tobytes() == expected[name].tobytes(), name
            for name in (
                "batches_applied",
                "store_next_id",
                "counter_computed",
                "counter_pruned",
                "max_adjust",
            ):
                assert getattr(state, name) == int(expected[name]), name
            assert state.retired == tuple(expected["retired"].tolist())
            rng_state = json.loads(
                (fixtures / "member_set_state_rng.json").read_text()
            )
            assert state.rng_state == rng_state
        finally:
            stream.close(checkpoint=False)


class TestSnapshotErrors:
    def test_truncated_file_raises_snapshot_error(
        self, tmp_path, running_stream
    ):
        path = write_snapshot(
            tmp_path / "snap.npz",
            running_stream.capture_state(),
            fsync=False,
        )
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_missing_file_raises_snapshot_error(self, tmp_path):
        with pytest.raises(SnapshotError):
            read_snapshot(tmp_path / "nope.npz")

    def test_no_tmp_file_left_behind(self, tmp_path, running_stream):
        write_snapshot(
            tmp_path / "snap.npz",
            running_stream.capture_state(),
            fsync=False,
        )
        assert [p.name for p in tmp_path.iterdir()] == ["snap.npz"]


class TestCheckpointManager:
    def test_checkpoint_truncates_wal(self, tmp_path, running_stream, rng):
        manager = CheckpointManager(tmp_path, interval=4, fsync=False)
        from repro import UpdateBatch

        for seq in range(3):
            manager.wal.append(
                seq,
                UpdateBatch(
                    insertions=rng.normal(size=(5, 3)),
                    insertion_labels=(-1,) * 5,
                ),
            )
        assert len(manager.wal.replay()) == 3
        manager.checkpoint(running_stream.capture_state(batches_applied=3))
        assert manager.wal.replay() == []
        assert len(manager.snapshot_paths()) == 1
        manager.close()

    def test_prunes_old_snapshots(self, tmp_path, running_stream):
        manager = CheckpointManager(tmp_path, interval=1, keep=2, fsync=False)
        for batches in (1, 2, 3, 4):
            manager.checkpoint(
                running_stream.capture_state(batches_applied=batches)
            )
        names = [p.name for p in manager.snapshot_paths()]
        assert names == [
            "snapshot-000000000004.npz",
            "snapshot-000000000003.npz",
        ]
        manager.close()

    def test_latest_state_skips_damaged_snapshot(
        self, tmp_path, running_stream
    ):
        manager = CheckpointManager(tmp_path, interval=1, keep=3, fsync=False)
        manager.checkpoint(running_stream.capture_state(batches_applied=1))
        manager.checkpoint(running_stream.capture_state(batches_applied=2))
        newest = manager.snapshot_paths()[0]
        newest.write_bytes(b"damaged beyond recognition")
        state = manager.latest_state()
        assert state is not None
        assert state.batches_applied == 1
        manager.close()

    def test_latest_state_none_when_all_damaged(
        self, tmp_path, running_stream
    ):
        manager = CheckpointManager(tmp_path, interval=1, fsync=False)
        manager.checkpoint(running_stream.capture_state(batches_applied=1))
        for path in manager.snapshot_paths():
            path.write_bytes(b"zap")
        assert manager.latest_state() is None
        manager.close()

    def test_invalid_parameters_rejected(self, tmp_path):
        with pytest.raises(PersistenceError):
            CheckpointManager(tmp_path, interval=0)
        with pytest.raises(PersistenceError):
            CheckpointManager(tmp_path, keep=0)

    @pytest.mark.parametrize("fsync", [True, False])
    def test_manifest_rename_is_followed_by_directory_fsync(
        self, tmp_path, fsync_trace, fsync
    ):
        manager = CheckpointManager(tmp_path, fsync=fsync)
        fsync_trace.clear()
        manager.write_manifest({"dim": 2})
        if fsync:
            assert fsync_trace == ["fsync_file", "replace", "fsync_dir"]
        else:
            assert fsync_trace == ["replace"]
        manager.close()

    def test_manifest_round_trip(self, tmp_path):
        manager = CheckpointManager(tmp_path, fsync=False)
        manager.write_manifest({"dim": 2, "seed": None})
        document = manager.read_manifest()
        assert document["dim"] == 2
        assert document["seed"] is None
        manager.close()

    def test_missing_manifest_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path, fsync=False)
        with pytest.raises(PersistenceError):
            manager.read_manifest()
        manager.close()
