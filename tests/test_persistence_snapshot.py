"""Unit tests for snapshot serialization and the checkpoint manager."""

from __future__ import annotations

import json
import pathlib
import shutil
import struct
import zipfile
import zlib

import numpy as np
import pytest
from legacy_formats import write_npz_snapshot, write_v2_snapshot

from repro import (
    DurableSummarizer,
    PersistenceError,
    SlidingWindowSummarizer,
    SnapshotError,
)
from repro.persistence import (
    CheckpointManager,
    read_manifest,
    read_snapshot,
    snapshot_paths,
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


STATE_KEYS = (
    "store_ids",
    "store_points",
    "store_labels",
    "store_owners",
    "seeds",
    "ns",
    "linear_sums",
    "square_sums",
)
ARRAY_KEYS = STATE_KEYS + ("member_offsets", "member_ids")
KEEPER_KEYS = (
    "keeper_base",
    "keeper_dists",
    "keeper_drift",
    "keeper_nearest",
    "keeper_last",
)


def container_header(data):
    """The JSON header of a snapshot container and where it ends."""
    (length,) = struct.unpack_from("<I", data, 8)
    return json.loads(data[12 : 12 + length]), 12 + length


def rewrite_container(path, edit):
    """Re-encode the container at ``path`` after ``edit(header)``
    changed its header dict, with a fresh CRC-32."""
    data = path.read_bytes()
    header, end = container_header(data)
    edit(header)
    encoded = json.dumps(header).encode("utf-8")
    blob = data[:8] + struct.pack("<I", len(encoded)) + encoded
    blob += data[end:-4]
    path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))


def assert_recovered_equal(a, b):
    """Bit-equal store, summary and RNG state of two recoveries."""
    assert a.batches_applied == b.batches_applied
    ids = a.store.ids()
    assert np.array_equal(ids, b.store.ids())
    for accessor in ("points_of", "owners_of", "labels_of"):
        assert np.array_equal(
            getattr(a.store, accessor)(ids),
            getattr(b.store, accessor)(ids),
        )
    assert len(a.summary) == len(b.summary)
    for x, y in zip(a.summary, b.summary):
        assert x.n == y.n
        assert np.array_equal(x.seed, y.seed)
        assert np.array_equal(
            np.asarray(x.stats.linear_sum), np.asarray(y.stats.linear_sum)
        )
        assert x.stats.square_sum == y.stats.square_sum
        assert np.array_equal(
            a.store.owned_by(x.bubble_id), b.store.owned_by(y.bubble_id)
        )
    assert a.maintainer.rng_state == b.maintainer.rng_state


def crash_closed_state(state_dir, rng):
    """Ten batches at a checkpoint every four, crash-closed: two
    snapshots and a two-batch WAL tail."""
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
    return stream


def downgrade_snapshots(state_dir, **options):
    """Replace every ``.snap`` in ``state_dir`` by the version-1
    ``.npz`` earlier versions wrote for the same state."""
    snapshots = snapshot_paths(state_dir)
    assert [p.suffix for p in snapshots] == [".snap", ".snap"]
    for snapshot in snapshots:
        legacy = snapshot.with_suffix(".npz")
        write_npz_snapshot(legacy, read_snapshot(snapshot), **options)
        snapshot.unlink()
    return snapshot_paths(state_dir)


class TestSnapshotFormat:
    def test_new_snapshots_are_containers(self, tmp_path, running_stream):
        state = running_stream.capture_state(batches_applied=8)
        path = write_snapshot(tmp_path / "snap.snap", state, fsync=False)
        data = path.read_bytes()
        assert data[:8] == b"RPROSNAP"
        assert struct.unpack("<I", data[-4:])[0] == zlib.crc32(data[:-4])
        header, end = container_header(data)
        assert header["snapshot_version"] == 3
        keys = STATE_KEYS + KEEPER_KEYS
        assert [entry[0] for entry in header["arrays"]] == list(keys)
        assert "member_offsets" not in header and "member_ids" not in header
        # The kept seed matrix follows the summary: R0 and the last reps
        # are K x d, one triangle of D0 holds K(K-1)/2 entries.
        shapes = {entry[0]: entry[2] for entry in header["arrays"]}
        num = len(running_stream.summary)
        assert shapes["keeper_base"] == shapes["keeper_last"] == [num, 3]
        assert shapes["keeper_dists"] == [num * (num - 1) // 2]
        assert shapes["keeper_drift"] == shapes["keeper_nearest"] == [num]
        # The arrays sit back to back, in table order, up to the CRC.
        raw = b"".join(getattr(state, key).tobytes() for key in keys)
        assert data[end:-4] == raw

    def test_bit_flips_in_container_array_data_raise(
        self, tmp_path, running_stream
    ):
        state = running_stream.capture_state()
        path = write_snapshot(tmp_path / "snap.snap", state, fsync=False)
        original = path.read_bytes()
        _, end = container_header(original)
        # 40 offsets spread over every array's bytes, first to last.
        for offset in np.linspace(end, len(original) - 5, 40).astype(int):
            damaged = bytearray(original)
            damaged[offset] ^= 0x10
            path.write_bytes(bytes(damaged))
            with pytest.raises(SnapshotError, match="CRC-32"):
                read_snapshot(path)
        path.write_bytes(original)
        read_snapshot(path)

    def test_bit_flip_in_a_container_shape_raises(
        self, tmp_path, running_stream
    ):
        state = running_stream.capture_state()
        path = write_snapshot(tmp_path / "snap.snap", state, fsync=False)
        data = bytearray(path.read_bytes())
        shape = f'"store_points", "<f8", [{len(state.store_ids)}, 3]'
        at = data.index(shape.encode()) + len(shape) - 2
        assert data[at : at + 1] == b"3"
        data[at] ^= 0x01  # '3' -> '2'
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="CRC-32"):
            read_snapshot(path)

    def test_bit_flips_in_array_data_raise(self, tmp_path, running_stream):
        state = running_stream.capture_state()
        path = write_npz_snapshot(tmp_path / "snap.npz", state)
        original = path.read_bytes()
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in ARRAY_KEYS}
        offsets = []
        for key in ARRAY_KEYS:
            raw = arrays[key].tobytes()
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
        path = write_npz_snapshot(tmp_path / "snap.npz", state)
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
        """Earlier versions wrote version-1 ``.npz`` snapshots, some
        deflated; those still load and recover bit for bit."""
        state_dir = tmp_path / "state"
        stream = crash_closed_state(state_dir, rng)
        for snapshot in downgrade_snapshots(state_dir, compressed=True):
            assert snapshot.suffix == ".npz"
            with zipfile.ZipFile(snapshot) as archive:
                assert {i.compress_type for i in archive.infolist()} == {
                    zipfile.ZIP_DEFLATED
                }

        recovered = DurableSummarizer.recover(state_dir, fsync=False)
        try:
            assert recovered.batches_applied == 10
            assert_recovered_equal(stream, recovered)
        finally:
            recovered.close(checkpoint=False)

    def test_stored_snapshot_from_earlier_versions_recovers(
        self, tmp_path, rng
    ):
        state_dir = tmp_path / "state"
        stream = crash_closed_state(state_dir, rng)
        for snapshot in downgrade_snapshots(state_dir):
            with zipfile.ZipFile(snapshot) as archive:
                assert {i.compress_type for i in archive.infolist()} == {
                    zipfile.ZIP_STORED
                }
        recovered = DurableSummarizer.recover(state_dir, fsync=False)
        try:
            assert recovered.batches_applied == 10
            assert_recovered_equal(stream, recovered)
            # The recovery wrote no snapshot: the .npz generation stays.
            assert [p.suffix for p in snapshot_paths(state_dir)] == [
                ".npz",
                ".npz",
            ]
        finally:
            recovered.close()
        # A clean close checkpoints the replayed tail as a container.
        newest = snapshot_paths(state_dir)[0]
        assert newest.name == "snapshot-000000000010.snap"

    def test_version_2_container_recovers(self, tmp_path, rng):
        """Version-2 containers hold no kept seed matrix; they load with
        an empty one and recover bit for bit."""
        state_dir = tmp_path / "state"
        stream = crash_closed_state(state_dir, rng)
        for snapshot in snapshot_paths(state_dir):
            write_v2_snapshot(snapshot, read_snapshot(snapshot))
            header, _ = container_header(snapshot.read_bytes())
            assert header["snapshot_version"] == 2
            assert len(header["arrays"]) == len(STATE_KEYS)
        recovered = DurableSummarizer.recover(state_dir, fsync=False)
        try:
            assert recovered.batches_applied == 10
            assert_recovered_equal(stream, recovered)
        finally:
            recovered.close(checkpoint=False)

    @pytest.mark.parametrize("earlier", ["v2", "npz", "npz-deflated"])
    def test_earlier_versions_load_with_an_empty_keeper(
        self, tmp_path, running_stream, earlier
    ):
        state = running_stream.capture_state(batches_applied=8)
        assert state.keeper_drift.size  # the live keeper is not empty
        path = tmp_path / "snap"
        if earlier == "v2":
            write_v2_snapshot(path, state)
        else:
            write_npz_snapshot(path, state, compressed=earlier != "npz")
        loaded = read_snapshot(path)
        for key in KEEPER_KEYS:
            assert getattr(loaded, key).size == 0, key
        for key in STATE_KEYS:
            assert getattr(loaded, key).tobytes() == (
                getattr(state, key).tobytes()
            ), key
        restored = SlidingWindowSummarizer.from_state(loaded)
        assert restored.maintainer.assigner_cache.export() is None

    def test_removed_assignment_keys_are_ignored_on_recovery(
        self, tmp_path, rng
    ):
        """Snapshots and manifests from versions that still had a seed
        index and assignment workers carry ``use_seed_index`` and
        ``assign_workers`` in their config; recovery ignores both and
        ends bit for bit where the same state without them ends."""
        plain_dir = tmp_path / "plain"
        crash_closed_state(plain_dir, rng)  # the WAL tail is replayed
        old_dir = tmp_path / "old"
        shutil.copytree(plain_dir, old_dir)
        removed = {"use_seed_index": True, "assign_workers": 2}
        downgrade_snapshots(old_dir, compressed=True, extra_config=removed)
        manifest_path = old_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["config"].update(removed)
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

        plain = DurableSummarizer.recover(plain_dir, fsync=False)
        old = DurableSummarizer.recover(old_dir, fsync=False)
        try:
            assert old.batches_applied == plain.batches_applied == 10
            assert_recovered_equal(plain, old)
        finally:
            plain.close(checkpoint=False)
            old.close(checkpoint=False)

    def test_unknown_config_keys_in_a_container_are_ignored(
        self, tmp_path, rng
    ):
        plain_dir = tmp_path / "plain"
        crash_closed_state(plain_dir, rng)
        extra_dir = tmp_path / "extra"
        shutil.copytree(plain_dir, extra_dir)
        for snapshot in snapshot_paths(extra_dir):
            rewrite_container(
                snapshot,
                lambda header: header["config"].update(
                    {"use_seed_index": True, "assign_workers": 2}
                ),
            )
        plain = DurableSummarizer.recover(plain_dir, fsync=False)
        extra = DurableSummarizer.recover(extra_dir, fsync=False)
        try:
            assert_recovered_equal(plain, extra)
        finally:
            plain.close(checkpoint=False)
            extra.close(checkpoint=False)

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
            arrays = {name: getattr(state, name) for name in STATE_KEYS}
            arrays["member_offsets"], arrays["member_ids"] = (
                stream.summary.member_csr()
            )
            for name in ARRAY_KEYS:
                actual = np.asarray(arrays[name])
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
            "snapshot-000000000004.snap",
            "snapshot-000000000003.snap",
        ]
        manager.close()

    def test_both_suffixes_form_one_sequence(self, tmp_path, running_stream):
        """Snapshots of earlier versions (``.npz``) and containers
        (``.snap``) are listed, pruned and read as one sequence."""
        for batches in (1, 3):
            write_npz_snapshot(
                tmp_path / f"snapshot-{batches:012d}.npz",
                running_stream.capture_state(batches_applied=batches),
            )
        manager = CheckpointManager(tmp_path, interval=1, keep=2, fsync=False)
        manager.checkpoint(running_stream.capture_state(batches_applied=2))
        names = [p.name for p in manager.snapshot_paths()]
        assert names == [
            "snapshot-000000000003.npz",
            "snapshot-000000000002.snap",
        ]
        assert manager.latest_state().batches_applied == 3
        manager.checkpoint(running_stream.capture_state(batches_applied=3))
        names = [p.name for p in manager.snapshot_paths()]
        # At an equal batch count the container ranks newer.
        assert names == [
            "snapshot-000000000003.snap",
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
        document = read_manifest(tmp_path)
        assert document["dim"] == 2
        assert document["seed"] is None
        manager.close()

    def test_missing_manifest_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path, fsync=False)
        with pytest.raises(PersistenceError):
            read_manifest(tmp_path)
        manager.close()
