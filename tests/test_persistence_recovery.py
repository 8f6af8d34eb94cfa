"""Crash-recovery tests: kill at any point, recover, match the
uninterrupted run bit-for-bit."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DurableSummarizer,
    PersistenceError,
    SlidingWindowSummarizer,
    WalCorruptionError,
)
from repro.persistence import CheckpointManager, recover_state

DIM = 2
WINDOW = 800
PPB = 40
SEED = 7
NUM_CHUNKS = 18
CHECKPOINT_EVERY = 5


@pytest.fixture(scope="module")
def chunks():
    generator = np.random.default_rng(99)
    return [generator.normal(size=(120, DIM)) for _ in range(NUM_CHUNKS)]


@pytest.fixture(scope="module")
def uninterrupted(chunks):
    """The reference: one process, no crash, no persistence."""
    stream = SlidingWindowSummarizer(
        dim=DIM, window_size=WINDOW, points_per_bubble=PPB, seed=SEED
    )
    for chunk in chunks:
        stream.append(chunk)
    return stream


def assert_summaries_identical(a, b):
    """Bit-identical (n, LS, SS), seeds, owned points and store content."""
    assert len(a.summary) == len(b.summary)
    for bubble_a, bubble_b in zip(a.summary, b.summary):
        assert bubble_a.n == bubble_b.n
        assert np.array_equal(bubble_a.seed, bubble_b.seed)
        assert np.array_equal(
            np.asarray(bubble_a.stats.linear_sum),
            np.asarray(bubble_b.stats.linear_sum),
        )
        assert bubble_a.stats.square_sum == bubble_b.stats.square_sum
        assert np.array_equal(
            a.store.owned_by(bubble_a.bubble_id),
            b.store.owned_by(bubble_b.bubble_id),
        )
    ids_a, ids_b = a.store.ids(), b.store.ids()
    assert np.array_equal(ids_a, ids_b)
    assert np.array_equal(a.store.points_of(ids_a), b.store.points_of(ids_b))
    assert np.array_equal(a.store.owners_of(ids_a), b.store.owners_of(ids_b))
    assert a.maintainer.retired_ids == b.maintainer.retired_ids
    assert a.maintainer.rng_state == b.maintainer.rng_state


def run_with_crash(tmp_path, chunks, crash_after):
    """Apply ``crash_after`` chunks, crash, recover, apply the rest."""
    state_dir = tmp_path / "state"
    stream = DurableSummarizer(
        state_dir,
        dim=DIM,
        window_size=WINDOW,
        points_per_bubble=PPB,
        seed=SEED,
        checkpoint_every=CHECKPOINT_EVERY,
        fsync=False,
    )
    for chunk in chunks[:crash_after]:
        stream.append(chunk)
    # Simulated crash: release the file handles WITHOUT the goodbye
    # checkpoint a clean close() would write.
    stream.checkpoints.close()
    del stream

    recovered = DurableSummarizer.recover(state_dir, fsync=False)
    for chunk in chunks[crash_after:]:
        recovered.append(chunk)
    return recovered


class TestKillAndRecover:
    @pytest.mark.parametrize(
        "crash_after",
        # Before bootstrap (k=1), at the bootstrap batch, right before /
        # at / right after a checkpoint boundary, and at the very end.
        [1, 2, 4, 5, 6, 9, 14, 17, 18],
    )
    def test_recovery_matches_uninterrupted_run(
        self, tmp_path, chunks, uninterrupted, crash_after
    ):
        recovered = run_with_crash(tmp_path, chunks, crash_after)
        assert recovered.batches_applied == NUM_CHUNKS
        assert_summaries_identical(uninterrupted, recovered)
        recovered.close()

    def test_double_crash(self, tmp_path, chunks, uninterrupted):
        """Crash, recover, crash again, recover again."""
        state_dir = tmp_path / "state"
        stream = DurableSummarizer(
            state_dir,
            dim=DIM,
            window_size=WINDOW,
            points_per_bubble=PPB,
            seed=SEED,
            checkpoint_every=CHECKPOINT_EVERY,
            fsync=False,
        )
        for chunk in chunks[:7]:
            stream.append(chunk)
        stream.checkpoints.close()

        stream = DurableSummarizer.recover(state_dir, fsync=False)
        for chunk in chunks[7:12]:
            stream.append(chunk)
        stream.checkpoints.close()

        stream = DurableSummarizer.recover(state_dir, fsync=False)
        for chunk in chunks[12:]:
            stream.append(chunk)
        assert_summaries_identical(uninterrupted, stream)
        stream.close()

    def test_torn_final_record_recovers_prefix(self, tmp_path, chunks):
        """A crash mid-append loses only the unacknowledged batch."""
        state_dir = tmp_path / "state"
        stream = DurableSummarizer(
            state_dir,
            dim=DIM,
            window_size=WINDOW,
            points_per_bubble=PPB,
            seed=SEED,
            checkpoint_every=100,  # keep everything in the WAL
            fsync=False,
        )
        for chunk in chunks[:8]:
            stream.append(chunk)
        stream.checkpoints.close()
        wal_path = state_dir / "wal.log"
        wal_path.write_bytes(wal_path.read_bytes()[:-20])  # tear batch 7

        recovered = DurableSummarizer.recover(state_dir, fsync=False)
        assert recovered.batches_applied == 7
        recovered.close()

    def test_corrupt_mid_log_fails_loudly(self, tmp_path, chunks):
        state_dir = tmp_path / "state"
        stream = DurableSummarizer(
            state_dir,
            dim=DIM,
            window_size=WINDOW,
            points_per_bubble=PPB,
            seed=SEED,
            checkpoint_every=100,
            fsync=False,
        )
        for chunk in chunks[:6]:
            stream.append(chunk)
        stream.checkpoints.close()
        wal_path = state_dir / "wal.log"
        data = bytearray(wal_path.read_bytes())
        data[40] ^= 0xFF  # inside record 0's payload — far from the tail
        wal_path.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError):
            DurableSummarizer.recover(state_dir, fsync=False)

    def test_damaged_newest_snapshot_falls_back(
        self, tmp_path, chunks, uninterrupted
    ):
        """Recovery degrades to an older snapshot + a longer replay.

        The WAL is compacted to the oldest *retained* snapshot at each
        checkpoint (not the newest), which is precisely what makes this
        fallback able to replay forward.
        """
        state_dir = tmp_path / "state"
        stream = DurableSummarizer(
            state_dir,
            dim=DIM,
            window_size=WINDOW,
            points_per_bubble=PPB,
            seed=SEED,
            checkpoint_every=4,
            keep_snapshots=3,
            fsync=False,
        )
        for chunk in chunks[:9]:
            stream.append(chunk)
        stream.checkpoints.close()
        manager = CheckpointManager(state_dir, fsync=False)
        newest = manager.snapshot_paths()[0]
        manager.close()
        newest.write_bytes(b"bitrot")
        recovered = DurableSummarizer.recover(state_dir, fsync=False)
        assert recovered.batches_applied == 9
        for chunk in chunks[9:]:
            recovered.append(chunk)
        assert_summaries_identical(uninterrupted, recovered)
        recovered.close()

    def test_empty_directory_fails_loudly(self, tmp_path):
        with pytest.raises(PersistenceError):
            DurableSummarizer.recover(tmp_path / "nothing-here")

    def test_recover_state_reports_tail(self, tmp_path, chunks):
        state_dir = tmp_path / "state"
        stream = DurableSummarizer(
            state_dir,
            dim=DIM,
            window_size=WINDOW,
            points_per_bubble=PPB,
            seed=SEED,
            checkpoint_every=5,
            fsync=False,
        )
        for chunk in chunks[:8]:
            stream.append(chunk)
        stream.checkpoints.close()
        manager = CheckpointManager(
            state_dir, interval=5, keep=2, fsync=False
        )
        recovered = recover_state(manager)
        assert recovered.snapshot_batches == 5
        assert [r.seq for r in recovered.tail] == [5, 6, 7]
        assert recovered.last_seq == 8
        manager.close()
