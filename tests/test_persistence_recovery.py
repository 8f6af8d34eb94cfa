"""Crash-recovery tests: kill at any point, recover, match the
uninterrupted run bit-for-bit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DurableSummarizer,
    PersistenceError,
    SlidingWindowSummarizer,
    WalCorruptionError,
)
from repro.persistence import (
    CheckpointManager,
    recover_state,
    snapshot_paths,
)

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


def _drifting_chunks(count=50, size=40):
    """Two drifting clusters and a third that appears halfway: enough
    movement for splits, merges and rebased matrix rows."""
    generator = np.random.default_rng(2026)
    out = []
    for index in range(count):
        centres = np.array(
            [[0.0, 0.0], [6.0 + 0.2 * index, 2.0], [-4.0, 7.0]]
        )
        labels = generator.integers(2 if index < count // 2 else 3, size=size)
        out.append(centres[labels] + generator.normal(size=(size, 2)))
    return out


def assert_states_equal(a, b):
    """Every field of two captured states, counters included."""
    for name in a.__dataclass_fields__:
        ours, theirs = getattr(a, name), getattr(b, name)
        if isinstance(ours, np.ndarray):
            assert ours.dtype == theirs.dtype, name
            assert ours.tobytes() == theirs.tobytes(), name
        else:
            assert ours == theirs, name


class TestKeptMatrixRecovery:
    """Snapshots carry the kept seed matrix, and neither a scheduled
    checkpoint nor a recovery drops it. So a run stopped anywhere — a
    crash, a clean close, a damaged newest snapshot, or several of them
    in a row — and resumed computes, and counts, the distances of an
    uninterrupted one: its whole captured state, kept matrix included,
    equals that run's."""

    CHECKPOINT_EVERY = 8

    def _open(self, state_dir):
        return DurableSummarizer(
            state_dir,
            dim=2,
            window_size=400,
            points_per_bubble=20,
            seed=3,
            checkpoint_every=self.CHECKPOINT_EVERY,
            fsync=False,
        )

    def _run(self, state_dir, chunks, schedule):
        """The captured end state of a durable stream over ``chunks``
        that stops after each ``(batches, how)`` of ``schedule`` and is
        recovered. ``how`` is ``"crash"`` (no goodbye checkpoint),
        ``"close"`` (a clean close) or ``"bitrot"`` (a crash, then the
        newest snapshot damaged whenever an older one is there to fall
        back to)."""
        stream = self._open(state_dir)
        done = 0
        for stop, how in schedule:
            for chunk in chunks[done:stop]:
                stream.append(chunk)
            done = stop
            if how == "close":
                stream.close()
            else:
                stream.checkpoints.close()
            snapshots = snapshot_paths(state_dir)
            if how == "bitrot" and len(snapshots) > 1:
                snapshots[0].write_bytes(b"bitrot")
            stream = DurableSummarizer.recover(state_dir, fsync=False)
        for chunk in chunks[done:]:
            stream.append(chunk)
        state = stream.inner.capture_state(stream.batches_applied)
        stream.close()
        return state

    @pytest.fixture(scope="class")
    def uninterrupted_state(self, tmp_path_factory):
        reference = self._open(tmp_path_factory.mktemp("reference"))
        for chunk in _drifting_chunks():
            reference.append(chunk)
        cache = reference.maintainer.assigner_cache
        assert cache.hits > cache.misses  # the matrix was kept
        state = reference.inner.capture_state(reference.batches_applied)
        reference.close()
        return state

    @pytest.mark.parametrize(
        "crash_after, bitrot",
        # Between checkpoints, at one, and once with the newest snapshot
        # damaged, so that replay runs through a scheduled position.
        [(37, False), (40, False), (45, False), (45, True)],
    )
    def test_counters_match_uninterrupted_run(
        self, tmp_path, uninterrupted_state, crash_after, bitrot
    ):
        schedule = [(crash_after, "bitrot" if bitrot else "crash")]
        state = self._run(tmp_path / "state", _drifting_chunks(), schedule)
        assert_states_equal(uninterrupted_state, state)

    @pytest.mark.parametrize(
        "schedule",
        [
            # A second crash soon after a recovery.
            [(37, "crash"), (39, "crash")],
            # A clean close between checkpoints, then a resume.
            [(21, "close")],
            [(21, "close"), (30, "crash"), (33, "close")],
        ],
        ids=["crash-37-39", "close-21", "close-21-crash-30-close-33"],
    )
    def test_counters_match_after_crashes_and_closes(
        self, tmp_path, uninterrupted_state, schedule
    ):
        state = self._run(tmp_path / "state", _drifting_chunks(), schedule)
        assert state.counter_computed == uninterrupted_state.counter_computed
        assert_states_equal(uninterrupted_state, state)

    @settings(max_examples=20, deadline=None)
    @given(
        schedule=st.lists(
            st.tuples(
                st.integers(1, 49),
                st.sampled_from(["crash", "close", "bitrot"]),
            ),
            max_size=4,
            unique_by=lambda stop: stop[0],
        ).map(sorted)
    )
    def test_counters_match_under_any_schedule(
        self, tmp_path_factory, uninterrupted_state, schedule
    ):
        state_dir = tmp_path_factory.mktemp("schedule")
        state = self._run(state_dir, _drifting_chunks(), schedule)
        assert_states_equal(uninterrupted_state, state)
