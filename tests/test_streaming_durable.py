"""Behavioural tests for :class:`repro.DurableSummarizer`.

Crash recovery itself is exercised in ``test_persistence_recovery.py``;
this module covers the no-crash contract: equivalence with the plain
in-memory summarizer, lifecycle (constructor/close/context manager) and
checkpoint cadence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DurableSummarizer,
    PersistenceError,
    SlidingWindowSummarizer,
)
from repro.observability import Observability
from repro.persistence import CheckpointManager

DIM = 2
WINDOW = 600
PPB = 30
SEED = 3


def make_stream(state_dir, **overrides):
    params = dict(
        dim=DIM,
        window_size=WINDOW,
        points_per_bubble=PPB,
        seed=SEED,
        checkpoint_every=4,
        fsync=False,
    )
    params.update(overrides)
    return DurableSummarizer(state_dir, **params)


class TestEquivalence:
    def test_matches_plain_summarizer(self, tmp_path, rng):
        """Durability must not perturb the summary: same chunks, same
        seed, bit-identical statistics."""
        chunks = [rng.normal(size=(90, DIM)) for _ in range(10)]
        plain = SlidingWindowSummarizer(
            dim=DIM, window_size=WINDOW, points_per_bubble=PPB, seed=SEED
        )
        durable = make_stream(tmp_path / "state")
        for chunk in chunks:
            plain.append(chunk.copy())
            durable.append(chunk.copy())
        assert durable.size == plain.size
        assert len(durable.summary) == len(plain.summary)
        for a, b in zip(plain.summary, durable.summary):
            assert a.n == b.n
            assert np.array_equal(a.seed, b.seed)
            assert np.array_equal(
                np.asarray(a.stats.linear_sum),
                np.asarray(b.stats.linear_sum),
            )
            assert a.stats.square_sum == b.stats.square_sum
            assert np.array_equal(
                plain.store.owned_by(a.bubble_id),
                durable.store.owned_by(b.bubble_id),
            )
        durable.close()

    def test_labels_flow_through(self, tmp_path, rng):
        durable = make_stream(tmp_path / "state")
        durable.append(rng.normal(size=(50, DIM)), labels=[5] * 50)
        assert durable.store.ids_with_label(5).size == 50
        durable.close()


class TestLifecycle:
    def test_constructor_refuses_existing_state(self, tmp_path, rng):
        state_dir = tmp_path / "state"
        stream = make_stream(state_dir)
        stream.append(rng.normal(size=(40, DIM)))
        stream.close()
        with pytest.raises(PersistenceError):
            make_stream(state_dir)

    def test_clean_close_checkpoints(self, tmp_path, rng):
        """close() writes a goodbye snapshot: recovery replays nothing."""
        state_dir = tmp_path / "state"
        stream = make_stream(state_dir, checkpoint_every=100)
        for _ in range(3):
            stream.append(rng.normal(size=(40, DIM)))
        stream.close()
        manager = CheckpointManager(state_dir, fsync=False)
        state = manager.latest_state()
        assert state is not None
        assert state.batches_applied == 3
        assert manager.wal.replay() == []
        manager.close()
        recovered = DurableSummarizer.recover(state_dir, fsync=False)
        assert recovered.batches_applied == 3
        recovered.close()

    def test_context_manager_checkpoints_on_clean_exit(self, tmp_path, rng):
        state_dir = tmp_path / "state"
        with make_stream(state_dir, checkpoint_every=100) as stream:
            stream.append(rng.normal(size=(40, DIM)))
        manager = CheckpointManager(state_dir, fsync=False)
        assert len(manager.snapshot_paths()) == 1
        manager.close()

    def test_context_manager_skips_checkpoint_on_exception(
        self, tmp_path, rng
    ):
        """An exception mid-stream must not snapshot possibly-broken
        state; the WAL alone carries the history."""
        state_dir = tmp_path / "state"
        with pytest.raises(RuntimeError):
            with make_stream(state_dir, checkpoint_every=100) as stream:
                stream.append(rng.normal(size=(40, DIM)))
                raise RuntimeError("boom")
        manager = CheckpointManager(state_dir, fsync=False)
        assert manager.snapshot_paths() == []
        assert len(manager.wal.replay()) == 1
        manager.close()

    def test_invalid_chunk_never_reaches_the_log(self, tmp_path, rng):
        """Validation happens before the WAL append — otherwise a bad
        chunk would be durably logged and poison every future replay."""
        state_dir = tmp_path / "state"
        stream = make_stream(state_dir)
        with pytest.raises(ValueError):
            stream.append(rng.normal(size=(10, DIM + 1)))  # wrong dim
        with pytest.raises(ValueError):
            stream.append(rng.normal(size=(WINDOW + 1, DIM)))  # too big
        assert stream.checkpoints.wal.replay() == []
        assert stream.batches_applied == 0
        stream.close()


class TestCheckpointCadence:
    def test_snapshot_every_interval(self, tmp_path, rng):
        state_dir = tmp_path / "state"
        stream = make_stream(state_dir, checkpoint_every=3, keep_snapshots=1)
        for expected in (0, 0, 1, 1, 1, 1):
            stream.append(rng.normal(size=(40, DIM)))
            manager = stream.checkpoints
            assert len(manager.snapshot_paths()) == expected
        # keep=1: the WAL holds only records since the newest snapshot.
        assert [r.seq for r in stream.checkpoints.wal.replay()] == []
        stream.close()

    def test_wal_grows_between_checkpoints(self, tmp_path, rng):
        state_dir = tmp_path / "state"
        stream = make_stream(state_dir, checkpoint_every=10)
        for _ in range(4):
            stream.append(rng.normal(size=(40, DIM)))
        assert [r.seq for r in stream.checkpoints.wal.replay()] == [
            0,
            1,
            2,
            3,
        ]
        stream.close(checkpoint=False)


class _FailingWalEvent(Observability):
    """An observability handle whose next ``wal_append`` event raises,
    as a full trace sink would."""

    armed = False

    def emit(self, kind: str, **fields) -> None:
        if kind == "wal_append" and self.armed:
            self.armed = False
            raise OSError(28, "No space left on device")
        super().emit(kind, **fields)


class TestErrorAfterTheRecordLanded:
    def test_batch_is_applied_before_the_error_leaves(self, tmp_path, rng):
        """The WAL holds the batch once its record is durable, so an
        error after that point (here the ``wal_append`` event) must not
        leave memory behind the log."""
        obs = _FailingWalEvent()
        state_dir = tmp_path / "state"
        stream = make_stream(state_dir, obs=obs, checkpoint_every=100)
        for _ in range(5):
            stream.append(rng.normal(size=(90, DIM)))
        obs.armed = True
        with pytest.raises(OSError, match="No space left"):
            stream.append(rng.normal(size=(90, DIM)))
        assert stream.batches_applied == 6
        live = stream.inner.capture_state(stream.batches_applied)
        stream.checkpoints.close()  # crash: the log alone is durable

        replayed = DurableSummarizer.recover(state_dir, fsync=False)
        try:
            assert replayed.batches_applied == 6
            state = replayed.inner.capture_state(replayed.batches_applied)
            for name in (
                "store_ids",
                "store_points",
                "store_labels",
                "store_owners",
                "seeds",
                "ns",
                "linear_sums",
                "square_sums",
            ):
                assert np.array_equal(
                    getattr(state, name), getattr(live, name)
                ), name
            assert state.rng_state == live.rng_state
            assert state.counter_computed == live.counter_computed
            assert state.counter_pruned == live.counter_pruned
        finally:
            replayed.close(checkpoint=False)
