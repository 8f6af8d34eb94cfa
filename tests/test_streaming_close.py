"""Regression tests: DurableSummarizer.close() lifecycle hygiene.

Service shards close their summarizers from several paths (drain,
failure, fleet shutdown, context-manager exit), so double-close must be
a no-op and a *failed* recovery must not leak the WAL file handle it
opened before discovering the corruption.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.exceptions import PersistenceError
from repro.persistence import snapshot_paths
from repro.streaming import DurableSummarizer


def open_fds() -> set[str]:
    """Targets of every open file descriptor of this process."""
    fds = set()
    for entry in os.listdir("/proc/self/fd"):
        try:
            fds.add(os.readlink(f"/proc/self/fd/{entry}"))
        except OSError:
            continue  # the listing fd itself, already gone
    return fds


def build_state(tmp_path, batches=6):
    rng = np.random.default_rng(0)
    summarizer = DurableSummarizer(
        tmp_path / "state", dim=2, window_size=400,
        points_per_bubble=40, seed=0, checkpoint_every=3, fsync=False,
    )
    for _ in range(batches):
        summarizer.append(rng.normal(size=(100, 2)))
    return summarizer


class TestIdempotentClose:
    def test_double_close(self, tmp_path):
        summarizer = build_state(tmp_path)
        batches = summarizer.batches_applied
        summarizer.close()
        summarizer.close()  # must not raise or double-checkpoint
        recovered = DurableSummarizer.recover(
            tmp_path / "state", fsync=False
        )
        assert recovered.batches_applied == batches
        recovered.close()
        recovered.close(checkpoint=False)

    def test_close_without_checkpoint_then_close(self, tmp_path):
        summarizer = build_state(tmp_path)
        summarizer.close(checkpoint=False)
        # Second close must not resurrect the handle to checkpoint.
        summarizer.close(checkpoint=True)

    def test_close_releases_wal_handle(self, tmp_path):
        summarizer = build_state(tmp_path)
        wal_path = str((tmp_path / "state" / "wal.log").resolve())
        assert wal_path in open_fds()
        summarizer.close()
        assert wal_path not in open_fds()

    def test_append_after_close_fails_cleanly(self, tmp_path):
        summarizer = build_state(tmp_path)
        summarizer.close()
        with pytest.raises(Exception):
            summarizer.append(np.zeros((10, 2)))


class TestFailedRecover:
    def test_failed_recover_leaks_no_handles(self, tmp_path):
        build_state(tmp_path).close()
        # Corrupt the newest snapshot: recovery opens the WAL first,
        # then discovers the snapshot is unreadable and must give the
        # handle back.
        snapshots = snapshot_paths(tmp_path / "state")
        assert snapshots
        for snapshot in snapshots:
            snapshot.write_bytes(b"not a real snapshot payload")
        before = open_fds()
        with pytest.raises(PersistenceError):
            DurableSummarizer.recover(tmp_path / "state", fsync=False)
        leaked = open_fds() - before
        assert not leaked, f"failed recover leaked handles: {leaked}"

    def test_failed_recover_allows_retry_after_repair(self, tmp_path):
        summarizer = build_state(tmp_path)
        summarizer.close()
        state_dir = tmp_path / "state"
        snapshots = snapshot_paths(state_dir)
        saved = {p: p.read_bytes() for p in snapshots}
        for snapshot in snapshots:
            snapshot.write_bytes(b"garbage")
        with pytest.raises(PersistenceError):
            DurableSummarizer.recover(state_dir, fsync=False)
        for path, payload in saved.items():
            path.write_bytes(payload)
        # The failed attempt must not have locked or mutated anything
        # that blocks a clean retry.
        recovered = DurableSummarizer.recover(state_dir, fsync=False)
        assert recovered.batches_applied == 6
        recovered.close()
