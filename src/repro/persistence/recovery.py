"""Crash recovery: latest valid snapshot + WAL tail replay.

Recovery reverses the write-ahead contract. At any crash point the durable
truth is (a) the newest snapshot that was fully written and (b) every WAL
record that was fsync'd after the state that snapshot captured. This module
assembles exactly that pair:

1. find the newest *loadable* snapshot (damaged ones fall back to older —
   see :meth:`~repro.persistence.checkpoint.CheckpointManager.latest_state`);
2. replay the WAL, repairing a torn final record (an append interrupted by
   the crash was never acknowledged, so dropping it is correct) and
   failing loudly on mid-log corruption anywhere in it;
3. decode only records with ``seq >= batches_applied`` — older records
   are leftovers of a crash between "snapshot written" and "WAL
   truncated" (or the tail an older retained snapshot would need) and
   are already reflected in the snapshot, so they are verified but never
   decoded;
4. sanity-check that the tail is gapless and starts where the snapshot
   ends, so a mismatched snapshot/log pairing cannot silently skip or
   double-apply batches.

The tail batches are then pushed through the normal maintenance path by
:class:`~repro.streaming.DurableSummarizer` — recovery *is* incremental
maintenance, just sourced from disk, which is why it beats rebuilding the
summary from raw points (the paper's incremental-vs-rebuild framing,
Figure 7, applied to process lifetimes).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

from ..exceptions import CorruptStateError, PersistenceError
from ..observability.spans import maybe_span
from .checkpoint import CheckpointManager
from .state import SummarizerState
from .wal import WalRecord

__all__ = ["RecoveredState", "recover_state"]


@dataclass(frozen=True)
class RecoveredState:
    """What recovery found on disk.

    Attributes:
        state: the newest loadable snapshot, or ``None`` when the process
            crashed before the first checkpoint (replay then starts from
            an empty summarizer).
        tail: WAL records still to be replayed, in order.
        last_seq: the stream position after replaying ``tail`` — the seq
            the next appended batch will receive.
    """

    state: SummarizerState | None
    tail: tuple[WalRecord, ...]
    last_seq: int

    @property
    def snapshot_batches(self) -> int:
        """How many batches the snapshot (if any) already covers."""
        return 0 if self.state is None else self.state.batches_applied


def recover_state(
    manager: CheckpointManager,
    obs=None,
) -> RecoveredState:
    """Collect snapshot + replayable tail from a state directory.

    Args:
        obs: observability handle; the scan runs under a
            ``recovery_scan`` span when span tracing is enabled.

    Raises:
        PersistenceError: the directory holds no durable state, or the
            snapshot and log disagree in a way replay cannot bridge.
        CorruptStateError: every snapshot generation failed to load (or
            was pruned) while the log has already been compacted past
            batch zero — the missing history cannot be replayed.
        WalCorruptionError: the log is damaged before its tail.
    """
    with maybe_span(obs, "recovery_scan"):
        return _recover_state_inner(manager)


def _recover_state_inner(manager: CheckpointManager) -> RecoveredState:
    state = manager.latest_state()
    covered = 0 if state is None else state.batches_applied
    records = manager.wal.replay(min_seq=covered)
    if state is None and records and records[0].seq > 0:
        # The log was compacted up to some snapshot generation, but no
        # snapshot loads: the batches before records[0].seq are gone.
        # This is distinct from an out-of-order log (below) — the
        # operator's fix is to restore a quarantined/backed-up snapshot,
        # not to repair the WAL.
        raise CorruptStateError(
            f"no snapshot in {manager.directory} loads, but the WAL "
            f"starts at batch {records[0].seq}: batches 0.."
            f"{records[0].seq - 1} are unrecoverable. Restore a "
            f"snapshot-* file (quarantined copies are kept as "
            f"*.corrupt) or rebuild from the source stream."
        )
    tail = tuple(records)

    expected = covered
    for record in tail:
        if record.seq != expected:
            raise PersistenceError(
                f"WAL tail is not contiguous with the snapshot: expected "
                f"batch {expected}, found {record.seq} in "
                f"{manager.wal.path}"
            )
        expected += 1

    return RecoveredState(state=state, tail=tail, last_seq=expected)


def recovery_exists(wal_dir: str | pathlib.Path) -> bool:
    """Whether ``wal_dir`` looks like a durable summarizer directory."""
    return (pathlib.Path(wal_dir) / "manifest.json").exists()
