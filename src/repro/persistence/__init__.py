"""Durable state for incremental bubble maintenance.

The paper's promise is a summary that is "available at any point in time"
over a changing database — this package extends that availability across
process lifetimes. It provides:

* :mod:`~repro.persistence.wal` — an append-only, checksummed write-ahead
  log of :class:`~repro.database.UpdateBatch` records;
* :mod:`~repro.persistence.snapshot` — versioned, atomically-written
  snapshots of the full summarizer state (raw sufficient statistics,
  seeds, memberships, store content, RNG state);
* :mod:`~repro.persistence.checkpoint` — cadence control: snapshot every
  K batches, then truncate the log;
* :mod:`~repro.persistence.recovery` — loads the newest valid snapshot
  and assembles the WAL tail for replay through the normal maintenance
  path, tolerating a torn final record;
* :mod:`~repro.persistence.state` — the
  :class:`~repro.persistence.state.SummarizerState` value object the
  other modules exchange.

The user-facing entry point is
:class:`~repro.streaming.DurableSummarizer`, which wires a
:class:`~repro.streaming.SlidingWindowSummarizer` to all of the above.
See ``docs/PERSISTENCE.md`` for the formats and the recovery semantics.
"""

from .checkpoint import CheckpointManager, read_manifest
from .recovery import RecoveredState, recover_state, recovery_exists
from .snapshot import SNAPSHOT_VERSION, read_snapshot, write_snapshot
from .state import SummarizerState, config_from_dict, config_to_dict
from .wal import (
    ChainReport,
    WalRecord,
    WriteAheadLog,
    decode_batch,
    encode_batch,
    verify_chain,
)

__all__ = [
    "ChainReport",
    "CheckpointManager",
    "RecoveredState",
    "SNAPSHOT_VERSION",
    "SummarizerState",
    "WalRecord",
    "WriteAheadLog",
    "config_from_dict",
    "config_to_dict",
    "decode_batch",
    "encode_batch",
    "read_manifest",
    "read_snapshot",
    "recover_state",
    "recovery_exists",
    "verify_chain",
    "write_snapshot",
]
