"""Checkpoint manager: directory layout, snapshot cadence, WAL truncation.

One durable summarizer owns one state directory::

    <wal_dir>/
        manifest.json          construction parameters + format version
        wal.log                the write-ahead log (repro.persistence.wal)
        snapshot-000000000024.npz   state after the first 24 batches
        snapshot-000000000016.npz   an older snapshot kept as fallback

The durable summarizer snapshots through the manager every ``interval``
applied batches, and each snapshot then truncates the WAL. The ordering
is what makes this crash-safe without any atomicity across the two
files: the snapshot (written atomically, see ``snapshot.py``) lands
first, and only then is the log reset. A crash in
between leaves old records whose ``seq`` precedes the snapshot's
``batches_applied`` — recovery simply skips them.

A bounded number of older snapshots is retained so that a damaged newest
snapshot degrades recovery (older snapshot + longer replay) instead of
defeating it. The WAL-truncation-at-checkpoint step means replaying from an
older snapshot is only possible while its tail is still in the log, so
``keep`` > 1 primarily guards against a snapshot corrupted *at rest* being
the only copy.

Degraded-mode behaviour:

* a snapshot that fails to load is **quarantined** — renamed to
  ``<name>.corrupt`` (never deleted, so forensics stay possible) with a
  traced ``snapshot_quarantined`` warning — and :meth:`latest_state`
  falls back to the previous generation;
* stale ``*.tmp`` files left by a crash mid-write are swept (with a
  traced ``stale_tmp_removed`` warning) when the manager opens the
  directory, so they cannot accumulate across crash loops.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import time

from ..exceptions import PersistenceError, SnapshotError
from ..faults import (
    FAILPOINTS,
    RetryPolicy,
    declare_failpoint,
    fsync_directory,
    maybe_wrap,
)
from ..observability import Observability
from ..observability.spans import maybe_span
from .snapshot import read_snapshot, write_snapshot
from .state import SummarizerState
from .wal import WriteAheadLog

__all__ = ["CheckpointManager", "MANIFEST_VERSION", "read_manifest"]

MANIFEST_VERSION = 1

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{12})\.npz$")

# Crash-matrix failpoints: snapshot_written sits between "snapshot
# durable" and "WAL compacted" (recovery must skip the now-redundant
# records); manifest_tmp_written leaves a directory with no manifest.
_FP_SNAPSHOT_WRITTEN = declare_failpoint("checkpoint.snapshot_written")
_FP_DONE = declare_failpoint("checkpoint.done")
_FP_MANIFEST_TMP = declare_failpoint("manifest.tmp_written")


def read_manifest(wal_dir: str | pathlib.Path) -> dict:
    """Load the manifest of the state directory ``wal_dir``.

    Reads ``manifest.json`` and nothing else: the directory is neither
    created nor swept, so probing a path without durable state leaves it
    exactly as it was.

    Raises:
        PersistenceError: the manifest is missing, unreadable or of an
            unsupported version — there is nothing to recover from.
    """
    directory = pathlib.Path(wal_dir)
    try:
        with open(
            directory / "manifest.json", "r", encoding="utf-8"
        ) as handle:
            document = json.load(handle)
    except FileNotFoundError:
        raise PersistenceError(
            f"{directory} holds no durable summarizer state "
            "(manifest.json is missing)"
        ) from None
    except (OSError, json.JSONDecodeError) as exc:
        raise PersistenceError(
            f"unreadable manifest in {directory}: {exc}"
        ) from exc
    version = int(document.get("manifest_version", -1))
    if version != MANIFEST_VERSION:
        raise PersistenceError(
            f"unsupported manifest version {version} in {directory}"
        )
    return document


class CheckpointManager:
    """Owns one durable-state directory.

    Args:
        wal_dir: the state directory; created when missing.
        interval: snapshot every this many applied batches (the cadence
            :class:`~repro.streaming.DurableSummarizer` applies).
        keep: how many snapshots to retain (newest first).
        fsync: whether WAL appends and snapshot writes flush to disk.
        retry: backoff policy for transient IO errors on WAL appends and
            snapshot writes; a default 3-attempt policy when omitted.
        obs: observability handle; ``None`` disables instrumentation.
    """

    def __init__(
        self,
        wal_dir: str | pathlib.Path,
        interval: int = 16,
        keep: int = 2,
        fsync: bool = True,
        retry: RetryPolicy | None = None,
        obs: Observability | None = None,
    ) -> None:
        if interval < 1:
            raise PersistenceError(
                f"checkpoint interval must be >= 1, got {interval}"
            )
        if keep < 1:
            raise PersistenceError(f"keep must be >= 1, got {keep}")
        self._dir = pathlib.Path(wal_dir)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._interval = int(interval)
        self._keep = int(keep)
        self._fsync = bool(fsync)
        self._retry = retry if retry is not None else RetryPolicy()
        self._obs = obs
        self._sweep_stale_tmp()
        self._wal = WriteAheadLog(
            self._dir / "wal.log", fsync=fsync, retry=self._retry, obs=obs
        )
        self._create_metric_handles(obs)

    def _sweep_stale_tmp(self) -> None:
        """Remove ``*.tmp`` leftovers from crashes mid-atomic-write.

        Every durable artifact in this directory is written to a ``.tmp``
        sibling and ``os.replace``d into place, so any surviving ``.tmp``
        is — by construction — an incomplete write from a dead process.
        Removing it is safe (its content was never acknowledged) and
        keeps crash loops from littering the directory.
        """
        for stale in sorted(self._dir.glob("*.tmp")):
            try:
                size = stale.stat().st_size
                stale.unlink()
            except OSError:  # pragma: no cover - racing/readonly dirs
                continue
            if self._obs is not None:
                self._obs.metrics.counter(
                    "repro_stale_tmp_removed_total",
                    help="Stale *.tmp files swept at startup (crash "
                    "leftovers).",
                ).inc()
                self._obs.emit(
                    "stale_tmp_removed", path=stale.name, bytes=int(size)
                )

    def _create_metric_handles(self, obs: Observability | None) -> None:
        if obs is None:
            return
        m = obs.metrics
        self._m_snapshots = m.counter(
            "repro_snapshot_writes_total",
            help="Snapshot files written by checkpoints.",
        )
        self._m_snapshot_bytes = m.counter(
            "repro_snapshot_bytes_total",
            help="Bytes written into snapshot files.",
            unit="bytes",
        )
        self._m_snapshot_seconds = m.timer(
            "repro_snapshot_seconds",
            help="Wall time of one snapshot write plus WAL compaction.",
        )
        self._m_compactions = m.counter(
            "repro_wal_compactions_total",
            help="WAL compactions performed at checkpoints.",
        )
        self._m_compacted_records = m.counter(
            "repro_wal_compacted_records_total",
            help="WAL records dropped by compaction.",
        )

    # ------------------------------------------------------------------
    # Layout accessors
    # ------------------------------------------------------------------
    @property
    def directory(self) -> pathlib.Path:
        """The managed state directory."""
        return self._dir

    @property
    def wal(self) -> WriteAheadLog:
        """The directory's write-ahead log."""
        return self._wal

    @property
    def interval(self) -> int:
        """Batches between snapshots."""
        return self._interval

    @property
    def manifest_path(self) -> pathlib.Path:
        """Location of the manifest file."""
        return self._dir / "manifest.json"

    def snapshot_paths(self) -> list[pathlib.Path]:
        """Existing snapshot files, newest (highest batch count) first."""
        found = []
        for entry in self._dir.iterdir():
            match = _SNAPSHOT_RE.match(entry.name)
            if match:
                found.append((int(match.group(1)), entry))
        return [path for _, path in sorted(found, reverse=True)]

    def has_state(self) -> bool:
        """Whether the directory already holds durable state."""
        return self.manifest_path.exists()

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def write_manifest(self, params: dict) -> None:
        """Persist construction parameters (atomically) for recovery."""
        document = {"manifest_version": MANIFEST_VERSION, **params}
        payload = (
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        ).encode("utf-8")
        tmp = self.manifest_path.with_name("manifest.json.tmp")
        with open(tmp, "wb") as raw:
            handle = maybe_wrap(raw, "manifest")
            handle.write(payload)
            handle.flush()
            if self._fsync:
                os.fsync(raw.fileno())
        FAILPOINTS.fire(_FP_MANIFEST_TMP)
        os.replace(tmp, self.manifest_path)
        if self._fsync:
            fsync_directory(self._dir)

    def read_manifest(self) -> dict:
        """Load the manifest written at initialization (see
        :func:`read_manifest`)."""
        return read_manifest(self._dir)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, state: SummarizerState) -> pathlib.Path:
        """Write a snapshot of ``state`` and compact the WAL.

        The log keeps the records since the *oldest retained* snapshot:
        the newest snapshot makes them redundant for the primary recovery
        path, but they are exactly what lets
        :meth:`latest_state`'s fallback to an older snapshot still replay
        forward when the newest file is corrupted at rest.
        """
        started = time.perf_counter()
        with maybe_span(
            self._obs, "checkpoint", batches=state.batches_applied
        ):
            path = self._dir / f"snapshot-{state.batches_applied:012d}.npz"
            write_snapshot(
                path, state, fsync=self._fsync, retry=self._retry
            )
            FAILPOINTS.fire(_FP_SNAPSHOT_WRITTEN)
            self._prune_snapshots()
            retained = self.snapshot_paths()
            oldest = (
                min(
                    int(_SNAPSHOT_RE.match(p.name).group(1))
                    for p in retained
                )
                if retained
                else state.batches_applied
            )
            dropped = self._wal.compact(oldest)
        if self._obs is not None:
            elapsed = time.perf_counter() - started
            size = path.stat().st_size
            self._m_snapshots.inc()
            self._m_snapshot_bytes.inc(size)
            self._m_snapshot_seconds.observe(elapsed)
            self._m_compactions.inc()
            self._m_compacted_records.inc(dropped)
            self._obs.emit(
                "snapshot_write",
                batches=state.batches_applied,
                bytes=size,
                seconds=elapsed,
            )
            self._obs.emit(
                "wal_compaction",
                min_seq=oldest,
                dropped_records=dropped,
            )
        FAILPOINTS.fire(_FP_DONE)
        return path

    def latest_state(self) -> SummarizerState | None:
        """The newest snapshot that loads cleanly, or ``None``.

        Damaged snapshots (torn at rest, version drift) are
        **quarantined** — renamed to ``<name>.corrupt`` so a later read
        cannot trip over them again and forensics stay possible — and
        skipped in favour of older ones; recovery then replays a longer
        WAL tail.
        """
        for path in self.snapshot_paths():
            try:
                return read_snapshot(path)
            except SnapshotError as exc:
                self._quarantine_snapshot(path, exc)
                continue
        return None

    def _quarantine_snapshot(
        self, path: pathlib.Path, exc: SnapshotError
    ) -> None:
        """Rename a damaged snapshot to ``*.corrupt`` (never delete it)."""
        target = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - read-only directory
            return
        if self._obs is not None:
            self._obs.metrics.counter(
                "repro_snapshots_quarantined_total",
                help="Damaged snapshots renamed to *.corrupt during "
                "recovery.",
            ).inc()
            self._obs.emit(
                "snapshot_quarantined",
                path=path.name,
                renamed_to=target.name,
                reason=str(exc),
            )

    def close(self) -> None:
        """Release the WAL file handle."""
        self._wal.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _prune_snapshots(self) -> None:
        for stale in self.snapshot_paths()[self._keep:]:
            stale.unlink(missing_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CheckpointManager(dir={str(self._dir)!r}, "
            f"interval={self._interval})"
        )
