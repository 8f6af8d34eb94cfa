"""Append-only write-ahead log of update batches.

The durability contract of the persistence subsystem is write-ahead: every
:class:`~repro.database.UpdateBatch` is appended to this log — and flushed
to disk — *before* it is applied to the in-memory summary. After a crash,
the summary is reconstructed by loading the last snapshot and replaying the
logged batches through the normal maintenance path
(:mod:`repro.persistence.recovery`).

File format (version 2), all integers little-endian:

* an 8-byte file magic ``b"RPROWAL2"``;
* zero or more records, each
  ``[seq: u64][length: u32][crc32: u32][chain: 32B][payload]`` where
  ``seq`` is the zero-based index of the batch in the stream's lifetime,
  ``length`` is the payload size in bytes, ``crc32`` covers the packed
  ``(seq, length)`` header *and* the payload, and ``chain`` is the
  SHA-256 hash-chain digest
  ``sha256(previous_chain + pack("<QI", seq, length) + payload)`` with
  ``sha256(magic)`` as the genesis link — every record's digest covers
  the entire log before it, so any at-rest mutation (a flipped bit, a
  dropped/reordered/replayed record) breaks every subsequent link and is
  reported with the offending ``seq`` (:func:`verify_chain`, and inline
  during :meth:`WriteAheadLog.replay`);
* the payload is an in-memory ``.npz`` archive with the batch's
  ``deletions`` (int64 ids), ``insertions`` (float64 ``(m, d)`` matrix) and
  ``labels`` (int64, one per insertion) — self-describing and free of
  pickled objects.

Version-1 files (magic ``b"RPROWAL1"``, no ``chain`` field) remain fully
readable *and appendable*: an existing v1 log keeps its format for its
whole life (CRC-only integrity), while newly created logs are v2. The
CRC's coverage is identical in both versions, so the torn-tail repair
logic below is version-independent.

Failure semantics on read (:meth:`WriteAheadLog.replay`):

* a **torn final record** — the file ends mid-header or mid-payload, the
  signature of a crash during an append — is truncated away (with a
  traced ``wal_torn_tail`` warning) and replay continues with what came
  before it (the torn batch was never acknowledged as applied, so
  nothing is lost);
* a **checksum or header failure on any complete record** raises
  :class:`~repro.exceptions.WalCorruptionError`: previously fsync'd data
  is damaged and silently skipping it would replay a wrong history.

Failure semantics on write (:meth:`WriteAheadLog.append`):

* **transient** IO errors (``EIO``/``EAGAIN``/``EINTR``/``EBUSY``) are
  retried with bounded exponential backoff
  (:class:`~repro.faults.RetryPolicy`), rolling the file back to the
  last good offset between attempts;
* any append that ultimately fails rolls the file — and the handle
  position — back to the last good offset before raising, so the log
  never accumulates a half-written record from a *surviving* process.

Compaction (:meth:`WriteAheadLog.compact`) reads every record through
the same CRC and hash-chain checks as replay — so it raises on damaged
bytes instead of re-chaining them — and copies the kept records'
headers and payloads verbatim into a temporary file. It never decodes
or re-encodes a batch; only the v2 chain digests are recomputed, from
the genesis link. The file is then ``os.replace``d over the log and,
when fsync is on, the directory is fsynced so later appends land in a
file the directory durably names.

Fault injection: the write/read/fsync paths run through
:mod:`repro.faults` (``io.wal.*`` faults plus the ``wal.*`` failpoints
declared below). With nothing armed, the hooks are a falsy check each.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import pathlib
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from ..database import UpdateBatch
from ..exceptions import WalCorruptionError
from ..faults import (
    FAILPOINTS,
    RetryPolicy,
    declare_failpoint,
    fsync_directory,
    maybe_wrap,
)
from ..faults import fsync as faulty_fsync
from ..observability import Observability

__all__ = [
    "ChainReport",
    "WalRecord",
    "WriteAheadLog",
    "decode_batch",
    "encode_batch",
    "verify_chain",
]

_MAGIC_V1 = b"RPROWAL1"
_MAGIC_V2 = b"RPROWAL2"
_HEADER = struct.Struct("<QII")  # seq, payload length, crc32
_CHAIN_LEN = hashlib.sha256().digest_size  # 32, the v2 chain digest

#: Cap on a single record's payload (guards against reading a garbage
#: length field as a multi-gigabyte allocation).
_MAX_PAYLOAD = 1 << 31

# Crash-matrix failpoints, each at a clean durability boundary.
_FP_APPEND_START = declare_failpoint("wal.append.start")
_FP_APPEND_FLUSHED = declare_failpoint("wal.append.flushed")
_FP_COMPACT_REWRITTEN = declare_failpoint("wal.compact.rewritten")
_FP_COMPACT_REPLACED = declare_failpoint("wal.compact.replaced")


def encode_batch(batch: UpdateBatch) -> bytes:
    """Serialize one batch to the WAL payload format."""
    buffer = io.BytesIO()
    np.savez(
        buffer,
        deletions=np.asarray(batch.deletions, dtype=np.int64),
        insertions=np.asarray(batch.insertions, dtype=np.float64),
        labels=np.asarray(batch.insertion_labels, dtype=np.int64),
    )
    return buffer.getvalue()


def decode_batch(payload: bytes) -> UpdateBatch:
    """Inverse of :func:`encode_batch`."""
    try:
        with np.load(io.BytesIO(payload), allow_pickle=False) as archive:
            deletions = archive["deletions"]
            insertions = archive["insertions"]
            labels = archive["labels"]
    except Exception as exc:  # zipfile/KeyError/ValueError zoo
        raise WalCorruptionError(
            f"undecodable WAL payload: {exc}"
        ) from exc
    return UpdateBatch(
        deletions=tuple(int(i) for i in deletions),
        insertions=insertions,
        insertion_labels=tuple(int(l) for l in labels),
    )


def _genesis_chain() -> bytes:
    """The chain link "before" the first record of a v2 log."""
    return hashlib.sha256(_MAGIC_V2).digest()


def _next_chain(previous: bytes, seq: int, payload: bytes) -> bytes:
    """Advance the hash chain over one record."""
    return hashlib.sha256(
        previous + struct.pack("<QI", int(seq), len(payload)) + payload
    ).digest()


def _record_header(seq: int, payload: bytes) -> bytes:
    """The packed ``(seq, length, crc32)`` header of one record."""
    return _HEADER.pack(
        seq,
        len(payload),
        zlib.crc32(struct.pack("<QI", seq, len(payload)) + payload),
    )


@dataclass(frozen=True)
class WalRecord:
    """One durable log entry: the ``seq``-th batch of the stream."""

    seq: int
    batch: UpdateBatch


@dataclass(frozen=True)
class ChainReport:
    """Outcome of a read-only WAL integrity scan (:func:`verify_chain`).

    ``ok`` means every complete record verified (CRC, and for v2 files
    the hash chain). A torn final record — the footprint of a crash
    mid-append, not of at-rest corruption — is reported via
    ``torn_tail`` without failing the scan; callers that expect a
    cleanly closed log can still reject it. On failure ``bad_seq`` /
    ``bad_record`` locate the first offending record and ``reason`` is
    one of ``bad_magic``, ``bad_header``, ``crc_mismatch`` or
    ``chain_mismatch``.
    """

    path: str
    version: int
    records: int
    ok: bool
    torn_tail: bool = False
    bad_seq: int | None = None
    bad_record: int | None = None
    reason: str | None = None


def verify_chain(path: str | pathlib.Path) -> ChainReport:
    """Scan a WAL file end to end without mutating it.

    Recomputes every record's CRC and — for version-2 files — walks the
    SHA-256 hash chain from its genesis link, so a single flipped bit
    anywhere in the file (header, chain digest or payload) surfaces as a
    failed report naming the first record whose stored bytes disagree
    with its recomputed digest. Version-1 files (no chain field) get
    CRC-only coverage and ``version=1`` in the report so callers can
    tell the weaker guarantee apart.

    Unlike :meth:`WriteAheadLog.replay` this never repairs a torn tail:
    the file is opened read-only and left byte-identical.
    """
    path = pathlib.Path(path)
    with open(path, "rb") as handle:
        magic = handle.read(len(_MAGIC_V2))
        if magic == _MAGIC_V2:
            version = 2
        elif magic == _MAGIC_V1:
            version = 1
        else:
            return ChainReport(
                path=str(path),
                version=0,
                records=0,
                ok=False,
                reason="bad_magic",
            )

        def torn(records: int) -> ChainReport:
            return ChainReport(
                path=str(path),
                version=version,
                records=records,
                ok=True,
                torn_tail=True,
            )

        def bad(records: int, seq: int, reason: str) -> ChainReport:
            return ChainReport(
                path=str(path),
                version=version,
                records=records,
                ok=False,
                bad_seq=int(seq),
                bad_record=records,
                reason=reason,
            )

        chain = _genesis_chain()
        records = 0
        while True:
            header_bytes = handle.read(_HEADER.size)
            if not header_bytes:
                break
            if len(header_bytes) < _HEADER.size:
                return torn(records)
            seq, length, crc = _HEADER.unpack(header_bytes)
            if length >= _MAX_PAYLOAD:
                return bad(records, seq, "bad_header")
            stored_chain = b""
            if version == 2:
                stored_chain = handle.read(_CHAIN_LEN)
                if len(stored_chain) < _CHAIN_LEN:
                    return torn(records)
            payload = handle.read(length)
            if len(payload) < length:
                return torn(records)
            if crc != zlib.crc32(struct.pack("<QI", seq, length) + payload):
                if not handle.read(1):
                    # Final record, short of its advertised bytes on
                    # disk: a torn write, indistinguishable from (and
                    # treated as) a crashed append.
                    return torn(records)
                return bad(records, seq, "crc_mismatch")
            if version == 2:
                chain = _next_chain(chain, seq, payload)
                if stored_chain != chain:
                    # A complete record with a valid CRC can only carry
                    # a wrong chain digest through at-rest mutation —
                    # torn writes always leave the record short.
                    return bad(records, seq, "chain_mismatch")
            records += 1
        return ChainReport(
            path=str(path), version=version, records=records, ok=True
        )


class WriteAheadLog:
    """Checksummed, length-prefixed append-only log in a single file.

    Args:
        path: the log file; created (with its magic header) when missing.
        fsync: whether appends flush through to the disk before returning.
            Leave on for crash durability; tests and benchmarks may turn it
            off for speed (process-crash safety is retained either way —
            only power-loss safety is weakened).
        retry: backoff policy for transient IO errors on appends and
            compactions; a default 3-attempt policy when omitted.
        obs: observability handle; torn-tail repairs and IO retries are
            counted and traced here. ``None`` disables instrumentation.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        fsync: bool = True,
        retry: RetryPolicy | None = None,
        obs: Observability | None = None,
    ) -> None:
        self._path = pathlib.Path(path)
        self._fsync = bool(fsync)
        self._retry = retry if retry is not None else RetryPolicy()
        self._obs = obs
        created = False
        if not self._path.exists():
            self._path.parent.mkdir(parents=True, exist_ok=True)
            with open(self._path, "wb") as handle:
                handle.write(_MAGIC_V2)
                handle.flush()
                os.fsync(handle.fileno())
            created = True
        self._handle = open(self._path, "r+b")
        magic = self._handle.read(len(_MAGIC_V2))
        if magic == _MAGIC_V2:
            self._version = 2
        elif magic == _MAGIC_V1:
            # A log written before the hash chain existed: keep reading
            # and appending in its native CRC-only format for its whole
            # life rather than mixing record layouts in one file.
            self._version = 1
        else:
            self._handle.close()
            raise WalCorruptionError(
                f"{self._path} is not a WAL file (magic {magic!r})"
            )
        # v2 chain head; computed lazily by _scan()/_chain_tip() for
        # pre-existing files so plain opens stay O(1).
        self._chain: bytes | None = _genesis_chain() if created else None
        self._handle.seek(0, os.SEEK_END)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    @property
    def path(self) -> pathlib.Path:
        """The log file location."""
        return self._path

    @property
    def version(self) -> int:
        """On-disk format version (1 = CRC only, 2 = hash-chained)."""
        return self._version

    @property
    def chained(self) -> bool:
        """Whether records carry the SHA-256 hash-chain digest."""
        return self._version == 2

    def _chain_tip(self) -> bytes:
        """Current chain head, scanning the file on first use (v2 only)."""
        if self._chain is None:
            # _scan() walks every record from the genesis link, repairs
            # a torn tail, and leaves self._chain at the verified head.
            self._scan()
            assert self._chain is not None
        return self._chain

    def append(self, seq: int, batch: UpdateBatch) -> int:
        """Durably append one batch as record ``seq``.

        The record is flushed (and fsync'd unless disabled) before this
        returns — the write-ahead guarantee callers rely on. Returns the
        number of bytes appended (header + payload).

        Transient IO errors are retried with backoff; each retry (and a
        final failure) rolls the file and handle back to the last good
        offset, so a failed append leaves the log exactly as it was.
        """
        payload = encode_batch(batch)
        header = _record_header(int(seq), payload)
        chain = b""
        if self._version == 2:
            chain = _next_chain(self._chain_tip(), int(seq), payload)
        FAILPOINTS.fire(_FP_APPEND_START)
        self._handle.seek(0, os.SEEK_END)
        start = self._handle.tell()

        def write_record() -> None:
            self._handle.seek(0, os.SEEK_END)
            handle = maybe_wrap(self._handle, "wal")
            handle.write(header)
            if chain:
                handle.write(chain)
            handle.write(payload)
            handle.flush()
            if self._fsync:
                faulty_fsync(self._handle.fileno(), "wal")

        def roll_back_and_count(attempt: int, exc: BaseException) -> None:
            self._rollback_to(start)
            self._note_retry("wal_append", attempt, exc)

        try:
            self._retry.call(write_record, on_retry=roll_back_and_count)
        except BaseException:
            # A mid-write failure must not leave the handle position (or
            # a half-written record) behind: seek/truncate back to the
            # last good offset before raising, so the next append — or a
            # replay by this same process — starts from a clean tail.
            self._rollback_to(start)
            raise
        if self._version == 2:
            # Only a durably written record advances the chain head; a
            # rolled-back append leaves both the file and the chain as
            # they were.
            self._chain = chain
        FAILPOINTS.fire(_FP_APPEND_FLUSHED)
        return len(header) + len(chain) + len(payload)

    def _rollback_to(self, offset: int) -> None:
        """Best-effort restoration of the log to ``offset`` bytes."""
        self._handle.seek(offset)
        self._handle.truncate(offset)
        with contextlib.suppress(OSError):
            self._handle.flush()
            if self._fsync:
                os.fsync(self._handle.fileno())

    def _note_retry(
        self, operation: str, attempt: int, exc: BaseException
    ) -> None:
        if self._obs is None:
            return
        self._obs.metrics.counter(
            "repro_io_retries_total",
            help="Transient IO errors retried with backoff.",
            labels={"operation": operation},
        ).inc()
        self._obs.emit(
            "io_retry",
            operation=operation,
            attempt=attempt,
            error=repr(exc),
        )

    def reset(self) -> None:
        """Drop every record (checkpoint truncation after a snapshot)."""
        self._handle.seek(len(_MAGIC_V2))
        self._handle.truncate()
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())
        # The chain is per-file content: an emptied log restarts it.
        self._chain = _genesis_chain() if self._version == 2 else None

    def compact(self, min_seq: int) -> int:
        """Atomically drop records with ``seq < min_seq``.

        Checkpoint truncation keeps the tail since the *oldest retained*
        snapshot (not just the newest), so that recovery can fall back to
        an older snapshot — and still replay forward — when the newest is
        corrupted at rest. Every record is read back through the same
        CRC and hash-chain checks as :meth:`replay`, so damaged bytes are
        never re-chained; the kept payloads are then copied verbatim
        (never decoded or re-encoded), and only the chain digests are
        recomputed, restarting at the genesis link. The rewrite goes
        through a temporary file and an ``os.replace`` (followed by a
        directory fsync when fsync is on), so a crash mid-compaction
        leaves the previous log intact. Returns the number of records
        dropped.
        """
        records = self._scan()
        keep = [record for record in records if record[0] >= min_seq]
        tmp = self._path.with_name(self._path.name + ".tmp")
        magic = _MAGIC_V2 if self._version == 2 else _MAGIC_V1
        rewritten_chain = _genesis_chain()

        def rewrite() -> None:
            nonlocal rewritten_chain
            rewritten_chain = _genesis_chain()
            with open(tmp, "wb") as raw:
                handle = maybe_wrap(raw, "wal")
                handle.write(magic)
                for seq, payload in keep:
                    handle.write(_record_header(seq, payload))
                    if self._version == 2:
                        rewritten_chain = _next_chain(
                            rewritten_chain, seq, payload
                        )
                        handle.write(rewritten_chain)
                    handle.write(payload)
                handle.flush()
                if self._fsync:
                    faulty_fsync(raw.fileno(), "wal")

        def discard_and_count(attempt: int, exc: BaseException) -> None:
            tmp.unlink(missing_ok=True)
            self._note_retry("wal_compact", attempt, exc)

        try:
            self._retry.call(rewrite, on_retry=discard_and_count)
        except BaseException:
            # The original log is untouched; a leftover tmp is swept by
            # the checkpoint manager on the next startup.
            tmp.unlink(missing_ok=True)
            raise
        FAILPOINTS.fire(_FP_COMPACT_REWRITTEN)
        self._handle.close()
        os.replace(tmp, self._path)
        FAILPOINTS.fire(_FP_COMPACT_REPLACED)
        if self._fsync:
            # Appends from here on go to the new inode: the directory
            # must name it before they are acknowledged.
            fsync_directory(self._path.parent)
        self._handle = open(self._path, "r+b")
        self._handle.seek(0, os.SEEK_END)
        if self._version == 2:
            # The rewritten file restarted the chain over the kept records.
            self._chain = rewritten_chain
        return len(records) - len(keep)

    def close(self) -> None:
        """Close the underlying file handle."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def replay(self) -> list[WalRecord]:
        """Read every intact record, repairing a torn tail in place.

        Returns the records in append order. A torn final record is
        truncated from the file so subsequent appends extend a clean log.

        For version-2 files the SHA-256 hash chain is verified inline —
        recovery therefore detects a diverged or mutated history for
        free, before any batch is re-applied.

        Raises:
            WalCorruptionError: a complete record fails its checksum,
                carries an impossible header, or (v2) disagrees with the
                recomputed hash chain — the log cannot be trusted.
        """
        return [
            WalRecord(seq=seq, batch=decode_batch(payload))
            for seq, payload in self._scan()
        ]

    def _scan(self) -> list[tuple[int, bytes]]:
        """Every intact record as ``(seq, payload)``, undecoded.

        The record loop behind :meth:`replay` and :meth:`compact`:
        checks each record's CRC and (v2) hash-chain link, repairs a torn
        tail in place, leaves the chain head at the last verified record
        and raises :class:`~repro.exceptions.WalCorruptionError` exactly
        as documented on :meth:`replay`.
        """
        self._handle.seek(len(_MAGIC_V2))
        handle = maybe_wrap(self._handle, "wal")
        records: list[tuple[int, bytes]] = []
        good_end = len(_MAGIC_V2)
        chain = _genesis_chain()
        while True:
            header_bytes = handle.read(_HEADER.size)
            if not header_bytes:
                break
            if len(header_bytes) < _HEADER.size:
                self._repair_torn_tail(good_end, len(records), "mid_header")
                break
            seq, length, crc = _HEADER.unpack(header_bytes)
            if length >= _MAX_PAYLOAD:
                raise WalCorruptionError(
                    f"record {len(records)} in {self._path} declares an "
                    f"absurd payload of {length} bytes"
                )
            stored_chain = b""
            if self._version == 2:
                stored_chain = handle.read(_CHAIN_LEN)
                if len(stored_chain) < _CHAIN_LEN:
                    self._repair_torn_tail(
                        good_end, len(records), "mid_chain"
                    )
                    break
            payload = handle.read(length)
            if len(payload) < length:
                self._repair_torn_tail(good_end, len(records), "mid_payload")
                break
            expected = zlib.crc32(
                struct.pack("<QI", seq, length) + payload
            )
            if crc != expected:
                if self._at_eof():
                    # The final record's bytes were only partially persisted
                    # before the crash: a torn write, not corruption.
                    self._repair_torn_tail(
                        good_end, len(records), "checksum_at_eof"
                    )
                    break
                raise WalCorruptionError(
                    f"checksum mismatch on record {len(records)} of "
                    f"{self._path} (seq {seq}); the log is corrupt before "
                    "its tail and cannot be replayed safely"
                )
            if self._version == 2:
                chain = _next_chain(chain, seq, payload)
                if stored_chain != chain:
                    # Torn writes leave the record short, so a complete
                    # record with a valid CRC but the wrong chain digest
                    # means the log's history was mutated at rest (or
                    # diverged from the chain that wrote it).
                    raise WalCorruptionError(
                        f"hash-chain divergence on record {len(records)} "
                        f"of {self._path} (seq {seq}); the log's history "
                        "does not match its chained digests and cannot "
                        "be replayed safely"
                    )
            records.append((int(seq), payload))
            good_end = self._handle.tell()
        if self._version == 2:
            self._chain = chain
        self._handle.seek(0, os.SEEK_END)
        return records

    def _repair_torn_tail(
        self, good_end: int, intact_records: int, reason: str
    ) -> None:
        """Truncate a torn final record, tracing the repair as a warning."""
        self._handle.seek(0, os.SEEK_END)
        dropped = self._handle.tell() - good_end
        self._truncate_to(good_end)
        if self._obs is not None:
            self._obs.metrics.counter(
                "repro_wal_torn_tails_total",
                help="Torn final WAL records truncated during replay.",
            ).inc()
            self._obs.emit(
                "wal_torn_tail",
                reason=reason,
                dropped_bytes=int(dropped),
                intact_records=int(intact_records),
            )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _at_eof(self) -> bool:
        position = self._handle.tell()
        at_end = not self._handle.read(1)
        self._handle.seek(position)
        return at_end

    def _truncate_to(self, offset: int) -> None:
        self._handle.seek(offset)
        self._handle.truncate()
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WriteAheadLog(path={str(self._path)!r})"
