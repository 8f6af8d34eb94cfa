"""Append-only write-ahead log of update batches.

The durability contract of the persistence subsystem is write-ahead: every
:class:`~repro.database.UpdateBatch` is appended to this log — and flushed
to disk — *before* it is applied to the in-memory summary. After a crash,
the summary is reconstructed by loading the last snapshot and replaying the
logged batches through the normal maintenance path
(:mod:`repro.persistence.recovery`).

File format (version 3), all integers little-endian:

* an 8-byte file magic ``b"RPROWAL3"``;
* zero or more records, each
  ``[seq: u64][length: u32][crc32: u32][chain: 32B][payload]`` where
  ``seq`` is the zero-based index of the batch in the stream's lifetime,
  ``length`` is the payload size in bytes, ``crc32`` covers the packed
  ``(seq, length)`` header *and* the payload, and ``chain`` is the
  SHA-256 hash-chain digest
  ``sha256(previous_chain + pack("<QI", seq, length) + payload)`` with
  ``sha256(magic)`` — the file's own magic — as the genesis link. Every
  record's digest covers the entire log before it, so any at-rest
  mutation (a flipped bit, a dropped/reordered/replayed record) breaks
  every subsequent link and is reported with the offending ``seq``
  (:func:`verify_chain`, and inline during :meth:`WriteAheadLog.replay`);
* the payload is raw (:func:`encode_batch`): ``<III`` counts
  (deletions, insertions, dim), then the int64 deletions, the float64
  ``(insertions, dim)`` matrix in row order and the int64 labels, one
  per insertion. :func:`decode_batch` checks that the counts account for
  every payload byte.

Earlier versions stay readable *and appendable*; a log keeps the format
it was created with for its whole life, so record layouts never mix in
one file:

* version 2 (``b"RPROWAL2"``) has the same records, but each payload is
  an in-memory ``.npz`` archive with ``deletions``, ``insertions`` and
  ``labels`` members;
* version 1 (``b"RPROWAL1"``) has ``.npz`` payloads and no ``chain``
  field (CRC-only integrity).

Every read of a log goes through one record reader, :func:`_read_records`:
one ``read()`` of the file, every record checked (payload bound, CRC,
chain link), stopping at the clean end, at a torn tail or at the first
damaged record. :func:`verify_chain` reports the stop; replay, compaction
and the lazy chain-tip scan repair a torn tail or raise:

* a **torn final record**, the signature of a crash during an append,
  ends mid-header, mid-chain or mid-payload, or reaches the end of the
  file and fails its CRC. It is truncated away with a traced
  ``wal_torn_tail`` warning: the torn batch was never acknowledged as
  applied, so nothing is lost;
* a **header, checksum or chain failure on any other record** raises
  :class:`~repro.exceptions.WalCorruptionError`: previously fsync'd data
  is damaged and silently skipping it would replay a wrong history.

A version-3 final record is torn only if the counts at the start of its
payload are absent or account for exactly its declared length, as a torn
append's always do. So a length changed at rest that pushes a durable
record to the end of the file stops the read as a bad header instead of
truncating the records from there on. Versions 1 and 2 carry no counts:
there such a length still reads as torn. A file system that persists a
file's size without its data could leave a final record whose counts are
lost; that tail, too, stops recovery instead of being truncated.

Replay verifies every record but decodes only those at or after the
position it is given: recovery passes the snapshot's ``batches_applied``,
so the records the snapshot already covers are never decoded.

Failure semantics on write (:meth:`WriteAheadLog.append`):

* **transient** IO errors (``EIO``/``EAGAIN``/``EINTR``/``EBUSY``) are
  retried with bounded exponential backoff
  (:class:`~repro.faults.RetryPolicy`), rolling the file back to the
  last good offset between attempts;
* any append that ultimately fails rolls the file — and the handle
  position — back to the last good offset before raising, so the log
  never accumulates a half-written record from a *surviving* process;
* once the record is durable, :attr:`WriteAheadLog.appended_seq` names
  it, even when something after the write raises, so the caller can
  tell a batch the log holds from one it never took.

Compaction (:meth:`WriteAheadLog.compact`) reads the log through the
same reader as replay — so it raises on damaged bytes instead of
re-chaining them — and writes the kept payloads verbatim, through the
same record framing as an append, into a temporary file under the same
magic. It never decodes or re-encodes a batch; only the chain digests
are recomputed, from the genesis link. The file is then ``os.replace``d
over the log and, when fsync is on, the directory is fsynced so later
appends land in a file the directory durably names.

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
_MAGIC_V3 = b"RPROWAL3"
#: File magic -> format version; every magic is 8 bytes.
_VERSIONS = {_MAGIC_V1: 1, _MAGIC_V2: 2, _MAGIC_V3: 3}
_MAGIC_LEN = len(_MAGIC_V3)
_HEADER = struct.Struct("<QII")  # seq, payload length, crc32
_SEQ_LEN = struct.Struct("<QI")  # what the CRC and the chain cover
_CHAIN_LEN = hashlib.sha256().digest_size  # 32, the chain digest
_COUNTS = struct.Struct("<III")  # v3 payload: deletions, insertions, dim

#: Cap on a single record's payload (guards against reading a garbage
#: length field as a multi-gigabyte allocation).
_MAX_PAYLOAD = 1 << 31

# Crash-matrix failpoints, each at a clean durability boundary.
_FP_APPEND_START = declare_failpoint("wal.append.start")
_FP_APPEND_FLUSHED = declare_failpoint("wal.append.flushed")
_FP_COMPACT_REWRITTEN = declare_failpoint("wal.compact.rewritten")
_FP_COMPACT_REPLACED = declare_failpoint("wal.compact.replaced")


def encode_batch(batch: UpdateBatch) -> bytes:
    """Serialize one batch to the raw version-3 payload format."""
    insertions = np.ascontiguousarray(batch.insertions, dtype="<f8")
    return b"".join(
        (
            _COUNTS.pack(
                len(batch.deletions),
                insertions.shape[0],
                insertions.shape[1],
            ),
            np.asarray(batch.deletions, dtype="<i8"),
            insertions,
            np.asarray(batch.insertion_labels, dtype="<i8"),
        )
    )


def _counted_size(deletions: int, insertions: int, dim: int) -> int:
    """The size of the version-3 payload whose counts these are."""
    return _COUNTS.size + 8 * (deletions + insertions * dim + insertions)


def decode_batch(payload: bytes) -> UpdateBatch:
    """Inverse of :func:`encode_batch`.

    The ids and labels become tuples of ints. The points are copied out
    of ``payload`` into an array of their own: a view would sit 12 + 8k
    bytes into the payload, misaligned for float64, and numpy's kernels
    run slower on misaligned data.

    Raises:
        WalCorruptionError: the counts do not account for exactly the
            payload's bytes.
    """
    if len(payload) < _COUNTS.size:
        raise WalCorruptionError(
            f"undecodable WAL payload: {len(payload)} bytes is shorter "
            "than its counts"
        )
    deletions, insertions, dim = _COUNTS.unpack_from(payload)
    expected = _counted_size(deletions, insertions, dim)
    if expected != len(payload):
        raise WalCorruptionError(
            f"undecodable WAL payload: counts ({deletions}, {insertions}, "
            f"{dim}) need {expected} bytes, the payload has {len(payload)}"
        )
    offset = _COUNTS.size
    ids = np.frombuffer(payload, "<i8", deletions, offset)
    offset += 8 * deletions
    points = np.frombuffer(payload, "<f8", insertions * dim, offset)
    offset += 8 * insertions * dim
    labels = np.frombuffer(payload, "<i8", insertions, offset)
    return UpdateBatch(
        deletions=tuple(ids.tolist()),
        insertions=points.reshape(insertions, dim).copy(),
        insertion_labels=tuple(labels.tolist()),
    )


def _encode_npz_batch(batch: UpdateBatch) -> bytes:
    """The ``.npz`` payload of version-1 and version-2 logs."""
    buffer = io.BytesIO()
    np.savez(
        buffer,
        deletions=np.asarray(batch.deletions, dtype=np.int64),
        insertions=np.asarray(batch.insertions, dtype=np.float64),
        labels=np.asarray(batch.insertion_labels, dtype=np.int64),
    )
    return buffer.getvalue()


def _decode_npz_batch(payload: bytes) -> UpdateBatch:
    """Inverse of :func:`_encode_npz_batch`."""
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


def _next_chain(previous: bytes, seq: int, payload: bytes) -> bytes:
    """Advance the hash chain over one record (hashed in pieces, so the
    payload is never copied)."""
    digest = hashlib.sha256(previous)
    digest.update(_SEQ_LEN.pack(seq, len(payload)))
    digest.update(payload)
    return digest.digest()


def _record_crc(seq: int, payload: bytes) -> int:
    """CRC-32 of the packed ``(seq, length)`` pair and the payload."""
    return zlib.crc32(payload, zlib.crc32(_SEQ_LEN.pack(seq, len(payload))))


def _write_record(
    handle, seq: int, payload: bytes, chain: bytes | None
) -> bytes | None:
    """Frame one record into ``handle``: the header, then for chained
    formats the digest that follows ``chain``, then the payload.

    Returns the new chain head, or ``None`` for the unchained version 1
    (``chain`` is ``None`` there too).
    """
    handle.write(_HEADER.pack(seq, len(payload), _record_crc(seq, payload)))
    if chain is not None:
        chain = _next_chain(chain, seq, payload)
        handle.write(chain)
    handle.write(payload)
    return chain


#: The ways a log can end in a torn final record (the ``reason`` of the
#: ``wal_torn_tail`` event).
_TORN = frozenset(
    {"mid_header", "mid_chain", "mid_payload", "checksum_at_eof"}
)


@dataclass(frozen=True)
class _Scan:
    """What :func:`_read_records` found in one read of a log.

    ``records`` are the intact ``(seq, payload)`` pairs in file order,
    and ``end`` and ``chain`` the offset and chain head after the last
    of them. ``stop`` is ``None`` at a clean end, one of :data:`_TORN`,
    or ``bad_header``, ``crc_mismatch`` or ``chain_mismatch``; then
    ``seq`` names the damaged record and ``detail`` says what is wrong.
    """

    records: list[tuple[int, bytes]]
    end: int
    chain: bytes
    stop: str | None = None
    seq: int | None = None
    detail: str = ""

    @property
    def torn(self) -> bool:
        return self.stop in _TORN


def _read_records(data: bytes, version: int) -> _Scan:
    """Check every record of ``data``, a whole version-``version`` log
    file, up to its end or the first record that fails.

    A record's header must declare a payload under the bound, its CRC
    must match and, in chained formats, its digest must extend the chain
    from the genesis link. A record that fails and reaches the end of
    the file is a torn tail, unless it is a version-3 record whose
    counts are present and account for another length than its header
    declares: that is a bad header.
    """
    chain_len = _CHAIN_LEN if version >= 2 else 0
    chain = hashlib.sha256(data[:_MAGIC_LEN]).digest()
    records: list[tuple[int, bytes]] = []
    end = _MAGIC_LEN

    def stop(reason: str, seq: int | None = None, detail: str = "") -> _Scan:
        return _Scan(records, end, chain, reason, seq, detail)

    while end < len(data):
        if len(data) - end < _HEADER.size:
            return stop("mid_header")
        seq, length, crc = _HEADER.unpack_from(data, end)
        if length >= _MAX_PAYLOAD:
            return stop(
                "bad_header",
                seq,
                f"has a bad header: it declares an absurd payload of "
                f"{length} bytes",
            )
        start = end + _HEADER.size + chain_len
        finish = start + length
        payload = data[start:finish]
        if finish > len(data) or crc != _record_crc(seq, payload):
            if finish < len(data):
                return stop("crc_mismatch", seq, "fails its checksum")
            if version == 3 and len(payload) >= _COUNTS.size:
                counted = _counted_size(*_COUNTS.unpack_from(payload))
                if counted != length:
                    return stop(
                        "bad_header",
                        seq,
                        f"has a bad header: it declares {length} payload "
                        f"bytes, but its counts account for {counted}",
                    )
            if start > len(data):
                return stop("mid_chain")
            return stop(
                "mid_payload" if finish > len(data) else "checksum_at_eof"
            )
        if chain_len:
            link = _next_chain(chain, seq, payload)
            if data[start - chain_len : start] != link:
                return stop(
                    "chain_mismatch",
                    seq,
                    "shows a hash-chain divergence: the log's history "
                    "does not match its chained digests",
                )
            chain = link
        records.append((seq, payload))
        end = finish
    return _Scan(records, end, chain)


@dataclass(frozen=True)
class WalRecord:
    """One durable log entry: the ``seq``-th batch of the stream."""

    seq: int
    batch: UpdateBatch


@dataclass(frozen=True)
class ChainReport:
    """Outcome of a read-only WAL integrity scan (:func:`verify_chain`).

    ``ok`` means every complete record verified (CRC, and for version 2
    and later the hash chain; see :attr:`chained`). A torn final record
    — the footprint of a crash mid-append, not of at-rest corruption —
    is reported via ``torn_tail`` without failing the scan; callers that
    expect a cleanly closed log can still reject it. On failure ``bad_seq`` /
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

    @property
    def chained(self) -> bool:
        """Whether this log's format carries the SHA-256 hash chain."""
        return self.version >= 2


def verify_chain(path: str | pathlib.Path) -> ChainReport:
    """Scan a WAL file end to end without mutating it.

    Recomputes every record's CRC and — for version-2 and version-3
    files — walks the SHA-256 hash chain from its genesis link, so a
    single flipped bit anywhere in the file (header, chain digest or
    payload) surfaces as a failed report naming the first record whose
    stored bytes disagree with its recomputed digest. Version-1 files
    (no chain field) get CRC-only coverage and ``version=1`` in the
    report so callers can tell the weaker guarantee apart.

    It reads the file through the same record reader as
    :meth:`WriteAheadLog.replay`, so the two agree on every log; unlike
    replay it never repairs a torn tail: the file is opened read-only
    and left byte-identical.
    """
    path = pathlib.Path(path)
    with open(path, "rb") as handle:
        data = handle.read()
    version = _VERSIONS.get(data[:_MAGIC_LEN], 0)
    if not version:
        return ChainReport(
            path=str(path), version=0, records=0, ok=False, reason="bad_magic"
        )
    scan = _read_records(data, version)
    ok = scan.stop is None or scan.torn
    return ChainReport(
        path=str(path),
        version=version,
        records=len(scan.records),
        ok=ok,
        torn_tail=scan.torn,
        bad_seq=scan.seq,
        bad_record=None if ok else len(scan.records),
        reason=None if ok else scan.stop,
    )


class WriteAheadLog:
    """Checksummed, length-prefixed append-only log in a single file.

    Args:
        path: the log file; created (with the version-3 magic) when
            missing. An existing file keeps its own version.
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
                handle.write(_MAGIC_V3)
                handle.flush()
                os.fsync(handle.fileno())
            created = True
        self._handle = open(self._path, "r+b")
        magic = self._handle.read(_MAGIC_LEN)
        if magic not in _VERSIONS:
            self._handle.close()
            raise WalCorruptionError(
                f"{self._path} is not a WAL file (magic {magic!r})"
            )
        # A log keeps the format it was created with for its whole life
        # rather than mixing record layouts in one file.
        self._magic = magic
        self._version = _VERSIONS[magic]
        if self._version == 3:
            self._encode, self._decode = encode_batch, decode_batch
        else:
            self._encode, self._decode = _encode_npz_batch, _decode_npz_batch
        self._genesis = hashlib.sha256(magic).digest()
        # Chain head; computed lazily by _scan()/_chain_tip() for
        # pre-existing files so plain opens stay O(1).
        self._chain: bytes | None = self._genesis if created else None
        self._appended_seq: int | None = None
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
        """On-disk format version (1 = CRC only, 2 = hash-chained ``.npz``
        payloads, 3 = hash-chained raw payloads)."""
        return self._version

    @property
    def chained(self) -> bool:
        """Whether records carry the SHA-256 hash-chain digest."""
        return self._version >= 2

    @property
    def appended_seq(self) -> int | None:
        """The ``seq`` of the last record this handle made durable, or
        ``None`` before its first append.

        It moves as soon as the record is flushed, before anything else
        in :meth:`append` can raise, so a caller that catches an error
        from ``append`` can still tell whether the log holds the record.
        """
        return self._appended_seq

    def _chain_tip(self) -> bytes:
        """Current chain head, scanning the file on first use."""
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
        number of bytes appended (header, chain digest and payload).

        Transient IO errors are retried with backoff; each retry (and a
        final failure) rolls the file and handle back to the last good
        offset, so a failed append leaves the log exactly as it was.
        A failure after the record landed (the ``wal.append.flushed``
        failpoint) leaves it in the log, named by :attr:`appended_seq`.
        """
        seq = int(seq)
        payload = self._encode(batch)
        previous = self._chain_tip() if self.chained else None
        FAILPOINTS.fire(_FP_APPEND_START)
        self._handle.seek(0, os.SEEK_END)
        start = self._handle.tell()

        def write_record() -> bytes | None:
            self._handle.seek(0, os.SEEK_END)
            handle = maybe_wrap(self._handle, "wal")
            chain = _write_record(handle, seq, payload, previous)
            handle.flush()
            if self._fsync:
                faulty_fsync(self._handle.fileno(), "wal")
            return chain

        def roll_back_and_count(attempt: int, exc: BaseException) -> None:
            self._rollback_to(start)
            self._note_retry("wal_append", attempt, exc)

        try:
            chain = self._retry.call(
                write_record, on_retry=roll_back_and_count
            )
        except BaseException:
            # A mid-write failure must not leave the handle position (or
            # a half-written record) behind: seek/truncate back to the
            # last good offset before raising, so the next append — or a
            # replay by this same process — starts from a clean tail.
            self._rollback_to(start)
            raise
        # Only a durably written record advances the chain head; a
        # rolled-back append leaves both the file and the chain as they
        # were.
        if chain is not None:
            self._chain = chain
        self._appended_seq = seq
        FAILPOINTS.fire(_FP_APPEND_FLUSHED)
        return self._handle.tell() - start

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

    def compact(self, min_seq: int) -> int:
        """Atomically drop records with ``seq < min_seq``.

        Checkpoint truncation keeps the tail since the *oldest retained*
        snapshot (not just the newest), so that recovery can fall back to
        an older snapshot — and still replay forward — when the newest is
        corrupted at rest. The log is read through the same record reader
        as :meth:`replay`, so damaged bytes are never re-chained; the
        kept payloads are then copied verbatim (never decoded or
        re-encoded) under the file's own magic, and only the chain
        digests are recomputed, restarting at the genesis link. The
        rewrite goes through a temporary file and an ``os.replace``
        (followed by a directory fsync when fsync is on), so a crash
        mid-compaction leaves the previous log intact. Returns the number
        of records dropped.
        """
        records = self._scan()
        keep = [record for record in records if record[0] >= min_seq]
        tmp = self._path.with_name(self._path.name + ".tmp")

        def rewrite() -> bytes | None:
            chain = self._genesis if self.chained else None
            with open(tmp, "wb") as raw:
                handle = maybe_wrap(raw, "wal")
                handle.write(self._magic)
                for seq, payload in keep:
                    chain = _write_record(handle, seq, payload, chain)
                handle.flush()
                if self._fsync:
                    faulty_fsync(raw.fileno(), "wal")
            return chain

        def discard_and_count(attempt: int, exc: BaseException) -> None:
            tmp.unlink(missing_ok=True)
            self._note_retry("wal_compact", attempt, exc)

        try:
            chain = self._retry.call(rewrite, on_retry=discard_and_count)
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
        # The rewritten file restarted the chain over the kept records.
        self._chain = chain
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
    def replay(self, min_seq: int = 0) -> list[WalRecord]:
        """Verify every record, repairing a torn tail in place, and
        decode those with ``seq >= min_seq``.

        Returns the decoded records in append order. Every record is read
        and checked (CRC, and the hash chain when the format carries
        one), so a damaged record raises wherever it sits; only the
        decoding is skipped below ``min_seq``. Recovery passes the
        snapshot's ``batches_applied``: the records it covers are never
        decoded. A torn final record is truncated from the file so
        subsequent appends extend a clean log.

        Raises:
            WalCorruptionError: a complete record fails its checksum,
                carries an impossible header or payload, or disagrees
                with the recomputed hash chain — the log cannot be
                trusted.
        """
        return [
            WalRecord(seq=seq, batch=self._decode(payload))
            for seq, payload in self._scan()
            if seq >= min_seq
        ]

    def _scan(self) -> list[tuple[int, bytes]]:
        """Every intact record as ``(seq, payload)``, undecoded.

        The read behind :meth:`replay`, :meth:`compact` and the lazy
        chain tip: one ``read()`` of the log through
        :func:`_read_records`. A torn tail is repaired in place, the
        chain head is left at the last intact record, and damage raises
        :class:`~repro.exceptions.WalCorruptionError` as documented on
        :meth:`replay`.
        """
        self._handle.seek(0)
        data = maybe_wrap(self._handle, "wal").read()
        scan = _read_records(data, self._version)
        if scan.torn:
            self._repair_torn_tail(scan, len(data))
        elif scan.stop is not None:
            raise WalCorruptionError(
                f"record {len(scan.records)} of {self._path} (seq "
                f"{scan.seq}) {scan.detail}; the log is corrupt before its "
                "tail and cannot be replayed safely"
            )
        self._chain = scan.chain
        self._handle.seek(0, os.SEEK_END)
        return scan.records

    def _repair_torn_tail(self, scan: _Scan, size: int) -> None:
        """Truncate a torn final record, tracing the repair as a warning."""
        self._handle.seek(scan.end)
        self._handle.truncate()
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())
        if self._obs is not None:
            self._obs.metrics.counter(
                "repro_wal_torn_tails_total",
                help="Torn final WAL records truncated during replay.",
            ).inc()
            self._obs.emit(
                "wal_torn_tail",
                reason=scan.stop,
                dropped_bytes=size - scan.end,
                intact_records=len(scan.records),
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WriteAheadLog(path={str(self._path)!r})"
