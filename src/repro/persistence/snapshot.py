"""Versioned snapshot files for summarizer state.

A snapshot (version 3) is one raw, checksummed container holding a
:class:`~repro.persistence.state.SummarizerState`, in this order:

* the 8-byte magic ``b"RPROSNAP"``;
* a u32 header length, little-endian;
* a UTF-8 JSON header: the scalar/structured state (``snapshot_version``
  3, construction parameters, counters, the RNG state, ...) plus an
  ``arrays`` table of ``[name, dtype, shape]``, one entry per array in
  the order of :data:`ARRAYS`; ``dtype`` is ``"<f8"`` or ``"<i8"``;
* the arrays back to back, little-endian and in C order: the summary's
  eight (raw sufficient statistics included — see ``state.py`` on why
  they are never recomputed), then the kept seed matrix's five;
* one CRC-32 (u32, little-endian) over everything before it.

A write is one ``write()`` of the whole container; a read is one
``read()``, one CRC check and then one ``np.frombuffer`` view per
array. Before the views are taken, every size in the table is checked
against the file, so a damaged header can neither allocate nor read past
the arrays.

Older snapshots still load, with an empty kept seed matrix:

* version-2 containers, whose table holds the summary's eight arrays;
* version-1 snapshots — ``.npz`` archives of those eight arrays plus the
  member CSR (``member_offsets``, ``member_ids``) and a ``meta_json``
  member, stored or deflated. Their member arrays are cross-checked
  against the owner column, as the version that wrote them did.

Writes are **atomic**: the container is written to a temporary sibling,
flushed to disk, then ``os.replace``d over the final name, and the
directory is fsynced so the rename itself is durable. A crash mid-write
leaves at most a stale ``*.tmp`` file, never a half-written snapshot under
the real name — which is what lets recovery treat "the newest snapshot that
loads" as "the newest snapshot that was fully written".

Reads validate the format version and re-wrap every decoding failure —
including a CRC-32 that no longer matches the bytes — in
:class:`~repro.exceptions.SnapshotError` so recovery can fall back to an
older snapshot instead of crashing on a damaged file.
"""

from __future__ import annotations

import io
import json
import math
import os
import pathlib
import struct
import zlib
from collections.abc import Mapping

import numpy as np

from ..core.bubble_set import owner_csr
from ..exceptions import (
    CorruptStateError,
    InvalidConfigError,
    SnapshotError,
)
from ..faults import (
    FAILPOINTS,
    RetryPolicy,
    declare_failpoint,
    fsync_directory,
    maybe_wrap,
)
from ..faults import fsync as faulty_fsync
from .state import SummarizerState, config_from_dict, config_to_dict

__all__ = [
    "ARRAYS",
    "SNAPSHOT_VERSION",
    "decode_container",
    "encode_container",
    "read_snapshot",
    "write_snapshot",
]

SNAPSHOT_VERSION = 3

#: The version of the ``.npz`` snapshots earlier versions wrote.
_NPZ_VERSION = 1

_MAGIC = b"RPROSNAP"
_U32 = struct.Struct("<I")
_ZIP_MAGIC = b"PK\x03\x04"

#: The summary's arrays: all of a version-2 container or a ``.npz``.
_SUMMARY_ARRAYS = (
    ("store_ids", "<i8"),
    ("store_points", "<f8"),
    ("store_labels", "<i8"),
    ("store_owners", "<i8"),
    ("seeds", "<f8"),
    ("ns", "<i8"),
    ("linear_sums", "<f8"),
    ("square_sums", "<f8"),
)

#: The container's arrays, in file order, with their on-disk dtypes.
ARRAYS = _SUMMARY_ARRAYS + (
    ("keeper_base", "<f8"),
    ("keeper_dists", "<f8"),
    ("keeper_drift", "<f8"),
    ("keeper_nearest", "<f8"),
    ("keeper_last", "<f8"),
)

#: The array table of each snapshot version.
_TABLES = {_NPZ_VERSION: _SUMMARY_ARRAYS, 2: _SUMMARY_ARRAYS, 3: ARRAYS}

# Crash-matrix failpoints: a crash at tmp_written leaves a stale *.tmp
# (swept at the next startup); a crash at replaced leaves a fully valid
# snapshot whose directory entry may not be durable yet.
_FP_TMP_WRITTEN = declare_failpoint("snapshot.tmp_written")
_FP_REPLACED = declare_failpoint("snapshot.replaced")


def _meta(state: SummarizerState) -> dict:
    """The scalar/structured part of ``state`` as a JSON document."""
    return {
        "snapshot_version": SNAPSHOT_VERSION,
        "dim": state.dim,
        "window_size": state.window_size,
        "points_per_bubble": state.points_per_bubble,
        "seed": state.seed,
        "config": config_to_dict(state.config),
        "batches_applied": state.batches_applied,
        "bootstrapped": state.bootstrapped,
        "store_next_id": state.store_next_id,
        "counter_computed": state.counter_computed,
        "counter_pruned": state.counter_pruned,
        "retired": sorted(int(i) for i in state.retired),
        "max_adjust": state.max_adjust,
        "rng_state": state.rng_state,
    }


def encode_container(state: SummarizerState) -> bytes:
    """The version-3 container of ``state``, CRC-32 included."""
    arrays = [
        np.ascontiguousarray(getattr(state, name), dtype=dtype)
        for name, dtype in ARRAYS
    ]
    header = _meta(state)
    header["arrays"] = [
        [name, dtype, list(array.shape)]
        for (name, dtype), array in zip(ARRAYS, arrays)
    ]
    encoded = json.dumps(header).encode("utf-8")
    parts = [_MAGIC, _U32.pack(len(encoded)), encoded, *arrays]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(_U32.pack(crc))
    return b"".join(parts)


def write_snapshot(
    path: str | pathlib.Path,
    state: SummarizerState,
    fsync: bool = True,
    retry: RetryPolicy | None = None,
) -> pathlib.Path:
    """Atomically persist ``state`` to ``path``; returns the final path.

    Transient IO errors while writing the temporary sibling are retried
    with backoff (the partial tmp is discarded between attempts); the
    final ``os.replace`` keeps the write atomic either way.
    """
    path = pathlib.Path(path)
    data = encode_container(state)
    tmp = path.with_name(path.name + ".tmp")

    def write_tmp() -> None:
        with open(tmp, "wb") as raw:
            handle = maybe_wrap(raw, "snapshot")
            handle.write(data)
            handle.flush()
            if fsync:
                faulty_fsync(raw.fileno(), "snapshot")

    def discard_tmp(attempt: int, exc: BaseException) -> None:
        tmp.unlink(missing_ok=True)

    policy = retry if retry is not None else RetryPolicy()
    try:
        policy.call(write_tmp, on_retry=discard_tmp)
    except BaseException:
        # Never leave a half-written tmp behind a *surviving* process;
        # tmp files stranded by crashes are swept at the next startup.
        tmp.unlink(missing_ok=True)
        raise
    FAILPOINTS.fire(_FP_TMP_WRITTEN)
    os.replace(tmp, path)
    FAILPOINTS.fire(_FP_REPLACED)
    if fsync:
        fsync_directory(path.parent)
    return path


def read_snapshot(path: str | pathlib.Path) -> SummarizerState:
    """Load a snapshot: a version-3 or -2 container, or a version-1
    ``.npz``.

    Raises:
        SnapshotError: the file is unreadable, incomplete, fails its
            CRC-32, or carries an unsupported format version.
        CorruptStateError: a version-1 snapshot's member arrays disagree
            with its owner column.
    """
    path = pathlib.Path(path)
    try:
        with open(path, "rb") as raw:
            data = maybe_wrap(raw, "snapshot").read()
    except OSError as exc:
        raise SnapshotError(f"unreadable snapshot {path}: {exc}") from exc
    if data.startswith(_MAGIC):
        if len(data) < len(_MAGIC) + 2 * _U32.size:
            raise SnapshotError(f"{path}: truncated snapshot container")
        body = memoryview(data)[: -_U32.size]
        (stored,) = _U32.unpack_from(data, len(body))
        if zlib.crc32(body) != stored:
            raise SnapshotError(f"{path}: CRC-32 mismatch")
        try:
            return decode_container(body)
        except SnapshotError as exc:
            raise SnapshotError(f"{path}: {exc}") from exc
    if data.startswith(_ZIP_MAGIC):
        return _read_npz(data, path)
    raise SnapshotError(f"{path} is not a snapshot file")


def decode_container(body: bytes | memoryview) -> SummarizerState:
    """Decode a version-3 or -2 container whose CRC-32 was already
    checked (``body`` excludes the trailing CRC).

    Raises:
        SnapshotError: anything in ``body`` is malformed: the magic, the
            header length, the JSON header, the version, the array table
            (names, dtypes, shapes, sizes) or the scalar state.
    """
    body = memoryview(body)
    start = len(_MAGIC) + _U32.size
    if len(body) < start or bytes(body[: len(_MAGIC)]) != _MAGIC:
        raise SnapshotError("not a snapshot container")
    (length,) = _U32.unpack_from(body, len(_MAGIC))
    offset = start + length
    if offset > len(body):
        raise SnapshotError(
            f"header of {length} bytes overruns a {len(body)}-byte body"
        )
    try:
        header = json.loads(bytes(body[start:offset]).decode("utf-8"))
    except ValueError as exc:  # JSON and UTF-8 errors alike
        raise SnapshotError(f"undecodable header: {exc}") from exc
    if not isinstance(header, dict):
        raise SnapshotError("the header is not a JSON object")
    # The version picks the array table before its length is checked.
    version = header.get("snapshot_version")
    if type(version) is not int or version not in (2, SNAPSHOT_VERSION):
        raise SnapshotError(
            f"unsupported snapshot version {version!r} (this reader "
            f"decodes containers of versions 2 and {SNAPSHOT_VERSION})"
        )
    layout = _TABLES[version]
    table = header.get("arrays")
    if not isinstance(table, list) or len(table) != len(layout):
        raise SnapshotError("the header has no valid array table")
    arrays = {}
    for entry, (name, dtype) in zip(table, layout):
        if not (
            isinstance(entry, list)
            and entry[:2] == [name, dtype]
            and len(entry) == 3
            and isinstance(entry[2], list)
            and all(type(n) is int and n >= 0 for n in entry[2])
        ):
            raise SnapshotError(
                f"array table entry {entry!r} is not [{name!r}, "
                f"{dtype!r}, shape]"
            )
        shape = entry[2]
        count = math.prod(shape)
        if offset + 8 * count > len(body):
            raise SnapshotError(
                f"array {name} of shape {shape} overruns the file"
            )
        view = np.frombuffer(body, dtype, count, offset)
        try:
            arrays[name] = view.reshape(shape)
        except ValueError as exc:  # more dimensions than numpy allows
            raise SnapshotError(f"array {name}: {exc}") from exc
        offset += 8 * count
    if offset != len(body):
        raise SnapshotError(
            f"{len(body) - offset} byte(s) follow the last array"
        )
    return _state_from(header, arrays, version)


def _read_npz(data: bytes, path: pathlib.Path) -> SummarizerState:
    """Load a version-1 ``.npz`` snapshot (stored or deflated)."""
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as archive:
            # numpy stops reading a member at the end of the shape its
            # header declares, so a flipped shape digit would skip that
            # member's CRC-32. Check every member in full first.
            damaged = archive.zip.testzip()
            if damaged is not None:
                raise SnapshotError(f"CRC-32 mismatch in member {damaged}")
            meta = json.loads(
                bytes(archive["meta_json"].tobytes()).decode("utf-8")
            )
            state = _state_from(meta, archive, _NPZ_VERSION)
            offsets = archive["member_offsets"]
            member_ids = archive["member_ids"]
    except SnapshotError as exc:
        raise SnapshotError(f"{path}: {exc}") from exc
    except Exception as exc:  # zipfile errors, KeyError, json errors, ...
        raise SnapshotError(f"unreadable snapshot {path}: {exc}") from exc
    try:
        want_offsets, want_ids = owner_csr(
            state.store_ids, state.store_owners, state.num_bubbles
        )
        agree = np.array_equal(offsets, want_offsets) and np.array_equal(
            member_ids, want_ids
        )
    except (IndexError, TypeError, ValueError):  # misaligned columns
        agree = False
    if not agree:
        raise CorruptStateError(
            f"{path}: the stored member arrays disagree with the store's "
            "owner column"
        )
    return state


def _state_from(
    meta: dict, arrays: Mapping[str, np.ndarray], version: int
) -> SummarizerState:
    """Assemble a :class:`SummarizerState` from a decoded snapshot.

    Raises:
        SnapshotError: the snapshot is not of format ``version``, or its
            scalar state is missing or malformed.
    """
    found = meta.get("snapshot_version", -1)
    if found != version:
        raise SnapshotError(
            f"unsupported snapshot version {found} (this reader decodes "
            f"version {version})"
        )
    try:
        return SummarizerState(
            dim=int(meta["dim"]),
            window_size=int(meta["window_size"]),
            points_per_bubble=int(meta["points_per_bubble"]),
            seed=None if meta["seed"] is None else int(meta["seed"]),
            config=config_from_dict(meta["config"]),
            batches_applied=int(meta["batches_applied"]),
            bootstrapped=bool(meta["bootstrapped"]),
            store_next_id=int(meta["store_next_id"]),
            counter_computed=int(meta["counter_computed"]),
            counter_pruned=int(meta["counter_pruned"]),
            retired=tuple(int(i) for i in meta["retired"]),
            max_adjust=int(meta["max_adjust"]),
            # JSON round-trips the PCG64 state's 128-bit ints
            # losslessly, as the plain ints the generator expects.
            rng_state=meta["rng_state"],
            **{name: arrays[name] for name, _ in _TABLES[version]},
        )
    except (KeyError, TypeError, ValueError, InvalidConfigError) as exc:
        raise SnapshotError(f"malformed snapshot state: {exc!r}") from exc
