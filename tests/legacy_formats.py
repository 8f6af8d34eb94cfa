"""Writers of the persistence formats that earlier versions produced.

The library still reads these formats but no longer writes them, so the
compatibility tests write them here, without the library's encoders:

* write-ahead logs of version 1 (magic ``RPROWAL1``, CRC only) and
  version 2 (``RPROWAL2``, hash-chained), whose payloads are ``.npz``
  archives of ``deletions``, ``insertions`` and ``labels``;
* version-1 snapshots: ``.npz`` archives of the state arrays, the member
  CSR (``member_offsets``, ``member_ids``) and a ``meta_json`` document,
  stored or deflated;
* version-2 snapshots: ``RPROSNAP`` containers whose array table holds
  the eight summary arrays and no kept seed matrix.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
import zlib

import numpy as np

from repro.persistence import config_to_dict

MAGIC_V1 = b"RPROWAL1"
MAGIC_V2 = b"RPROWAL2"
HEADER = struct.Struct("<QII")
SNAPSHOT_MAGIC = b"RPROSNAP"

#: The state arrays of version-1 and -2 snapshots, with their dtypes.
STATE_ARRAYS = (
    ("store_ids", "<i8"),
    ("store_points", "<f8"),
    ("store_labels", "<i8"),
    ("store_owners", "<i8"),
    ("seeds", "<f8"),
    ("ns", "<i8"),
    ("linear_sums", "<f8"),
    ("square_sums", "<f8"),
)


def npz_payload(batch) -> bytes:
    """A batch as the ``.npz`` payload of a version-1 or -2 record."""
    buffer = io.BytesIO()
    np.savez(
        buffer,
        deletions=np.asarray(batch.deletions, dtype=np.int64),
        insertions=np.asarray(batch.insertions, dtype=np.float64),
        labels=np.asarray(batch.insertion_labels, dtype=np.int64),
    )
    return buffer.getvalue()


def write_legacy_log(path, batches, version, first_seq=0):
    """Write ``batches`` as a version-``version`` (1 or 2) log whose
    records carry seqs ``first_seq, first_seq + 1, ...``."""
    magic = {1: MAGIC_V1, 2: MAGIC_V2}[version]
    blob = bytearray(magic)
    chain = hashlib.sha256(magic).digest()
    for seq, batch in enumerate(batches, start=first_seq):
        payload = npz_payload(batch)
        packed = struct.pack("<QI", seq, len(payload))
        blob += HEADER.pack(seq, len(payload), zlib.crc32(packed + payload))
        if version == 2:
            chain = hashlib.sha256(chain + packed + payload).digest()
            blob += chain
        blob += payload
    path.write_bytes(bytes(blob))
    return path


def member_csr(state):
    """The per-bubble member lists a version-1 snapshot carried, built
    bubble by bubble from the owner column."""
    members = [
        state.store_ids[state.store_owners == b]
        for b in range(state.num_bubbles)
    ]
    offsets = np.zeros(len(members) + 1, dtype=np.int64)
    np.cumsum([len(m) for m in members], out=offsets[1:])
    ids = np.concatenate(members) if members else np.empty(0, np.int64)
    return offsets, ids.astype(np.int64)


def snapshot_meta(state, version, extra_config=None):
    """The scalar state a version-1 or -2 snapshot of ``state`` carries;
    the config gains ``extra_config``'s keys."""
    config = config_to_dict(state.config)
    config.update(extra_config or {})
    return {
        "snapshot_version": version,
        "dim": state.dim,
        "window_size": state.window_size,
        "points_per_bubble": state.points_per_bubble,
        "seed": state.seed,
        "config": config,
        "batches_applied": state.batches_applied,
        "bootstrapped": state.bootstrapped,
        "store_next_id": state.store_next_id,
        "counter_computed": state.counter_computed,
        "counter_pruned": state.counter_pruned,
        "retired": sorted(int(i) for i in state.retired),
        "max_adjust": state.max_adjust,
        "rng_state": state.rng_state,
    }


def npz_snapshot_arrays(state, extra_config=None):
    """Every member of the version-1 snapshot of ``state``; the config
    in ``meta_json`` gains ``extra_config``'s keys."""
    meta = snapshot_meta(state, 1, extra_config)
    arrays = {
        name: np.asarray(getattr(state, name)) for name, _ in STATE_ARRAYS
    }
    arrays["member_offsets"], arrays["member_ids"] = member_csr(state)
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    return arrays


def write_npz_snapshot(path, state, compressed=False, extra_config=None):
    """Write ``state`` as a version-1 ``.npz`` snapshot."""
    save = np.savez_compressed if compressed else np.savez
    with open(path, "wb") as handle:
        save(handle, **npz_snapshot_arrays(state, extra_config))
    return path


def v2_container(state) -> bytes:
    """``state`` as a version-2 snapshot container, CRC-32 included: the
    magic, a u32 header length, the JSON header with its array table,
    the eight arrays back to back and a CRC-32 over all of it."""
    arrays = [
        np.ascontiguousarray(getattr(state, name), dtype=dtype)
        for name, dtype in STATE_ARRAYS
    ]
    header = snapshot_meta(state, 2)
    header["arrays"] = [
        [name, dtype, list(array.shape)]
        for (name, dtype), array in zip(STATE_ARRAYS, arrays)
    ]
    encoded = json.dumps(header).encode("utf-8")
    body = b"".join(
        [SNAPSHOT_MAGIC, struct.pack("<I", len(encoded)), encoded]
        + [array.tobytes() for array in arrays]
    )
    return body + struct.pack("<I", zlib.crc32(body))


def write_v2_snapshot(path, state):
    """Write ``state`` as a version-2 ``.snap`` container."""
    path.write_bytes(v2_container(state))
    return path
