"""Versioned snapshot files for summarizer state.

A snapshot is one plain (uncompressed) ``.npz`` archive holding a
:class:`~repro.persistence.state.SummarizerState`: every numeric array is
stored as-is (raw sufficient statistics included — see ``state.py`` on why
they are never recomputed) and the scalar/structured remainder travels as
one JSON document under the ``meta_json`` key. The archive is not
deflated: compression cost several times the CPU of the plain write for
a file about 2.5 times smaller (``docs/PERFORMANCE.md``, "Checkpoint
cost") and bought no integrity, since every zip member carries a CRC-32
either way. Compressed snapshots written by earlier versions still load:
``np.load`` reads stored and deflated members alike.

Writes are **atomic**: the archive is written to a temporary sibling,
flushed to disk, then ``os.replace``d over the final name, and the
directory is fsynced so the rename itself is durable. A crash mid-write
leaves at most a stale ``*.tmp`` file, never a half-written snapshot under
the real name — which is what lets recovery treat "the newest snapshot that
loads" as "the newest snapshot that was fully written".

Reads validate the format version and re-wrap every decoding failure —
including a zip member whose CRC-32 no longer matches its bytes — in
:class:`~repro.exceptions.SnapshotError` so recovery can fall back to an
older snapshot instead of crashing on a damaged file.
"""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np

from ..exceptions import SnapshotError
from ..faults import (
    FAILPOINTS,
    RetryPolicy,
    declare_failpoint,
    fsync_directory,
    maybe_wrap,
)
from ..faults import fsync as faulty_fsync
from .state import SummarizerState, config_from_dict, config_to_dict

__all__ = ["SNAPSHOT_VERSION", "write_snapshot", "read_snapshot"]

SNAPSHOT_VERSION = 1

# Crash-matrix failpoints: a crash at tmp_written leaves a stale *.tmp
# (swept at the next startup); a crash at replaced leaves a fully valid
# snapshot whose directory entry may not be durable yet.
_FP_TMP_WRITTEN = declare_failpoint("snapshot.tmp_written")
_FP_REPLACED = declare_failpoint("snapshot.replaced")


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
    meta = {
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
    tmp = path.with_name(path.name + ".tmp")

    def write_tmp() -> None:
        with open(tmp, "wb") as raw:
            handle = maybe_wrap(raw, "snapshot")
            np.savez(
                handle,
                meta_json=np.frombuffer(
                    json.dumps(meta).encode("utf-8"), dtype=np.uint8
                ),
                store_ids=state.store_ids,
                store_points=state.store_points,
                store_labels=state.store_labels,
                store_owners=state.store_owners,
                seeds=state.seeds,
                ns=state.ns,
                linear_sums=state.linear_sums,
                square_sums=state.square_sums,
                member_offsets=state.member_offsets,
                member_ids=state.member_ids,
            )
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
    """Load a snapshot written by :func:`write_snapshot`.

    Raises:
        SnapshotError: the file is unreadable, incomplete, or carries an
            unsupported format version.
    """
    path = pathlib.Path(path)
    try:
        with open(path, "rb") as raw, np.load(
            maybe_wrap(raw, "snapshot"), allow_pickle=False
        ) as archive:
            # numpy stops reading a member at the end of the shape its
            # header declares, so a flipped shape digit would skip that
            # member's CRC-32. Check every member in full first.
            damaged = archive.zip.testzip()
            if damaged is not None:
                raise SnapshotError(
                    f"{path}: CRC-32 mismatch in member {damaged}"
                )
            meta = json.loads(
                bytes(archive["meta_json"].tobytes()).decode("utf-8")
            )
            version = int(meta.get("snapshot_version", -1))
            if version != SNAPSHOT_VERSION:
                raise SnapshotError(
                    f"{path}: unsupported snapshot version {version} "
                    f"(this build reads version {SNAPSHOT_VERSION})"
                )
            return SummarizerState(
                dim=int(meta["dim"]),
                window_size=int(meta["window_size"]),
                points_per_bubble=int(meta["points_per_bubble"]),
                seed=None if meta["seed"] is None else int(meta["seed"]),
                config=config_from_dict(meta["config"]),
                batches_applied=int(meta["batches_applied"]),
                bootstrapped=bool(meta["bootstrapped"]),
                store_ids=archive["store_ids"],
                store_points=archive["store_points"],
                store_labels=archive["store_labels"],
                store_owners=archive["store_owners"],
                store_next_id=int(meta["store_next_id"]),
                counter_computed=int(meta["counter_computed"]),
                counter_pruned=int(meta["counter_pruned"]),
                seeds=archive["seeds"],
                ns=archive["ns"],
                linear_sums=archive["linear_sums"],
                square_sums=archive["square_sums"],
                member_offsets=archive["member_offsets"],
                member_ids=archive["member_ids"],
                retired=tuple(int(i) for i in meta["retired"]),
                max_adjust=int(meta["max_adjust"]),
                # JSON round-trips the PCG64 state's 128-bit ints
                # losslessly, as the plain ints the generator expects.
                rng_state=meta["rng_state"],
            )
    except SnapshotError:
        raise
    except Exception as exc:  # zipfile errors, KeyError, json errors, ...
        raise SnapshotError(f"unreadable snapshot {path}: {exc}") from exc

