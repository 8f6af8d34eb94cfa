"""Persistence of stores and summaries (numpy ``.npz`` archives).

An incremental summarization is only useful if it survives process
restarts — rebuilding bubbles from scratch at startup would forfeit the
incremental savings. This module round-trips a whole session (the
:class:`~repro.database.PointStore` plus its
:class:`~repro.core.bubble_set.BubbleSet`) through a single compressed
``.npz`` file:

* the store is saved as its alive ids, coordinates, labels, ownership and
  id counter (ids are preserved exactly, including deletion gaps);
* the summary is saved structurally (seeds + member id lists, derived
  from the owner column — the store's ownership *is* the membership);
  sufficient statistics are *recomputed* from the owned points'
  coordinates on load, which keeps the file format minimal. On load the
  member lists must equal what the owner column implies, so a file whose
  two copies of the membership disagree is rejected rather than loaded
  into an inconsistent summary.

Example:
    >>> save_session("session.npz", store, bubbles)   # doctest: +SKIP
    >>> store2, bubbles2 = load_session("session.npz")  # doctest: +SKIP
"""

from __future__ import annotations

import pathlib

import numpy as np

from .core.bubble_set import BubbleSet, check_members
from .database import PointStore

__all__ = ["save_session", "load_session"]

_FORMAT_VERSION = 1


def save_session(
    path: str | pathlib.Path,
    store: PointStore,
    bubbles: BubbleSet | None = None,
) -> None:
    """Persist a store (and optionally its summary) to ``path``.

    Raises:
        ValueError: if a bubble's ``n`` differs from the number of points
            the store's owner column gives it (a desynchronized pair
            would not survive the round trip, so it is rejected up
            front).
    """
    ids, points, labels = store.snapshot()
    owners = store.owners_of(ids)
    payload: dict[str, np.ndarray] = {
        "format_version": np.int64(_FORMAT_VERSION),
        "dim": np.int64(store.dim),
        "next_id": np.int64(store.next_id),
        "ids": ids,
        "points": points,
        "labels": labels,
        "owners": owners,
        "has_summary": np.bool_(bubbles is not None),
    }
    if bubbles is not None:
        offsets, member_ids = bubbles.member_csr()
        check_members(bubbles, offsets, member_ids)
        payload["seeds"] = bubbles.seeds()
        payload["member_offsets"] = offsets
        payload["member_ids"] = member_ids
    np.savez_compressed(pathlib.Path(path), **payload)


def load_session(
    path: str | pathlib.Path,
) -> tuple[PointStore, BubbleSet | None]:
    """Load a session saved by :func:`save_session`.

    Returns:
        ``(store, bubbles)``; ``bubbles`` is ``None`` when the session was
        saved without a summary.

    Raises:
        ValueError: the file's format version is unknown, or its member
            arrays disagree with its owner column.
    """
    with np.load(pathlib.Path(path)) as archive:
        version = int(archive["format_version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported session format version {version}"
            )
        dim = int(archive["dim"])
        store = PointStore.from_snapshot(
            dim=dim,
            ids=archive["ids"],
            points=archive["points"],
            labels=archive["labels"],
            owners=archive["owners"],
            next_id=int(archive["next_id"]),
        )
        if not bool(archive["has_summary"]):
            return store, None
        seeds = archive["seeds"]
        offsets = archive["member_offsets"]
        member_ids = archive["member_ids"]

    bubbles = BubbleSet.from_arrays(store, seeds)
    owned_offsets, owned_ids = bubbles.member_csr()
    bubbles.absorb(
        store.points_of(owned_ids),
        np.repeat(np.arange(len(bubbles)), np.diff(owned_offsets)),
    )
    check_members(bubbles, offsets, member_ids)
    return store, bubbles
