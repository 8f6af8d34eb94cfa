"""Durable per-tenant dead-letter queue (``tenants/<t>/deadletter.ndjson``).

When the fleet cannot apply an event — the micro-batch holding it blew
up a shard, a circuit breaker is shedding a poisoned tenant, or a failed
shard still held queued points at drain — the event must not simply
vanish from the accounting, and it must *never* reach the WAL (the WAL
is the record of what was applied; a poisoned batch replayed at recovery
would re-kill the shard). Instead each such event is appended here, one
schema-stamped JSON envelope per line::

    {"schema": 1, "reason": "append_failed", "error": "ServiceError: ...",
     "event": {"schema": 1, "tenant": "user-0042", "point": [0.1, -3.2]}}

* ``reason`` — why the event was parked: ``append_failed`` (the batch
  that poisoned a shard), ``breaker_open`` (shed while the tenant's
  circuit breaker was open), or ``drain_failed_shard`` (still queued on
  a failed shard when the fleet drained).
* ``error`` — the stringified exception behind ``append_failed`` /
  ``drain_failed_shard`` envelopes, for post-mortems.
* ``event`` — the full wire-format event document
  (:func:`repro.service.events.event_document`), so a dead letter can be
  re-submitted through the *normal* ingestion path byte-for-byte.

The file is append-only NDJSON with the same crash semantics as the
event log: a torn final line (crash mid-append) is tolerated on read and
dropped; a malformed line *before* the tail fails loudly. Replay
(:func:`replay_dead_letters`, surfaced as ``repro-bubbles dlq
--replay``) drains letters back through a caller-supplied submit
callable and atomically rewrites the file with whatever could not be
re-submitted — a fully drained queue leaves an empty file behind.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass
from typing import Callable, Iterable

from ..exceptions import EventError, ServiceError
from ..faults import FAILPOINTS, declare_failpoint, fsync_directory
from .events import PointEvent, event_document, event_from_document

__all__ = [
    "DEADLETTER_FILENAME",
    "DEADLETTER_SCHEMA_VERSION",
    "DEADLETTER_REASONS",
    "DeadLetter",
    "ReplayReport",
    "append_dead_letters",
    "deadletter_path",
    "read_dead_letters",
    "replay_dead_letters",
]

#: Version stamped on (and required of) every dead-letter envelope.
DEADLETTER_SCHEMA_VERSION = 1

#: File name under each tenant's state directory.
DEADLETTER_FILENAME = "deadletter.ndjson"

#: The accepted ``reason`` values, mirrored in the accounting counters.
DEADLETTER_REASONS = ("append_failed", "breaker_open", "drain_failed_shard")

# Fired after a dead-letter append has been flushed to the file — the
# durability boundary the fleet chaos matrix kills at.
_FP_APPEND_FLUSHED = declare_failpoint("dlq.append.flushed")


@dataclass(frozen=True)
class DeadLetter:
    """One parked event plus why it was parked."""

    event: PointEvent
    reason: str
    error: str | None = None

    def __post_init__(self) -> None:
        if self.reason not in DEADLETTER_REASONS:
            raise ServiceError(
                f"unknown dead-letter reason {self.reason!r} "
                f"(expected one of {DEADLETTER_REASONS})"
            )


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of one :func:`replay_dead_letters` pass."""

    replayed: int
    requeued: int

    @property
    def drained(self) -> bool:
        """Whether the queue is now empty."""
        return self.requeued == 0


def deadletter_path(state_dir: str | pathlib.Path) -> pathlib.Path:
    """The dead-letter file for one tenant's state directory."""
    return pathlib.Path(state_dir) / DEADLETTER_FILENAME


def _encode(letter: DeadLetter) -> str:
    envelope: dict = {
        "schema": DEADLETTER_SCHEMA_VERSION,
        "reason": letter.reason,
        "event": event_document(letter.event),
    }
    if letter.error is not None:
        envelope["error"] = str(letter.error)
    return json.dumps(envelope, separators=(",", ":"))


def _decode(line: str, lineno: int) -> DeadLetter:
    try:
        envelope = json.loads(line)
    except json.JSONDecodeError as exc:
        raise EventError(
            f"dead-letter line is not valid JSON ({exc.msg})", lineno
        ) from None
    if not isinstance(envelope, dict):
        raise EventError(
            f"dead-letter line is not a JSON object "
            f"(got {type(envelope).__name__})",
            lineno,
        )
    schema = envelope.get("schema")
    if schema != DEADLETTER_SCHEMA_VERSION:
        raise EventError(
            f"unsupported dead-letter schema {schema!r} (this build "
            f"reads schema {DEADLETTER_SCHEMA_VERSION})",
            lineno,
        )
    reason = envelope.get("reason")
    if reason not in DEADLETTER_REASONS:
        raise EventError(
            f"unknown dead-letter reason {reason!r} "
            f"(expected one of {DEADLETTER_REASONS})",
            lineno,
        )
    error = envelope.get("error")
    if error is not None and not isinstance(error, str):
        raise EventError(
            f"dead-letter error {error!r} is not a string", lineno
        )
    event = event_from_document(envelope.get("event"), lineno)
    return DeadLetter(event=event, reason=reason, error=error)


def append_dead_letters(
    path: str | pathlib.Path,
    letters: Iterable[DeadLetter],
    fsync: bool = True,
) -> int:
    """Durably append envelopes to ``path``; returns how many were written.

    The write is flushed (and fsync'd unless disabled) before the
    ``dlq.append.flushed`` failpoint fires, so a process killed at that
    boundary has every letter on disk — at worst a crash *mid*-append
    leaves one torn final line, which readers drop.
    """
    path = pathlib.Path(path)
    lines = [_encode(letter) for letter in letters]
    if not lines:
        return 0
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    FAILPOINTS.fire(_FP_APPEND_FLUSHED)
    return len(lines)


def read_dead_letters(path: str | pathlib.Path) -> list[DeadLetter]:
    """Read every intact envelope; a missing file is an empty queue.

    A torn final line — no trailing newline and unparseable, the
    footprint of a crash mid-append — is dropped. Any malformed line
    *before* the tail raises :class:`~repro.exceptions.EventError` with
    its line number: previously flushed letters should never be
    unreadable.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return []
    raw = path.read_text(encoding="utf-8")
    if not raw:
        return []
    complete_tail = raw.endswith("\n")
    lines = raw.splitlines()
    letters: list[DeadLetter] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            letters.append(_decode(line, lineno))
        except EventError:
            if lineno == len(lines) and not complete_tail:
                break  # torn final line: never fully flushed
            raise
    return letters


def replay_dead_letters(
    path: str | pathlib.Path,
    submit: Callable[[PointEvent], bool],
    fsync: bool = True,
) -> ReplayReport:
    """Drain the queue back through ``submit``, keeping what still fails.

    Each letter's event is offered to ``submit`` (normally
    ``FleetManager.submit`` — the full ingestion path with screening,
    backpressure and durability). Letters whose submission returns
    ``False`` or raises :class:`~repro.exceptions.ServiceError` are kept;
    the file is then atomically rewritten (tmp + ``os.replace``) with
    exactly the survivors, so a crash mid-replay leaves either the old
    queue or the pruned one — never a half state. Re-submitted events
    are acknowledged by the fleet's WAL before the rewrite happens, so
    the worst crash outcome is a duplicate replay, never a lost letter.
    """
    path = pathlib.Path(path)
    letters = read_dead_letters(path)
    if not letters:
        return ReplayReport(replayed=0, requeued=0)
    kept: list[DeadLetter] = []
    replayed = 0
    for letter in letters:
        try:
            accepted = submit(letter.event)
        except ServiceError as exc:
            kept.append(
                DeadLetter(
                    event=letter.event,
                    reason=letter.reason,
                    error=f"replay failed: {exc}",
                )
            )
            continue
        if accepted:
            replayed += 1
        else:
            kept.append(letter)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        if kept:
            handle.write("\n".join(_encode(letter) for letter in kept) + "\n")
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if fsync:
        fsync_directory(path.parent)
    return ReplayReport(replayed=replayed, requeued=len(kept))
