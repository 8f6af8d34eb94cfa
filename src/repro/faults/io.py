"""Faulty file IO: torn writes, short reads, ``ENOSPC``/``EIO``, fsync.

:class:`FaultyFile` proxies a binary file object and consults the
failpoint registry before every ``write``/``read``/``flush``, under the
names::

    io.<domain>.write     io.<domain>.read     io.<domain>.flush

where ``domain`` is ``wal``, ``snapshot``, or ``manifest`` — the three
durable artifacts of :mod:`repro.persistence`. fsync goes through
:func:`fsync` under ``io.<domain>.fsync`` (it takes a file descriptor,
not a file object, so it cannot live on the proxy alone).
:func:`fsync_directory` makes a rename durable; it has no failpoint of
its own, because each rename is already followed by a ``*.replaced``
crash failpoint.

Fault kinds interpreted here:

* ``error`` — the operation raises the armed :class:`OSError` without
  touching the underlying file (``ENOSPC`` before anything lands);
* ``torn`` — a **write** persists only ``fraction`` of its bytes, flushes
  and fsyncs them (so the torn prefix is really on disk, exactly like a
  power cut mid-write), then crashes or errors per the spec;
* ``short_read`` — a **read** returns only ``fraction`` of the requested
  bytes;
* ``crash`` / ``delay`` — as in the registry.

The wrap is conditional: :func:`maybe_wrap` returns the raw handle
untouched unless some ``io.<domain>.*`` failpoint is armed, so the
disabled-path cost is one prefix scan of an (almost always empty) dict.
"""

from __future__ import annotations

import os
import time
from typing import IO, Callable

from .registry import FAILPOINTS, FailpointRegistry, FaultSpec

__all__ = [
    "FaultyFile",
    "IO_DOMAINS",
    "fsync",
    "fsync_directory",
    "maybe_wrap",
]

#: Domains the persistence layer routes through this module.
IO_DOMAINS = ("wal", "snapshot", "manifest")


class FaultyFile:
    """A binary file proxy that injects registry-armed IO faults.

    Args:
        handle: the real (binary) file object.
        domain: failpoint namespace, one of :data:`IO_DOMAINS` (free-form
            domains are allowed for tests).
        registry: the registry to consult; the process-wide
            :data:`~repro.faults.registry.FAILPOINTS` by default.
        sleep: sleep function used by ``delay`` faults (injectable so
            tests never wall-sleep).

    Everything not intercepted (``seek``, ``tell``, ``fileno``, ...)
    passes straight through, so the proxy is drop-in for ``zipfile`` and
    ``numpy`` consumers.
    """

    def __init__(
        self,
        handle: IO[bytes],
        domain: str,
        registry: FailpointRegistry = FAILPOINTS,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._handle = handle
        self._domain = domain
        self._registry = registry
        self._sleep = sleep

    # ------------------------------------------------------------------
    # Intercepted operations
    # ------------------------------------------------------------------
    def write(self, data) -> int:
        spec = self._registry.trigger(f"io.{self._domain}.write")
        if spec is None:
            return self._handle.write(data)
        if spec.kind == "torn":
            return self._torn_write(bytes(data), spec)
        spec.execute(sleep=self._sleep)
        return self._handle.write(data)  # delay faults still write

    def read(self, size: int = -1) -> bytes:
        spec = self._registry.trigger(f"io.{self._domain}.read")
        if spec is None:
            return self._handle.read(size)
        if spec.kind == "short_read":
            data = self._handle.read(size)
            short = data[: int(len(data) * spec.fraction)]
            # Leave the cursor where the short read ended, as a real
            # short read would.
            self._handle.seek(len(short) - len(data), os.SEEK_CUR)
            return short
        spec.execute(sleep=self._sleep)
        return self._handle.read(size)

    def flush(self) -> None:
        spec = self._registry.trigger(f"io.{self._domain}.flush")
        if spec is not None:
            spec.execute(sleep=self._sleep)
        self._handle.flush()

    def _torn_write(self, data: bytes, spec: FaultSpec) -> int:
        kept = data[: int(len(data) * spec.fraction)]
        self._handle.write(kept)
        # Persist the torn prefix the way a power cut would have: flush
        # through the OS so the bytes exist after the process dies.
        self._handle.flush()
        try:
            os.fsync(self._handle.fileno())
        except (OSError, ValueError):  # pragma: no cover - non-file sinks
            pass
        if spec.then == "crash":
            os._exit(spec.exit_code)
        raise spec.make_exception()

    # ------------------------------------------------------------------
    # Passthrough
    # ------------------------------------------------------------------
    def __getattr__(self, name: str):
        return getattr(self._handle, name)

    def __enter__(self) -> "FaultyFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._handle.__exit__(*exc_info)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultyFile(domain={self._domain!r}, handle={self._handle!r})"


def maybe_wrap(
    handle: IO[bytes],
    domain: str,
    registry: FailpointRegistry = FAILPOINTS,
):
    """Wrap ``handle`` in a :class:`FaultyFile` iff ``io.<domain>.*`` is
    armed; otherwise return it untouched (the zero-cost default)."""
    if not registry.has_prefix(f"io.{domain}."):
        return handle
    return FaultyFile(handle, domain, registry=registry)


def fsync(
    fileno: int,
    domain: str,
    registry: FailpointRegistry = FAILPOINTS,
) -> None:
    """``os.fsync`` with an ``io.<domain>.fsync`` failpoint in front.

    An armed ``error`` fault raises *instead of* syncing — the bytes are
    in the OS page cache but their durability is unknown, which is
    exactly the state a real failed fsync leaves behind.
    """
    if registry._armed:  # fast path mirror of FailpointRegistry.fire
        spec = registry.trigger(f"io.{domain}.fsync")
        if spec is not None:
            spec.execute()
    os.fsync(fileno)


def fsync_directory(directory: str | os.PathLike) -> None:
    """fsync ``directory`` so a rename just made inside it survives a
    power loss (the new directory entry, not only the file's bytes)."""
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
