"""Deterministic fault injection for robustness testing.

The paper's promise — a summary "available at any point in time" — is only
credible if availability survives the failures a long-running service
actually meets: torn writes, full disks, flaky devices, corrupted files,
poisoned input. This package provides the machinery that *proves* it:

* :mod:`~repro.faults.registry` — :class:`FailpointRegistry`: named
  crash/error/delay points compiled into the persistence paths, armed by
  tests (or ``REPRO_FAILPOINTS`` in a child process) and zero-cost when
  disabled;
* :mod:`~repro.faults.io` — :class:`FaultyFile`: a file proxy injecting
  torn writes, short reads, ``ENOSPC``/``EIO`` and fsync failures into
  the WAL/snapshot/manifest IO;
* :mod:`~repro.faults.retry` — :class:`RetryPolicy`: bounded
  exponential backoff for transient IO errors, with injectable sleep so
  tests never wall-sleep.

The crash-matrix suite (``tests/test_faults_crash_matrix.py``) kills a
child process at every :func:`known_failpoints` entry and asserts that
recovery yields either bit-identical state or a consistent older
generation — never a traceback, never silent corruption. Failure modes
and failpoint names are catalogued in ``docs/ROBUSTNESS.md``.
"""

from .io import (
    FaultyFile,
    IO_DOMAINS,
    fsync,
    fsync_directory,
    maybe_wrap,
)
from .registry import (
    CRASH_EXIT_CODE,
    ENV_KEY,
    FAILPOINTS,
    FailpointRegistry,
    FaultSpec,
    declare_failpoint,
    failpoint,
    install_from_env,
    known_failpoints,
)
from .retry import RetryPolicy, TRANSIENT_ERRNOS, is_transient

__all__ = [
    "CRASH_EXIT_CODE",
    "ENV_KEY",
    "FAILPOINTS",
    "FailpointRegistry",
    "FaultSpec",
    "FaultyFile",
    "IO_DOMAINS",
    "RetryPolicy",
    "TRANSIENT_ERRNOS",
    "declare_failpoint",
    "failpoint",
    "fsync",
    "fsync_directory",
    "install_from_env",
    "is_transient",
    "known_failpoints",
    "maybe_wrap",
]
