"""Process and host probes: RSS, write volume, CPU steal, fsync calls."""

from __future__ import annotations

import gc
import os
import platform
import resource
import subprocess
import sys
import time

import numpy as np


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_chars() -> int:
    """Bytes this process has passed to write calls (``wchar``)."""
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies of the host CPU since boot."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(v) for v in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


def steal_fraction(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of host CPU time stolen by the hypervisor between probes."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


class FsyncCounter:
    """Counts ``os.fsync`` calls while installed as a patch target."""

    def __init__(self) -> None:
        self.calls = 0
        self._fsync = os.fsync

    def target(self) -> tuple:
        def counting_fsync(fd):
            self.calls += 1
            return self._fsync(fd)

        return (os, "fsync", counting_fsync)


def import_seconds(src_dir: str, samples: int) -> list[float]:
    """CPU time of ``import repro`` in fresh interpreters."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.thread_time(); import repro; "
        "print(time.thread_time() - t)"
    )
    times = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, "-c", code, src_dir],
            check=True, capture_output=True, text=True, timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


#: Median seconds of one ``calibration_kernel`` call on the reference
#: host (2 vCPU at 2.1 GHz, quiet); normalized timings are expressed at
#: this host speed.
REFERENCE_KERNEL_S = 0.009

_CAL_RNG = np.random.default_rng(20040613)
_CAL_POINTS = _CAL_RNG.normal(size=(64, 8))
_CAL_SEEDS = _CAL_RNG.normal(size=(128, 8))


def _kernel_pass() -> None:
    dist = ((_CAL_POINTS[:, None, :] - _CAL_SEEDS[None, :, :]) ** 2
            ).sum(axis=-1)
    counts: dict[int, int] = {}
    for owner in dist.argmin(axis=1).tolist():
        counts[owner] = counts.get(owner, 0) + 1
    sorted(counts.items())


def calibration_kernel() -> float:
    """Run a fixed CPU kernel once; returns its CPU time in seconds.

    The mix mirrors the program's hot paths: small-array numpy distance
    kernels followed by per-point Python bookkeeping. The kernel runs
    between units of program work, so it must not pay for the state that
    work leaves: the garbage collector is off while it runs (a collection
    would scan the program's heap) and one untimed pass warms the caches
    first.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel_pass()
        begun = time.thread_time()
        for _ in range(20):
            _kernel_pass()
        return time.thread_time() - begun
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """Host speed during a run, from kernel samples taken between work.

    The host shares its CPUs: a fixed kernel's median drifts by +-20%
    over tens of seconds, in CPU time as much as in wall time. A timing
    divided by the slowdown measured around it is expressed at the
    reference host speed.
    """

    #: Kernel samples pooled into one local speed estimate.
    WINDOW = 9

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> float:
        """Take ``count`` kernel samples.

        Returns the CPU seconds spent, warm-up passes included.
        """
        begun = time.thread_time()
        for _ in range(count):
            self.times.append(time.perf_counter())
            self.samples.append(calibration_kernel())
        return time.thread_time() - begun

    def slowdown_at(self, times) -> np.ndarray:
        """Local slowdown (1.0 = reference) around each of ``times``.

        The median of the :attr:`WINDOW` kernel samples nearest in time
        order, over :data:`REFERENCE_KERNEL_S`.
        """
        samples = np.asarray(self.samples)
        half = self.WINDOW // 2
        rolling = np.asarray([
            np.median(samples[max(0, i - half): i + half + 1])
            for i in range(samples.size)
        ])
        index = np.clip(np.searchsorted(self.times, times), 0,
                        samples.size - 1)
        return rolling[index] / REFERENCE_KERNEL_S

    def normalize(self, timings) -> np.ndarray:
        """``(when, seconds)`` pairs as seconds at the reference speed."""
        timings = np.asarray(timings, dtype=np.float64).reshape(-1, 2)
        return timings[:, 1] / self.slowdown_at(timings[:, 0])


def header(workload: str, seed: int, seconds: int, trace: bool,
           run_lengths: dict) -> dict:
    """The run header every result carries."""
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "run_lengths": run_lengths,
    }
