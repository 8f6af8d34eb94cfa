"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import stat

import numpy as np
import pytest

from repro import (
    BubbleBuilder,
    BubbleConfig,
    PointStore,
)
from repro.faults import FAILPOINTS


@pytest.fixture(autouse=True)
def _clean_failpoints():
    """Leave the process-wide failpoint registry disarmed between tests."""
    yield
    FAILPOINTS.clear()
    FAILPOINTS.enable()


@pytest.fixture
def fsync_trace(monkeypatch) -> list[str]:
    """Record ``os.fsync`` (of a file or a directory) and ``os.replace``
    calls in order, as ``fsync_file`` / ``fsync_dir`` / ``replace``."""
    events: list[str] = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
        events.append("fsync_dir" if is_dir else "fsync_file")
        real_fsync(fd)

    def replace(src, dst):
        events.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return events


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG for tests that need randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def two_cluster_points(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two well-separated 2-d Gaussian clusters plus light noise."""
    points = np.vstack(
        [
            rng.normal([0.0, 0.0], 0.5, size=(300, 2)),
            rng.normal([10.0, 10.0], 0.5, size=(300, 2)),
            rng.uniform(-3.0, 13.0, size=(30, 2)),
        ]
    )
    labels = np.concatenate(
        [
            np.zeros(300, dtype=np.int64),
            np.ones(300, dtype=np.int64),
            np.full(30, -1, dtype=np.int64),
        ]
    )
    return points, labels


@pytest.fixture
def populated_store(
    two_cluster_points: tuple[np.ndarray, np.ndarray],
) -> PointStore:
    """A store holding the two-cluster dataset."""
    points, labels = two_cluster_points
    store = PointStore(dim=2)
    store.insert(points, labels)
    return store


@pytest.fixture
def built_bubbles(populated_store: PointStore):
    """A freshly built 12-bubble summary of the two-cluster store."""
    builder = BubbleBuilder(BubbleConfig(num_bubbles=12, seed=7))
    return builder.build(populated_store)
