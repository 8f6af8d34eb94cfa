"""The crash matrix: kill a child at every declared failpoint, recover,
and prove the result identical to an uninterrupted run.

Each case spawns a subprocess that arms one fault via the
``REPRO_FAILPOINTS`` environment variable and streams deterministic
chunks into a :class:`DurableSummarizer`. The parent asserts the child
died with the canonical injected-crash exit code, runs a second child to
recover and finish the stream, then compares the final durable state
bit-for-bit against a golden uninterrupted run — and audits it.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro import DurableSummarizer
from repro.faults import CRASH_EXIT_CODE, known_failpoints

pytestmark = pytest.mark.slow

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOTAL_CHUNKS = 14

# One crash directive per declared failpoint. ``after`` values are tuned
# so the crash lands mid-stream (checkpoints happen every 4 batches; the
# manifest is written exactly once, at creation).
CRASH_SPECS = {
    "wal.append.start": "crash@9",
    "wal.append.flushed": "crash@9",
    "wal.compact.rewritten": "crash@1",
    "wal.compact.replaced": "crash@1",
    "checkpoint.snapshot_written": "crash@1",
    "checkpoint.done": "crash@1",
    "manifest.tmp_written": "crash",
    "snapshot.tmp_written": "crash@1",
    "snapshot.replaced": "crash@1",
}

# Torn-write faults on every IO domain: persist half the bytes, fsync
# them (the power-cut signature), then die.
TORN_SPECS = {
    "io.wal.write": "torn:0.5:crash@9",
    "io.snapshot.write": "torn:0.5:crash@3",
    "io.manifest.write": "torn:0.5:crash",
}

# The child: create-or-recover a durable summarizer and stream
# deterministic chunks (chunk i is a pure function of i) to a total.
CHILD = """
import sys
import numpy as np
from repro import DurableSummarizer
from repro.faults import install_from_env
from repro.persistence import recovery_exists

wal_dir, total = sys.argv[1], int(sys.argv[2])
install_from_env()

def chunk(i):
    return np.random.default_rng(1000 + i).normal(size=(60, 2))

if recovery_exists(wal_dir):
    stream = DurableSummarizer.recover(wal_dir, fsync=False)
else:
    stream = DurableSummarizer(
        wal_dir, dim=2, window_size=400, points_per_bubble=20, seed=5,
        checkpoint_every=4, fsync=False)
for i in range(stream.batches_applied, total):
    stream.append(chunk(i))
stream.close()
"""


def run_child(wal_dir, total=TOTAL_CHUNKS, faults=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    if faults is None:
        env.pop("REPRO_FAILPOINTS", None)
    else:
        env["REPRO_FAILPOINTS"] = faults
    return subprocess.run(
        [sys.executable, "-c", CHILD, str(wal_dir), str(total)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def final_summarizer(wal_dir):
    return DurableSummarizer.recover(wal_dir, fsync=False)


def assert_identical(a, b):
    """Bit-identical summaries, stores, retired sets and RNG states."""
    assert a.batches_applied == b.batches_applied
    assert len(a.summary) == len(b.summary)
    for bubble_a, bubble_b in zip(a.summary, b.summary):
        assert bubble_a.n == bubble_b.n
        assert np.array_equal(bubble_a.seed, bubble_b.seed)
        assert np.array_equal(
            np.asarray(bubble_a.stats.linear_sum),
            np.asarray(bubble_b.stats.linear_sum),
        )
        assert bubble_a.stats.square_sum == bubble_b.stats.square_sum
        assert np.array_equal(
            a.store.owned_by(bubble_a.bubble_id),
            b.store.owned_by(bubble_b.bubble_id),
        )
    ids_a, ids_b = a.store.ids(), b.store.ids()
    assert np.array_equal(ids_a, ids_b)
    assert np.array_equal(
        a.store.points_of(ids_a), b.store.points_of(ids_b)
    )
    assert np.array_equal(
        a.store.owners_of(ids_a), b.store.owners_of(ids_b)
    )
    assert a.maintainer.retired_ids == b.maintainer.retired_ids
    assert a.maintainer.rng_state == b.maintainer.rng_state


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    """The uninterrupted reference run, in its own subprocess."""
    wal_dir = tmp_path_factory.mktemp("golden") / "state"
    result = run_child(wal_dir)
    assert result.returncode == 0, result.stderr
    return wal_dir


def test_matrix_covers_every_declared_failpoint():
    # Importing repro (above) pulls in every fire site; a failpoint
    # declared anywhere must have a crash directive here, or the matrix
    # silently loses coverage. Service-boundary failpoints (shard.*,
    # fleet.*, dlq.*) belong to the fleet chaos matrix in
    # test_service_chaos_matrix.py, which carries its own guard.
    core = {
        name
        for name in known_failpoints()
        if not name.startswith(("shard.", "fleet.", "dlq."))
    }
    assert set(CRASH_SPECS) == core


@pytest.mark.parametrize("name", sorted(CRASH_SPECS))
def test_crash_at_failpoint_recovers_identically(
    name, golden_dir, tmp_path
):
    wal_dir = tmp_path / "state"
    crashed = run_child(wal_dir, faults=f"{name}={CRASH_SPECS[name]}")
    assert crashed.returncode == CRASH_EXIT_CODE, (
        f"fault at {name} did not fire: rc={crashed.returncode}, "
        f"stderr={crashed.stderr}"
    )

    resumed = run_child(wal_dir)
    assert resumed.returncode == 0, resumed.stderr

    golden = final_summarizer(golden_dir)
    recovered = final_summarizer(wal_dir)
    try:
        assert_identical(recovered, golden)
        report = recovered.audit()
        assert report.ok and report.healthy
    finally:
        golden._manager.close()
        recovered._manager.close()


@pytest.mark.parametrize("domain", sorted(TORN_SPECS))
def test_torn_write_recovers_identically(domain, golden_dir, tmp_path):
    wal_dir = tmp_path / "state"
    crashed = run_child(wal_dir, faults=f"{domain}={TORN_SPECS[domain]}")
    assert crashed.returncode == CRASH_EXIT_CODE, (
        f"torn fault at {domain} did not fire: rc={crashed.returncode}, "
        f"stderr={crashed.stderr}"
    )

    resumed = run_child(wal_dir)
    assert resumed.returncode == 0, resumed.stderr

    golden = final_summarizer(golden_dir)
    recovered = final_summarizer(wal_dir)
    try:
        assert_identical(recovered, golden)
        report = recovered.audit()
        assert report.ok and report.healthy
    finally:
        golden._manager.close()
        recovered._manager.close()


def test_double_crash_still_recovers(golden_dir, tmp_path):
    """Two consecutive crashes (a crash loop) must not compound damage."""
    wal_dir = tmp_path / "state"
    first = run_child(wal_dir, faults="wal.append.flushed=crash@5")
    assert first.returncode == CRASH_EXIT_CODE
    second = run_child(wal_dir, faults="io.wal.write=torn:0.5:crash@7")
    assert second.returncode == CRASH_EXIT_CODE

    resumed = run_child(wal_dir)
    assert resumed.returncode == 0, resumed.stderr

    golden = final_summarizer(golden_dir)
    recovered = final_summarizer(wal_dir)
    try:
        assert_identical(recovered, golden)
        assert recovered.audit().healthy
    finally:
        golden._manager.close()
        recovered._manager.close()
