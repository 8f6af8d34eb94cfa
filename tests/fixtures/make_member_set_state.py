"""Write the ``member_set_state`` recovery fixture.

The fixture is a crash-closed :class:`~repro.streaming.DurableSummarizer`
state directory (manifest, two snapshots and a three-batch WAL tail)
plus the arrays its recovery produced, written by commit 1268c4d — the
last version whose bubbles kept member-id sets of their own. The test
``tests/test_persistence_snapshot.py::TestMemberSetStateFixture`` checks
that the current code recovers the same directory to the same arrays,
member CSR and RNG state included. Only the two distance counters were
re-pinned since, when the seed matrix began to be kept across batches
(``counter_computed`` 3066 → 3040, ``counter_pruned`` 1783 → 1767): the
summary is the same, the distances spent on it are fewer.

Run from the repository root, against the version under test::

    PYTHONPATH=src python tests/fixtures/make_member_set_state.py OUT_DIR

It writes ``OUT_DIR/member_set_state/`` and
``OUT_DIR/member_set_state_expected.npz`` /
``OUT_DIR/member_set_state_rng.json``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys
import tempfile

import numpy as np

from repro import DurableSummarizer

#: The ``SummarizerState`` fields compared after recovery.
ARRAY_FIELDS = (
    "store_ids",
    "store_points",
    "store_labels",
    "store_owners",
    "seeds",
    "ns",
    "linear_sums",
    "square_sums",
    "member_offsets",
    "member_ids",
)
SCALAR_FIELDS = (
    "batches_applied",
    "store_next_id",
    "counter_computed",
    "counter_pruned",
    "max_adjust",
)


def chunks() -> list[tuple[np.ndarray, np.ndarray]]:
    """Fifteen 30-point chunks from two drifting clusters."""
    rng = np.random.default_rng(2004)
    out = []
    for index in range(15):
        centers = np.array([[0.0, 0.0], [8.0 + 0.5 * index, 3.0]])
        labels = rng.integers(0, 2, size=30)
        points = centers[labels] + rng.normal(0.0, 0.8, size=(30, 2))
        out.append((points, labels))
    return out


def write_state(state_dir: pathlib.Path) -> None:
    """Checkpoints at 4, 8 and 12 batches, then a crash after 15."""
    stream = DurableSummarizer(
        state_dir,
        dim=2,
        window_size=200,
        points_per_bubble=20,
        seed=11,
        checkpoint_every=4,
        fsync=False,
    )
    for points, labels in chunks():
        stream.append(points, labels)
    # Crash: release the handles without the goodbye checkpoint.
    stream.checkpoints.close()


def recovered_arrays(state_dir: pathlib.Path) -> tuple[dict, dict]:
    """Recover a copy of ``state_dir``; its captured arrays and RNG."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "state"
        shutil.copytree(state_dir, copy)
        stream = DurableSummarizer.recover(copy, fsync=False)
        state = stream.inner.capture_state(stream.batches_applied)
        stream.close(checkpoint=False)
    arrays = {name: getattr(state, name) for name in ARRAY_FIELDS}
    arrays.update(
        {name: np.int64(getattr(state, name)) for name in SCALAR_FIELDS}
    )
    arrays["retired"] = np.asarray(state.retired, dtype=np.int64)
    return arrays, state.rng_state


def main(out_dir: str) -> None:
    out = pathlib.Path(out_dir)
    state_dir = out / "member_set_state"
    write_state(state_dir)
    arrays, rng_state = recovered_arrays(state_dir)
    np.savez(out / "member_set_state_expected.npz", **arrays)
    (out / "member_set_state_rng.json").write_text(
        json.dumps(rng_state, indent=1, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    main(sys.argv[1])
