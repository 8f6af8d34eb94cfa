"""Unit tests for session persistence (save_session / load_session)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BubbleBuilder,
    BubbleConfig,
    IncrementalMaintainer,
    MaintenanceConfig,
    PointStore,
    UpdateBatch,
    load_session,
    save_session,
)
from repro.core import verify_consistency
from repro.database import PointStore as StoreClass
from repro.evaluation import compactness


@pytest.fixture
def session(rng):
    store = PointStore(dim=3)
    store.insert(rng.normal(size=(400, 3)), rng.integers(0, 3, size=400))
    store.delete(store.ids()[::7])  # punch id gaps
    bubbles = BubbleBuilder(BubbleConfig(num_bubbles=12, seed=0)).build(store)
    return store, bubbles


class TestRoundTrip:
    def test_store_roundtrip(self, session, tmp_path):
        store, bubbles = session
        path = tmp_path / "session.npz"
        save_session(path, store, bubbles)
        store2, bubbles2 = load_session(path)
        assert store2.size == store.size
        assert store2.dim == store.dim
        assert (store2.ids() == store.ids()).all()
        _, pa, la = store.snapshot()
        _, pb, lb = store2.snapshot()
        assert pa == pytest.approx(pb)
        assert la.tolist() == lb.tolist()

    def test_summary_roundtrip(self, session, tmp_path):
        store, bubbles = session
        path = tmp_path / "session.npz"
        save_session(path, store, bubbles)
        _, bubbles2 = load_session(path)
        assert bubbles2 is not None
        assert len(bubbles2) == len(bubbles)
        assert bubbles2.counts().tolist() == bubbles.counts().tolist()
        assert bubbles2.reps() == pytest.approx(bubbles.reps())
        assert bubbles2.extents() == pytest.approx(bubbles.extents())
        assert compactness(bubbles2) == pytest.approx(compactness(bubbles))
        for a, b in zip(bubbles, bubbles2):
            assert np.array_equal(
                bubbles.store.owned_by(a.bubble_id),
                bubbles2.store.owned_by(b.bubble_id),
            )

    def test_ownership_roundtrip(self, session, tmp_path):
        store, bubbles = session
        path = tmp_path / "session.npz"
        save_session(path, store, bubbles)
        store2, _ = load_session(path)
        for pid in store.ids():
            assert store2.owner(int(pid)) == store.owner(int(pid))

    def test_store_only_session(self, session, tmp_path):
        store, _ = session
        path = tmp_path / "store.npz"
        save_session(path, store)
        store2, bubbles2 = load_session(path)
        assert bubbles2 is None
        assert store2.size == store.size

    def test_ids_not_reused_after_reload(self, session, tmp_path):
        store, bubbles = session
        path = tmp_path / "session.npz"
        save_session(path, store, bubbles)
        store2, _ = load_session(path)
        new_ids = store2.insert(np.zeros((1, 3)))
        assert new_ids[0] > int(store.ids().max())

    def test_maintenance_continues_after_reload(self, session, tmp_path, rng):
        """The point of persistence: resume incremental maintenance."""
        store, bubbles = session
        path = tmp_path / "session.npz"
        save_session(path, store, bubbles)
        store2, bubbles2 = load_session(path)
        maintainer = IncrementalMaintainer(
            bubbles2, store2, MaintenanceConfig(seed=1)
        )
        victims = tuple(int(i) for i in store2.ids()[:40])
        report = maintainer.apply_batch(
            UpdateBatch(
                deletions=victims,
                insertions=rng.normal(size=(40, 3)),
                insertion_labels=tuple([0] * 40),
            )
        )
        assert report.num_insertions == 40
        assert verify_consistency(bubbles2, store2).ok


class TestValidation:
    def test_unsupported_format_version_rejected(self, session, tmp_path):
        import numpy as np

        store, bubbles = session
        path = tmp_path / "session.npz"
        save_session(path, store, bubbles)
        # Tamper with the version field.
        with np.load(path) as archive:
            payload = {k: archive[k] for k in archive.files}
        payload["format_version"] = np.int64(99)
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="format version"):
            load_session(path)

    def test_desynchronized_pair_rejected(self, session, tmp_path):
        store, bubbles = session
        # Delete a point behind the summary's back.
        victim = int(store.owned_by(0)[0])
        store.delete([victim])
        with pytest.raises(ValueError):
            save_session(tmp_path / "bad.npz", store, bubbles)

    def test_swapped_members_rejected(self, session, tmp_path):
        store, bubbles = session
        path = tmp_path / "session.npz"
        save_session(path, store, bubbles)
        with np.load(path) as archive:
            payload = {k: archive[k] for k in archive.files}
        # Two points trade bubbles in the member lists only: the counts
        # agree, the owner column does not.
        offsets, members = payload["member_offsets"], payload["member_ids"]
        first, second = np.flatnonzero(np.diff(offsets))[:2]
        i, j = offsets[first], offsets[second]
        members[[i, j]] = members[[j, i]]
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="owner column"):
            load_session(path)

    def test_owner_naming_no_bubble_rejected(self, session, tmp_path):
        store, bubbles = session
        path = tmp_path / "session.npz"
        save_session(path, store, bubbles)
        with np.load(path) as archive:
            payload = {k: archive[k] for k in archive.files}
        # Hand the first listed member to a bubble that does not
        # exist, in the owner column and the member lists alike.
        offsets, members = payload["member_offsets"], payload["member_ids"]
        victim = members[offsets[0]]
        payload["owners"][payload["ids"] == victim] = len(bubbles) + 5
        payload["member_ids"] = np.delete(members, offsets[0])
        payload["member_offsets"] = np.where(offsets > 0, offsets - 1, 0)
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="nonexistent bubble"):
            load_session(path)

    def test_from_snapshot_validation(self):
        with pytest.raises(ValueError):
            StoreClass.from_snapshot(
                dim=2,
                ids=np.array([3, 1]),  # not ascending
                points=np.zeros((2, 2)),
                labels=np.zeros(2, dtype=np.int64),
            )
        with pytest.raises(ValueError):
            StoreClass.from_snapshot(
                dim=2,
                ids=np.array([0, 1]),
                points=np.zeros((2, 3)),  # wrong dim
                labels=np.zeros(2, dtype=np.int64),
            )
        with pytest.raises(ValueError):
            StoreClass.from_snapshot(
                dim=2,
                ids=np.array([0, 5]),
                points=np.zeros((2, 2)),
                labels=np.zeros(2, dtype=np.int64),
                next_id=3,  # collides with alive id 5
            )
