"""Unit tests for the dynamic point store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.database import PointStore
from repro.exceptions import DimensionMismatchError, UnknownPointError


class TestInsert:
    def test_ids_are_sequential(self):
        store = PointStore(dim=2)
        ids = store.insert(np.zeros((3, 2)))
        assert ids == [0, 1, 2]
        more = store.insert(np.ones((2, 2)))
        assert more == [3, 4]

    def test_size_tracks_alive_points(self):
        store = PointStore(dim=2)
        store.insert(np.zeros((5, 2)))
        assert store.size == 5
        assert len(store) == 5

    def test_default_labels_are_noise(self):
        store = PointStore(dim=2)
        ids = store.insert(np.zeros((2, 2)))
        assert store.label(ids[0]) == -1

    def test_single_point_promoted_to_row(self):
        store = PointStore(dim=3)
        ids = store.insert(np.array([1.0, 2.0, 3.0]))
        assert ids == [0]
        assert store.point(0) == pytest.approx([1.0, 2.0, 3.0])

    def test_dimension_mismatch(self):
        store = PointStore(dim=2)
        with pytest.raises(DimensionMismatchError):
            store.insert(np.zeros((3, 4)))

    def test_label_count_mismatch(self):
        store = PointStore(dim=2)
        with pytest.raises(ValueError):
            store.insert(np.zeros((3, 2)), labels=[1, 2])

    def test_growth_beyond_initial_capacity(self):
        store = PointStore(dim=2)
        store.insert(np.zeros((5000, 2)))
        assert store.size == 5000
        assert store.point(4999) == pytest.approx([0.0, 0.0])

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            PointStore(dim=0)


class TestDelete:
    def test_delete_removes_from_size_and_ids(self):
        store = PointStore(dim=2)
        ids = store.insert(np.arange(10.0).reshape(5, 2))
        store.delete([ids[1], ids[3]])
        assert store.size == 3
        assert set(store.ids().tolist()) == {0, 2, 4}

    def test_delete_unknown_raises(self):
        store = PointStore(dim=2)
        store.insert(np.zeros((2, 2)))
        with pytest.raises(UnknownPointError):
            store.delete([5])

    def test_double_delete_raises(self):
        store = PointStore(dim=2)
        ids = store.insert(np.zeros((2, 2)))
        store.delete([ids[0]])
        with pytest.raises(UnknownPointError):
            store.delete([ids[0]])

    def test_delete_empty_is_noop(self):
        store = PointStore(dim=2)
        store.insert(np.zeros((2, 2)))
        store.delete([])
        assert store.size == 2

    def test_ids_never_reused(self):
        store = PointStore(dim=2)
        ids = store.insert(np.zeros((3, 2)))
        store.delete(ids)
        fresh = store.insert(np.ones((1, 2)))
        assert fresh == [3]

    def test_contains(self):
        store = PointStore(dim=2)
        ids = store.insert(np.zeros((2, 2)))
        assert ids[0] in store
        store.delete([ids[0]])
        assert ids[0] not in store
        assert "x" not in store


class TestOwnership:
    def test_owner_roundtrip(self):
        store = PointStore(dim=2)
        ids = store.insert(np.zeros((2, 2)))
        assert store.owner(ids[0]) is None
        store.set_owner(ids[0], 7)
        assert store.owner(ids[0]) == 7

    def test_set_owners_bulk(self):
        store = PointStore(dim=2)
        ids = store.insert(np.zeros((3, 2)))
        store.set_owners(ids, [1, 2, 3])
        assert [store.owner(i) for i in ids] == [1, 2, 3]

    def test_set_owners_misaligned(self):
        store = PointStore(dim=2)
        ids = store.insert(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            store.set_owners(ids, [1, 2])

    def test_clear_owners(self):
        store = PointStore(dim=2)
        ids = store.insert(np.zeros((2, 2)))
        store.set_owners(ids, [0, 1])
        store.clear_owners()
        assert store.owner(ids[0]) is None

    def test_deleted_point_loses_owner(self):
        store = PointStore(dim=2)
        ids = store.insert(np.zeros((1, 2)))
        store.set_owner(ids[0], 3)
        store.delete(ids)
        with pytest.raises(UnknownPointError):
            store.owner(ids[0])


class TestLookup:
    def test_snapshot_contents(self):
        store = PointStore(dim=2)
        points = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        ids = store.insert(points, labels=[0, 1, -1])
        store.delete([ids[1]])
        snap_ids, snap_points, snap_labels = store.snapshot()
        assert snap_ids.tolist() == [0, 2]
        assert snap_points == pytest.approx(points[[0, 2]])
        assert snap_labels.tolist() == [0, -1]

    def test_points_of_dead_raises(self):
        store = PointStore(dim=2)
        ids = store.insert(np.zeros((2, 2)))
        store.delete([ids[0]])
        with pytest.raises(UnknownPointError):
            store.points_of([ids[0]])

    def test_ids_with_label(self):
        store = PointStore(dim=2)
        store.insert(np.zeros((4, 2)), labels=[0, 1, 0, -1])
        assert store.ids_with_label(0).tolist() == [0, 2]
        assert store.ids_with_label(99).tolist() == []

    def test_iter_alive(self):
        store = PointStore(dim=2)
        ids = store.insert(np.arange(6.0).reshape(3, 2))
        store.delete([ids[1]])
        seen = {pid: tuple(p) for pid, p in store.iter_alive()}
        assert set(seen) == {0, 2}

    def test_point_view_is_readonly(self):
        store = PointStore(dim=2)
        ids = store.insert(np.zeros((1, 2)))
        view = store.point(ids[0])
        with pytest.raises(ValueError):
            view[0] = 1.0

    def test_labels_of(self):
        store = PointStore(dim=2)
        ids = store.insert(np.zeros((3, 2)), labels=[5, 6, 7])
        assert store.labels_of(ids[::-1]).tolist() == [7, 6, 5]

    def test_lookups_reject_ids_never_issued(self):
        store = PointStore(dim=2)
        store.insert(np.zeros((3, 2)))
        for bad in ([-1], [3], [5000]):
            with pytest.raises(UnknownPointError):
                store.owners_of(bad)


class TestScanFloor:
    """Whole-store scans start at the lowest id that may be alive; each
    must match a scan of the full aliveness mask."""

    @staticmethod
    def assert_scans_match(store, alive, labels, owners):
        ids = np.flatnonzero(alive)
        assert store.ids().tolist() == ids.tolist()
        assert store.snapshot()[0].tolist() == ids.tolist()
        assert store.size == ids.size
        for label in range(3):
            want = ids[labels[ids] == label]
            assert store.ids_with_label(label).tolist() == want.tolist()
        for bubble in range(4):
            want = ids[owners[ids] == bubble]
            assert store.owned_by(bubble).tolist() == want.tolist()
        if ids.size:
            assert store._low == ids[0]  # the dead prefix is skipped

    def test_mixed_fifo_and_random_deletions(self):
        rng = np.random.default_rng(3)
        store = PointStore(dim=2)
        alive = np.zeros(4000, dtype=bool)
        labels = np.zeros(4000, dtype=np.int64)
        owners = np.full(4000, -1, dtype=np.int64)
        for step in range(60):
            count = int(rng.integers(1, 60))
            new = np.asarray(
                store.insert(
                    rng.normal(size=(count, 2)),
                    labels=rng.integers(0, 3, size=count),
                )
            )
            alive[new] = True
            labels[new] = store.labels_of(new)
            owned = rng.integers(-1, 4, size=count)
            keep = owned >= 0
            store.set_owners(new[keep], owned[keep])
            owners[new] = owned
            live = np.flatnonzero(alive)
            if step % 3 == 0:  # random deletions
                gone = rng.choice(live, size=live.size // 4, replace=False)
            else:  # FIFO eviction down to a 150-point window
                gone = live[: max(0, live.size - 150)]
            store.delete(gone)
            alive[gone] = False
            owners[gone] = -1
            self.assert_scans_match(store, alive, labels, owners)
        store.delete(store.ids())
        alive[:] = False
        self.assert_scans_match(store, alive, labels, owners)
        assert store.ids().size == 0
        new = store.insert(np.zeros((2, 2)))
        assert store.ids().tolist() == new

    def test_gapped_from_snapshot(self):
        ids = np.array([5, 9, 12, 30])
        store = PointStore.from_snapshot(
            dim=2,
            ids=ids,
            points=np.arange(8.0).reshape(4, 2),
            labels=np.array([0, 1, 0, 2]),
            owners=np.array([1, -1, 1, 3]),
            next_id=40,
        )
        alive = np.zeros(50, dtype=bool)
        alive[ids] = True
        labels = np.zeros(50, dtype=np.int64)
        labels[ids] = [0, 1, 0, 2]
        owners = np.full(50, -1, dtype=np.int64)
        owners[ids] = [1, -1, 1, 3]
        self.assert_scans_match(store, alive, labels, owners)
        store.delete([5, 12])
        alive[[5, 12]] = False
        owners[[5, 12]] = -1
        self.assert_scans_match(store, alive, labels, owners)
        new = store.insert(np.zeros((1, 2)), labels=[2])
        assert new == [40]
        alive[40], labels[40] = True, 2
        self.assert_scans_match(store, alive, labels, owners)

    def test_snapshot_without_owners_is_unowned(self):
        ids = np.array([2, 6, 7])
        store = PointStore.from_snapshot(
            dim=2,
            ids=ids,
            points=np.zeros((3, 2)),
            labels=np.zeros(3, dtype=np.int64),
        )
        assert store.owners_of(ids).tolist() == [-1, -1, -1]
        for bubble in range(4):
            assert store.owned_by(bubble).size == 0

    def test_empty_snapshot(self):
        store = PointStore.from_snapshot(
            dim=2,
            ids=np.empty(0, dtype=np.int64),
            points=np.empty((0, 2)),
            labels=np.empty(0, dtype=np.int64),
            next_id=7,
        )
        assert store.ids().size == 0
        assert store.insert(np.zeros((1, 2))) == [7]
        assert store.ids().tolist() == [7]


class TestValidation:
    def test_from_snapshot_validation(self):
        with pytest.raises(ValueError):
            PointStore.from_snapshot(
                dim=2,
                ids=np.array([3, 1]),  # not ascending
                points=np.zeros((2, 2)),
                labels=np.zeros(2, dtype=np.int64),
            )
        with pytest.raises(ValueError):
            PointStore.from_snapshot(
                dim=2,
                ids=np.array([0, 1]),
                points=np.zeros((2, 3)),  # wrong dim
                labels=np.zeros(2, dtype=np.int64),
            )
        with pytest.raises(ValueError):
            PointStore.from_snapshot(
                dim=2,
                ids=np.array([0, 5]),
                points=np.zeros((2, 2)),
                labels=np.zeros(2, dtype=np.int64),
                next_id=3,  # collides with alive id 5
            )


class TestRebase:
    """Rows are ``id - base``; the base follows the scan floor, so a
    sliding window keeps a bounded number of rows."""

    def test_fifo_window_keeps_bounded_rows(self):
        rng = np.random.default_rng(5)
        window, chunk, chunks = 1000, 64, 3000
        store = PointStore(dim=2)
        issued = chunk * chunks
        alive = np.zeros(issued, dtype=bool)
        owners = np.full(issued, -1, dtype=np.int64)
        points = rng.normal(size=(issued, 2))
        for step in range(chunks):
            new = np.asarray(
                store.insert(points[step * chunk : (step + 1) * chunk])
            )
            alive[new] = True
            owned = rng.integers(-1, 4, size=chunk)
            keep = owned >= 0
            store.set_owners(new[keep], owned[keep])
            owners[new] = owned
            if store.size > window:
                gone = store.ids()[: store.size - window]
                store.delete(gone)
                alive[gone] = False
                owners[gone] = -1
            assert store._points.shape[0] <= 4096
            if step % 97 == 0 or step == chunks - 1:
                ids = np.flatnonzero(alive)
                assert store.ids().tolist() == ids.tolist()
                assert store.owners_of(ids).tolist() == owners[ids].tolist()
                snap_ids, snap_points, _ = store.snapshot()
                assert snap_ids.tolist() == ids.tolist()
                assert np.array_equal(snap_points, points[ids])
        assert store.next_id == issued
        # Ids below the base were deleted long ago: unknown, not a crash.
        with pytest.raises(UnknownPointError):
            store.points_of([0])
        with pytest.raises(UnknownPointError):
            store.delete([5])
        assert 5 not in store

    def test_gapped_high_id_snapshot_round_trip(self):
        ids = np.array([1_000_003, 1_000_010, 1_000_011, 1_002_000])
        owners = np.array([0, -1, 2, 1])
        store = PointStore.from_snapshot(
            dim=2,
            ids=ids,
            points=np.arange(8.0).reshape(4, 2),
            labels=np.array([1, 2, 3, 4]),
            owners=owners,
            next_id=1_002_005,
        )
        # Rows start at the first alive id, not at id 0.
        assert store._points.shape[0] < 4096
        assert store.ids().tolist() == ids.tolist()
        assert store.owners_of(ids).tolist() == owners.tolist()
        assert store.owned_by(2).tolist() == [1_000_011]
        with pytest.raises(UnknownPointError):
            store.point(1_000_002)
        again = PointStore.from_snapshot(
            dim=2,
            ids=store.snapshot()[0],
            points=store.snapshot()[1],
            labels=store.snapshot()[2],
            owners=store.owners_of(store.ids()),
            next_id=store.next_id,
        )
        assert again.ids().tolist() == ids.tolist()
        assert np.array_equal(again.snapshot()[1], store.snapshot()[1])
        assert again.insert(np.zeros((2, 2))) == [1_002_005, 1_002_006]
        again.delete(ids[:3])
        assert again.ids().tolist() == [1_002_000, 1_002_005, 1_002_006]
