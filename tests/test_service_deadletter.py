"""Dead-letter queue: durable envelopes, torn tails, replay semantics."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import EventError, ServiceError
from repro.faults import FAILPOINTS, failpoint
from repro.service import PointEvent
from repro.service.deadletter import (
    DEADLETTER_FILENAME,
    DeadLetter,
    append_dead_letters,
    deadletter_path,
    read_dead_letters,
    replay_dead_letters,
)


@pytest.fixture(autouse=True)
def _clean_failpoints():
    FAILPOINTS.clear()
    yield
    FAILPOINTS.clear()


def make_letters(count=3, reason="append_failed"):
    return [
        DeadLetter(
            event=PointEvent(
                tenant="t-0", point=(float(i), -1.5), label=i
            ),
            reason=reason,
            error="ServiceError: boom" if reason == "append_failed" else None,
        )
        for i in range(count)
    ]


class TestRoundTrip:
    def test_append_then_read(self, tmp_path):
        path = deadletter_path(tmp_path)
        assert path.name == DEADLETTER_FILENAME
        letters = make_letters(3)
        assert append_dead_letters(path, letters, fsync=False) == 3
        restored = read_dead_letters(path)
        assert restored == letters

    def test_appends_accumulate(self, tmp_path):
        path = deadletter_path(tmp_path)
        append_dead_letters(path, make_letters(2), fsync=False)
        append_dead_letters(
            path, make_letters(1, reason="breaker_open"), fsync=False
        )
        letters = read_dead_letters(path)
        assert len(letters) == 3
        assert letters[-1].reason == "breaker_open"

    def test_missing_file_is_empty_queue(self, tmp_path):
        assert read_dead_letters(tmp_path / "absent.ndjson") == []

    def test_empty_iterable_writes_nothing(self, tmp_path):
        path = deadletter_path(tmp_path)
        assert append_dead_letters(path, [], fsync=False) == 0
        assert not path.exists()

    def test_unknown_reason_rejected_at_construction(self):
        with pytest.raises(ServiceError, match="unknown dead-letter reason"):
            DeadLetter(
                event=PointEvent(tenant="t", point=(1.0,)), reason="oops"
            )


class TestCorruption:
    def test_torn_final_line_dropped(self, tmp_path):
        path = deadletter_path(tmp_path)
        append_dead_letters(path, make_letters(2), fsync=False)
        data = path.read_text()
        path.write_text(data[:-9])  # no trailing newline, unparseable
        assert len(read_dead_letters(path)) == 1

    def test_malformed_mid_file_raises_with_lineno(self, tmp_path):
        path = deadletter_path(tmp_path)
        append_dead_letters(path, make_letters(1), fsync=False)
        with open(path, "a") as handle:
            handle.write("{not json\n")
        append_dead_letters(path, make_letters(1), fsync=False)
        with pytest.raises(EventError, match="line 2"):
            read_dead_letters(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = deadletter_path(tmp_path)
        envelope = {
            "schema": 99,
            "reason": "append_failed",
            "event": {"schema": 1, "tenant": "t", "point": [1.0]},
        }
        path.write_text(json.dumps(envelope) + "\n")
        with pytest.raises(EventError, match="schema 99"):
            read_dead_letters(path)

    def test_nested_event_is_fully_validated(self, tmp_path):
        path = deadletter_path(tmp_path)
        envelope = {
            "schema": 1,
            "reason": "breaker_open",
            "event": {"schema": 1, "tenant": "t", "point": ["NaN-ish"]},
        }
        path.write_text(json.dumps(envelope) + "\n")
        with pytest.raises(EventError, match="not a number"):
            read_dead_letters(path)


class TestReplay:
    def test_full_replay_drains_to_empty_file(self, tmp_path):
        path = deadletter_path(tmp_path)
        append_dead_letters(path, make_letters(3), fsync=False)
        accepted: list[PointEvent] = []
        report = replay_dead_letters(
            path, lambda event: accepted.append(event) or True, fsync=False
        )
        assert report.replayed == 3
        assert report.requeued == 0
        assert report.drained
        assert len(accepted) == 3
        assert path.read_text() == ""
        assert read_dead_letters(path) == []

    def test_rejected_letters_are_kept(self, tmp_path):
        path = deadletter_path(tmp_path)
        append_dead_letters(path, make_letters(4), fsync=False)
        calls = iter([True, False, True, False])
        report = replay_dead_letters(
            path, lambda event: next(calls), fsync=False
        )
        assert report.replayed == 2
        assert report.requeued == 2
        assert not report.drained
        assert len(read_dead_letters(path)) == 2

    def test_service_error_keeps_letter_with_note(self, tmp_path):
        path = deadletter_path(tmp_path)
        append_dead_letters(path, make_letters(1), fsync=False)

        def explode(event):
            raise ServiceError("shard is failed")

        report = replay_dead_letters(path, explode, fsync=False)
        assert report.requeued == 1
        (letter,) = read_dead_letters(path)
        assert "replay failed" in (letter.error or "")

    def test_empty_queue_is_a_noop(self, tmp_path):
        report = replay_dead_letters(
            tmp_path / "absent.ndjson", lambda event: True
        )
        assert report.replayed == 0 and report.drained

    @pytest.mark.parametrize("fsync", [True, False])
    def test_rewrite_fsyncs_file_then_directory(
        self, tmp_path, fsync_trace, fsync
    ):
        path = deadletter_path(tmp_path)
        append_dead_letters(path, make_letters(3), fsync=False)
        calls = iter([True, False, True])
        fsync_trace.clear()
        replay_dead_letters(path, lambda event: next(calls), fsync=fsync)
        if fsync:
            assert fsync_trace == ["fsync_file", "replace", "fsync_dir"]
        else:
            assert fsync_trace == ["replace"]
        assert len(read_dead_letters(path)) == 1


class TestFailpoint:
    def test_flush_boundary_fires_after_durability(self, tmp_path):
        path = deadletter_path(tmp_path)
        with failpoint("dlq.append.flushed", "error"):
            with pytest.raises(OSError):
                append_dead_letters(path, make_letters(2), fsync=False)
        # The failpoint sits after the flush: both letters are on disk.
        assert len(read_dead_letters(path)) == 2
