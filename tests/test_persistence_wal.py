"""Unit tests for the write-ahead log: format, replay, corruption."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from legacy_formats import write_legacy_log

from repro import UpdateBatch, WalCorruptionError
from repro.persistence import (
    WriteAheadLog,
    decode_batch,
    encode_batch,
    verify_chain,
)


def make_batch(rng, deletions=(), m=5, d=2):
    return UpdateBatch(
        deletions=tuple(deletions),
        insertions=rng.normal(size=(m, d)),
        insertion_labels=tuple([-1] * m),
    )


class TestCodec:
    def test_batch_round_trip(self, rng):
        batch = make_batch(rng, deletions=(3, 9, 27), m=7, d=3)
        restored = decode_batch(encode_batch(batch))
        assert restored.deletions == batch.deletions
        assert np.array_equal(restored.insertions, batch.insertions)
        assert restored.insertion_labels == batch.insertion_labels

    def test_empty_batch_round_trip(self):
        batch = UpdateBatch.empty(dim=4)
        restored = decode_batch(encode_batch(batch))
        assert restored.is_empty()
        assert restored.insertions.shape == (0, 4)

    def test_garbage_payload_rejected(self):
        with pytest.raises(WalCorruptionError):
            decode_batch(b"not an npz archive at all")


class TestAppendReplay:
    def test_records_replay_in_order(self, tmp_path, rng):
        wal = WriteAheadLog(tmp_path / "wal.log", fsync=False)
        batches = [make_batch(rng, m=i + 1) for i in range(5)]
        for seq, batch in enumerate(batches):
            wal.append(seq, batch)
        records = wal.replay()
        assert [r.seq for r in records] == [0, 1, 2, 3, 4]
        for record, batch in zip(records, batches):
            assert np.array_equal(record.batch.insertions, batch.insertions)
        wal.close()

    def test_replay_survives_reopen(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(0, make_batch(rng))
            wal.append(1, make_batch(rng))
        with WriteAheadLog(path, fsync=False) as wal:
            assert [r.seq for r in wal.replay()] == [0, 1]

    def test_append_after_replay_extends_log(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(0, make_batch(rng))
        with WriteAheadLog(path, fsync=False) as wal:
            assert len(wal.replay()) == 1
            wal.append(1, make_batch(rng))
            assert [r.seq for r in wal.replay()] == [0, 1]

    def test_empty_log_replays_empty(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal.log", fsync=False) as wal:
            assert wal.replay() == []

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOTAWAL!" + b"\x00" * 32)
        with pytest.raises(WalCorruptionError):
            WriteAheadLog(path, fsync=False)


class TestCorruption:
    """The satellite trio: torn tail, mid-log corruption, empty dir."""

    def _write(self, path, rng, count=3):
        with WriteAheadLog(path, fsync=False) as wal:
            for seq in range(count):
                wal.append(seq, make_batch(rng, m=4))
        return path

    def test_torn_final_record_truncated_and_continues(self, tmp_path, rng):
        path = self._write(tmp_path / "wal.log", rng)
        original = path.read_bytes()
        # Tear the final record: drop its last 11 bytes mid-payload.
        path.write_bytes(original[:-11])
        with WriteAheadLog(path, fsync=False) as wal:
            records = wal.replay()
            assert [r.seq for r in records] == [0, 1]
            # The log was repaired in place: appends go right back to work
            # and a fresh replay sees a clean history.
            wal.append(2, make_batch(rng))
            assert [r.seq for r in wal.replay()] == [0, 1, 2]

    def test_torn_header_truncated(self, tmp_path, rng):
        path = self._write(tmp_path / "wal.log", rng, count=2)
        data = path.read_bytes()
        # Find where record 1 starts (8-byte magic + record 0: 16-byte
        # header, 32-byte chain digest, payload) and leave only 6 bytes
        # of its 16-byte header. Replay must keep record 0 and drop the
        # stub.
        offset = 8
        _, length, _ = struct.unpack("<QII", data[offset : offset + 16])
        offset += 16 + 32 + length
        path.write_bytes(data[: offset + 6])
        with WriteAheadLog(path, fsync=False) as wal:
            assert [r.seq for r in wal.replay()] == [0]

    def test_bad_checksum_mid_log_fails_loudly(self, tmp_path, rng):
        path = self._write(tmp_path / "wal.log", rng)
        data = bytearray(path.read_bytes())
        # Flip one payload byte of the FIRST record (well before the
        # tail): magic 8 + header 16 + chain 32 puts the payload at 56.
        data[62] ^= 0xFF
        path.write_bytes(bytes(data))
        with WriteAheadLog(path, fsync=False) as wal:
            with pytest.raises(WalCorruptionError):
                wal.replay()

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_absurd_length_fails_loudly(self, tmp_path, rng, version):
        path = tmp_path / "wal.log"
        if version == 3:
            self._write(path, rng, count=1)
        else:
            write_legacy_log(path, [make_batch(rng, m=4)], version)
        data = bytearray(path.read_bytes())
        # Overwrite the length field (bytes 8..12 after seq) with 2^31.
        struct.pack_into("<I", data, 8 + 8, 1 << 31)
        path.write_bytes(bytes(data))
        with WriteAheadLog(path, fsync=False) as wal:
            with pytest.raises(WalCorruptionError):
                wal.replay()
        report = verify_chain(path)
        assert not report.ok
        assert (report.reason, report.bad_seq) == ("bad_header", 0)

    def test_length_pushed_past_the_end_fails_loudly(self, tmp_path, rng):
        """A v3 length flipped at rest is a bad header, not a torn tail:
        its payload's counts still give the length it was written with."""
        path = self._write(tmp_path / "wal.log", rng)
        data = bytearray(path.read_bytes())
        _, length = struct.unpack_from("<QI", data, 8)
        data[8 + 8 + 2] ^= 0x01  # bit 16 of record 0's length
        path.write_bytes(bytes(data))
        with WriteAheadLog(path, fsync=False) as wal:
            with pytest.raises(
                WalCorruptionError,
                match=rf"record 0 of .* \(seq 0\) has a bad header: it "
                rf"declares {length + (1 << 16)} payload bytes, but its "
                rf"counts account for {length}",
            ):
                wal.replay()
        assert path.read_bytes() == bytes(data)

    def test_corrupted_record_not_silently_skipped(self, tmp_path, rng):
        """A bad mid-log record must not yield a partial history."""
        path = self._write(tmp_path / "wal.log", rng)
        data = bytearray(path.read_bytes())
        data[62] ^= 0xFF
        path.write_bytes(bytes(data))
        with WriteAheadLog(path, fsync=False) as wal:
            try:
                records = wal.replay()
            except WalCorruptionError:
                records = None
        assert records is None
