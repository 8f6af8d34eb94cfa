"""Hash-chained WAL integrity: the v3 and v2 formats, verify_chain,
compaction, v1 and v2 backcompat."""

from __future__ import annotations

import io
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from legacy_formats import MAGIC_V1, MAGIC_V2, write_legacy_log

from repro import UpdateBatch, WalCorruptionError
from repro.persistence import WriteAheadLog, verify_chain
from repro.persistence import wal as wal_module

MAGIC_V3 = b"RPROWAL3"
HEADER = struct.Struct("<QII")
CHAIN_LEN = 32


def make_batch(rng, m=4, d=3):
    return UpdateBatch(
        deletions=(),
        insertions=rng.normal(size=(m, d)),
        insertion_labels=tuple([-1] * m),
    )


def write_log(path, rng, count=3):
    with WriteAheadLog(path, fsync=False) as wal:
        for seq in range(count):
            wal.append(seq, make_batch(rng))
    return path


def split_records(data):
    """``(header, chain, payload)`` byte strings of every chained
    (v2 or v3) record."""
    records = []
    offset = len(MAGIC_V3)
    while offset < len(data):
        header = data[offset : offset + HEADER.size]
        _, length, _ = HEADER.unpack(header)
        offset += HEADER.size
        chain = data[offset : offset + CHAIN_LEN]
        offset += CHAIN_LEN
        records.append((header, chain, data[offset : offset + length]))
        offset += length
    assert offset == len(data)
    return records


def write_v1_log(path, rng, count=3):
    """A pre-chain (version 1) log file of ``count`` batches."""
    batches = [make_batch(rng) for _ in range(count)]
    write_legacy_log(path, batches, version=1)
    return batches


def write_v2_log(path, rng, count=3):
    """A hash-chained version-2 log file (``.npz`` payloads)."""
    batches = [make_batch(rng) for _ in range(count)]
    write_legacy_log(path, batches, version=2)
    return batches


class TestV3Format:
    def test_new_files_are_version_3(self, tmp_path, rng):
        with WriteAheadLog(tmp_path / "wal.log", fsync=False) as wal:
            assert wal.version == 3
            assert wal.chained
        assert (tmp_path / "wal.log").read_bytes()[:8] == MAGIC_V3

    def test_payloads_are_raw(self, tmp_path, rng):
        """Counts, then the ids, points and labels, nothing else."""
        path = tmp_path / "wal.log"
        batch = UpdateBatch(
            deletions=(4, 9),
            insertions=rng.normal(size=(3, 2)),
            insertion_labels=(1, -1, 7),
        )
        with WriteAheadLog(path, fsync=False) as wal:
            nbytes = wal.append(0, batch)
        (header, _, payload), = split_records(path.read_bytes())
        assert nbytes == len(header) + CHAIN_LEN + len(payload)
        assert payload == (
            struct.pack("<III", 2, 3, 2)
            + np.array([4, 9], "<i8").tobytes()
            + batch.insertions.astype("<f8").tobytes()
            + np.array([1, -1, 7], "<i8").tobytes()
        )

    def test_genesis_is_the_files_own_magic(self, tmp_path, rng):
        """A v3 log whose magic is flipped to v2 fails its first link,
        so a one-bit change of the magic cannot pass as another
        version."""
        path = write_log(tmp_path / "wal.log", rng, count=2)
        data = bytearray(path.read_bytes())
        data[7] ^= 0x01  # b"3" -> b"2"
        path.write_bytes(bytes(data))
        report = verify_chain(path)
        assert report.version == 2
        assert not report.ok and report.reason == "chain_mismatch"
        assert report.bad_seq == 0


class TestV2Format:
    def test_v2_files_stay_version_2(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        write_v2_log(path, rng, count=2)
        with WriteAheadLog(path, fsync=False) as wal:
            assert wal.version == 2
            assert wal.chained
            wal.append(2, make_batch(rng))
        assert path.read_bytes()[:8] == MAGIC_V2
        report = verify_chain(path)
        assert report.ok and report.version == 2 and report.records == 3

    def test_records_carry_distinct_chain_digests(self, tmp_path, rng):
        path = write_log(tmp_path / "wal.log", rng, count=2)
        data = path.read_bytes()
        offset = 8
        digests = []
        for _ in range(2):
            _, length, _ = HEADER.unpack(data[offset : offset + HEADER.size])
            offset += HEADER.size
            digests.append(data[offset : offset + CHAIN_LEN])
            offset += CHAIN_LEN + length
        assert offset == len(data)
        assert len(set(digests)) == 2
        assert all(len(d) == CHAIN_LEN for d in digests)

    def test_replay_round_trips(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        batches = []
        with WriteAheadLog(path, fsync=False) as wal:
            for seq in range(4):
                batch = make_batch(rng)
                batches.append(batch)
                wal.append(seq, batch)
        with WriteAheadLog(path, fsync=False) as wal:
            records = wal.replay()
        assert [r.seq for r in records] == [0, 1, 2, 3]
        for record, batch in zip(records, batches):
            assert np.array_equal(record.batch.insertions, batch.insertions)

    def test_append_after_reopen_without_replay(self, tmp_path, rng):
        """The lazy chain-tip scan keeps blind appends consistent."""
        path = write_log(tmp_path / "wal.log", rng, count=2)
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(2, make_batch(rng))
        report = verify_chain(path)
        assert report.ok and report.records == 3 and not report.torn_tail

    def test_compact_restarts_the_chain(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, fsync=False) as wal:
            for seq in range(4):
                wal.append(seq, make_batch(rng))
            wal.compact(min_seq=2)
            assert [r.seq for r in wal.replay()] == [2, 3]
            # The chain head tracked in memory matches the rewritten
            # file: further appends must verify.
            wal.append(4, make_batch(rng))
        report = verify_chain(path)
        assert report.ok and report.records == 3


class TestCompaction:
    def test_kept_records_are_copied_byte_for_byte(
        self, tmp_path, rng, monkeypatch
    ):
        path = write_log(tmp_path / "wal.log", rng, count=5)
        before = split_records(path.read_bytes())

        def forbidden(*args):
            raise AssertionError("compaction must not touch the codec")

        monkeypatch.setattr(wal_module, "decode_batch", forbidden)
        monkeypatch.setattr(wal_module, "encode_batch", forbidden)
        with WriteAheadLog(path, fsync=False) as wal:
            assert wal.compact(min_seq=2) == 2
        monkeypatch.undo()
        after = split_records(path.read_bytes())
        assert [(h, p) for h, _, p in after] == [
            (h, p) for h, _, p in before[2:]
        ]
        # Only the 32-byte chain fields change: they restart at genesis.
        assert all(
            new != old for (_, new, _), (_, old, _) in zip(after, before[2:])
        )
        report = verify_chain(path)
        assert report.ok and report.records == 3 and not report.torn_tail
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(5, make_batch(rng))
        report = verify_chain(path)
        assert report.ok and report.records == 4 and not report.torn_tail

    def test_damaged_record_is_never_rechained(self, tmp_path, rng):
        path = write_log(tmp_path / "wal.log", rng, count=3)
        data = bytearray(path.read_bytes())
        # One payload bit of record 1, a complete record before the tail.
        _, _, payload0 = split_records(bytes(data))[0]
        record1 = len(MAGIC_V2) + HEADER.size + CHAIN_LEN + len(payload0)
        data[record1 + HEADER.size + CHAIN_LEN + 20] ^= 0x04
        path.write_bytes(bytes(data))
        with WriteAheadLog(path, fsync=False) as wal:
            with pytest.raises(WalCorruptionError, match="seq 1"):
                wal.compact(min_seq=1)
        assert path.read_bytes() == bytes(data)
        assert not (tmp_path / "wal.log.tmp").exists()

    @pytest.mark.parametrize("fsync", [True, False])
    def test_directory_fsynced_after_replace(
        self, tmp_path, rng, fsync_trace, fsync
    ):
        path = write_log(tmp_path / "wal.log", rng, count=3)
        with WriteAheadLog(path, fsync=fsync) as wal:
            fsync_trace.clear()
            wal.compact(min_seq=1)
        if fsync:
            assert fsync_trace == ["fsync_file", "replace", "fsync_dir"]
        else:
            assert fsync_trace == ["replace"]


class TestVerifyChain:
    def test_clean_log_verifies(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        write_v2_log(path, rng, count=3)
        report = verify_chain(path)
        assert report.ok
        assert report.version == 2
        assert report.chained
        assert report.records == 3
        assert not report.torn_tail
        assert report.bad_seq is None

    def test_clean_v3_log_verifies(self, tmp_path, rng):
        path = write_log(tmp_path / "wal.log", rng, count=3)
        report = verify_chain(path)
        assert report.ok
        assert report.version == 3
        assert report.chained
        assert report.records == 3
        assert not report.torn_tail
        assert report.bad_seq is None

    def test_single_bit_flip_detected_everywhere(self, tmp_path, rng):
        """Flip one bit at every byte of the file: never a clean pass.
        Before the final record, never a pass at all: replay raises and
        leaves the file as it was."""
        path = write_log(tmp_path / "wal.log", rng, count=2)
        original = path.read_bytes()
        clean = verify_chain(path)
        assert clean.ok and clean.records == 2 and not clean.torn_tail
        _, _, last_payload = split_records(original)[-1]
        final = len(original) - len(last_payload) - HEADER.size - CHAIN_LEN
        for offset in range(len(original)):
            mutated = bytearray(original)
            mutated[offset] ^= 0x01
            path.write_bytes(bytes(mutated))
            report = verify_chain(path)
            # Detection = the report is not a clean full-length pass: a
            # flip in the final record's CRC-covered bytes is (soundly)
            # indistinguishable from a torn write and reported as such.
            assert not (
                report.ok
                and not report.torn_tail
                and report.records == clean.records
            ), f"bit flip at byte {offset} went undetected"
            if offset >= final:
                continue
            assert not report.ok, f"bit flip at byte {offset} passed"
            with pytest.raises(WalCorruptionError):
                with WriteAheadLog(path, fsync=False) as wal:
                    wal.replay()
            assert path.read_bytes() == bytes(mutated)
        path.write_bytes(original)
        assert verify_chain(path).ok

    def test_single_bit_flip_detected_everywhere_in_a_v2_log(
        self, tmp_path, rng
    ):
        path = tmp_path / "wal.log"
        write_v2_log(path, rng, count=2)
        original = path.read_bytes()
        clean = verify_chain(path)
        assert clean.ok and clean.records == 2 and not clean.torn_tail
        for offset in range(len(original)):
            mutated = bytearray(original)
            mutated[offset] ^= 0x01
            path.write_bytes(bytes(mutated))
            report = verify_chain(path)
            assert not (
                report.ok
                and not report.torn_tail
                and report.records == clean.records
            ), f"bit flip at byte {offset} went undetected"

    def test_flip_names_the_offending_seq(self, tmp_path, rng):
        path = write_log(tmp_path / "wal.log", rng, count=3)
        data = bytearray(path.read_bytes())
        # Payload byte of record 1: skip magic + record 0, then record
        # 1's header and chain digest.
        offset = 8
        _, length0, _ = HEADER.unpack(data[offset : offset + HEADER.size])
        offset += HEADER.size + CHAIN_LEN + length0
        record1 = offset
        offset += HEADER.size + CHAIN_LEN
        data[offset + 10] ^= 0xFF
        path.write_bytes(bytes(data))
        report = verify_chain(path)
        assert not report.ok
        assert report.bad_seq == 1
        assert report.bad_record == 1
        assert report.reason == "crc_mismatch"
        # A flip in the stored chain digest (CRC still valid) is the
        # chain's own catch.
        data = bytearray(path.read_bytes())
        data[offset + 10] ^= 0xFF  # undo
        data[record1 + HEADER.size + 3] ^= 0x10
        path.write_bytes(bytes(data))
        report = verify_chain(path)
        assert not report.ok
        assert report.bad_seq == 1
        assert report.reason == "chain_mismatch"

    def test_torn_tail_tolerated_readonly(self, tmp_path, rng):
        path = write_log(tmp_path / "wal.log", rng, count=3)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        report = verify_chain(path)
        assert report.ok
        assert report.torn_tail
        assert report.records == 2
        # Read-only: the torn bytes are still on disk afterwards.
        assert path.read_bytes() == data[:-7]

    def test_bad_magic_reported(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOTAWAL!" + b"\x00" * 16)
        report = verify_chain(path)
        assert not report.ok
        assert report.reason == "bad_magic"
        assert report.version == 0

    def test_v1_file_gets_crc_only_coverage(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        write_v1_log(path, rng, count=2)
        report = verify_chain(path)
        assert report.ok
        assert report.version == 1
        assert not report.chained
        assert report.records == 2


class TestReplayDivergence:
    def test_replay_raises_on_chain_mismatch_with_seq(self, tmp_path, rng):
        path = write_log(tmp_path / "wal.log", rng, count=3)
        data = bytearray(path.read_bytes())
        # Corrupt record 0's stored chain digest; its CRC stays valid.
        data[8 + HEADER.size + 1] ^= 0x01
        path.write_bytes(bytes(data))
        with WriteAheadLog(path, fsync=False) as wal:
            with pytest.raises(WalCorruptionError, match="seq 0"):
                wal.replay()

    def test_replay_raises_even_on_final_record_chain_break(
        self, tmp_path, rng
    ):
        """A complete final record with valid CRC but a wrong chain is
        corruption, not a torn write — it must not be truncated away."""
        path = write_log(tmp_path / "wal.log", rng, count=2)
        data = bytearray(path.read_bytes())
        offset = 8
        _, length0, _ = HEADER.unpack(data[offset : offset + HEADER.size])
        offset += HEADER.size + CHAIN_LEN + length0
        data[offset + HEADER.size + 5] ^= 0x40
        path.write_bytes(bytes(data))
        with WriteAheadLog(path, fsync=False) as wal:
            with pytest.raises(WalCorruptionError, match="hash-chain"):
                wal.replay()
        # And nothing was truncated by the failed replay.
        assert path.read_bytes() == bytes(data)


class TestV1Backcompat:
    def test_v1_file_replays(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        batches = write_v1_log(path, rng, count=3)
        with WriteAheadLog(path, fsync=False) as wal:
            assert wal.version == 1
            assert not wal.chained
            records = wal.replay()
        assert [r.seq for r in records] == [0, 1, 2]
        for record, batch in zip(records, batches):
            assert np.array_equal(record.batch.insertions, batch.insertions)

    def test_v1_appends_stay_v1(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        write_v1_log(path, rng, count=1)
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(1, make_batch(rng))
            assert [r.seq for r in wal.replay()] == [0, 1]
        assert path.read_bytes()[:8] == MAGIC_V1
        report = verify_chain(path)
        assert report.ok and report.version == 1 and report.records == 2

    def test_v1_compact_keeps_v1(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        write_v1_log(path, rng, count=3)
        with WriteAheadLog(path, fsync=False) as wal:
            wal.compact(min_seq=1)
            assert [r.seq for r in wal.replay()] == [1, 2]
        assert path.read_bytes()[:8] == MAGIC_V1

    def test_v1_torn_tail_still_repaired(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        write_v1_log(path, rng, count=2)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with WriteAheadLog(path, fsync=False) as wal:
            assert [r.seq for r in wal.replay()] == [0]
            wal.append(1, make_batch(rng))
            assert [r.seq for r in wal.replay()] == [0, 1]


class TestV2Backcompat:
    def test_v2_file_replays(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        batches = write_v2_log(path, rng, count=3)
        with WriteAheadLog(path, fsync=False) as wal:
            assert wal.version == 2
            records = wal.replay()
        assert [r.seq for r in records] == [0, 1, 2]
        for record, batch in zip(records, batches):
            assert np.array_equal(record.batch.insertions, batch.insertions)
            assert record.batch.insertion_labels == batch.insertion_labels

    def test_v2_appends_stay_v2(self, tmp_path, rng):
        """An append to a v2 log writes a v2 record: an ``.npz``
        payload, chained from the v2 genesis link."""
        path = tmp_path / "wal.log"
        write_v2_log(path, rng, count=1)
        appended = make_batch(rng)
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(1, appended)
        _, _, payload = split_records(path.read_bytes())[1]
        with np.load(io.BytesIO(payload)) as archive:
            assert np.array_equal(archive["insertions"], appended.insertions)
        assert path.read_bytes()[:8] == MAGIC_V2
        report = verify_chain(path)
        assert report.ok and report.version == 2 and report.records == 2
        with WriteAheadLog(path, fsync=False) as wal:
            assert [r.seq for r in wal.replay()] == [0, 1]

    def test_v2_compact_keeps_v2(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        write_v2_log(path, rng, count=3)
        before = split_records(path.read_bytes())
        with WriteAheadLog(path, fsync=False) as wal:
            wal.compact(min_seq=1)
            assert [r.seq for r in wal.replay()] == [1, 2]
        assert path.read_bytes()[:8] == MAGIC_V2
        after = split_records(path.read_bytes())
        assert [(h, p) for h, _, p in after] == [
            (h, p) for h, _, p in before[1:]
        ]
        report = verify_chain(path)
        assert report.ok and report.version == 2 and report.records == 2


@st.composite
def damaged_logs(draw):
    """A v1, v2 or v3 log of 1-5 records, and the same bytes after one
    truncation or one flipped bit anywhere."""
    version = draw(st.sampled_from([1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batches = [
        UpdateBatch(
            deletions=tuple(range(draw(st.integers(0, 3)))),
            insertions=rng.normal(size=(rows, 2)),
            insertion_labels=tuple([-1] * rows),
        )
        for rows in draw(st.lists(st.integers(0, 6), min_size=1, max_size=5))
    ]
    return version, batches, draw(st.booleans()), draw(st.floats(0, 1))


class TestCallersAgree:
    """verify_chain and replay read a damaged log the same way."""

    @settings(deadline=None, max_examples=300)
    @given(case=damaged_logs())
    def test_verify_chain_and_replay_agree(self, case, tmp_path_factory):
        version, batches, truncate, where = case
        directory = tmp_path_factory.mktemp("agree")
        source = directory / "source.log"
        if version == 3:
            with WriteAheadLog(source, fsync=False) as wal:
                for seq, batch in enumerate(batches):
                    wal.append(seq, batch)
        else:
            write_legacy_log(source, batches, version)
        data = bytearray(source.read_bytes())
        if truncate:
            del data[int(where * (len(data) - 1)) :]
        else:
            bit = int(where * (8 * len(data) - 1))
            data[bit // 8] ^= 1 << (bit % 8)
        damaged = bytes(data)
        checked, replayed = directory / "checked.log", directory / "wal.log"
        checked.write_bytes(damaged)
        replayed.write_bytes(damaged)

        report = verify_chain(checked)
        assert checked.read_bytes() == damaged
        if report.reason == "bad_magic":
            with pytest.raises(WalCorruptionError):
                WriteAheadLog(replayed, fsync=False)
        elif not report.ok:
            with WriteAheadLog(replayed, fsync=False) as wal:
                with pytest.raises(
                    WalCorruptionError,
                    match=re.escape(f"(seq {report.bad_seq})"),
                ):
                    wal.replay()
        else:
            with WriteAheadLog(replayed, fsync=False) as wal:
                assert len(wal.replay()) == report.records
        if report.torn_tail:
            again = verify_chain(replayed)
            assert again.ok and not again.torn_tail
            assert again.records == report.records
        else:
            assert replayed.read_bytes() == damaged
