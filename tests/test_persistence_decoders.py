"""Fuzzing the raw decoders that sit behind the checksums.

In a normal read the version-3 WAL payload decoder runs after the
record's CRC-32 and hash-chain link, and the snapshot container reader
after the file's CRC-32. These tests call both directly, past those
checks, with damaged bytes: truncated, extended, or with a count,
header-length, shape or dtype field changed. Only ``WalCorruptionError``
or ``SnapshotError`` may come out; any other exception fails the test.
"""

from __future__ import annotations

import functools
import json
import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from legacy_formats import v2_container

from repro import (
    SlidingWindowSummarizer,
    SnapshotError,
    UpdateBatch,
    WalCorruptionError,
)
from repro.persistence import decode_batch, encode_batch
from repro.persistence.snapshot import (
    ARRAYS,
    decode_container,
    encode_container,
)

FUZZ = settings(deadline=None, max_examples=150)
U32 = st.integers(0, 2**32 - 1)


@st.composite
def batches(draw):
    rows = draw(st.integers(0, 6))
    dim = draw(st.integers(1, 4))
    values = draw(
        st.lists(
            st.floats(allow_nan=False, width=64),
            min_size=rows * dim,
            max_size=rows * dim,
        )
    )
    return UpdateBatch(
        deletions=tuple(draw(st.lists(st.integers(0, 2**40), max_size=5))),
        insertions=np.asarray(values, dtype=np.float64).reshape(rows, dim),
        insertion_labels=tuple(
            draw(st.lists(st.integers(-1, 9), min_size=rows, max_size=rows))
        ),
    )


def decodes_or_refuses(payload):
    """The decoded batch, or ``None`` when the decoder refused."""
    try:
        return decode_batch(payload)
    except WalCorruptionError:
        return None


class TestBatchPayload:
    @FUZZ
    @given(batch=batches())
    def test_round_trip(self, batch):
        restored = decode_batch(encode_batch(batch))
        assert restored.deletions == batch.deletions
        assert restored.insertion_labels == batch.insertion_labels
        assert restored.insertions.shape == batch.insertions.shape
        assert restored.insertions.tobytes() == batch.insertions.tobytes()

    @FUZZ
    @given(batch=batches(), data=st.data())
    def test_truncation_is_refused(self, batch, data):
        payload = encode_batch(batch)
        cut = data.draw(st.integers(0, len(payload) - 1))
        assert decodes_or_refuses(payload[:cut]) is None

    @FUZZ
    @given(batch=batches(), extra=st.binary(min_size=1, max_size=40))
    def test_extension_is_refused(self, batch, extra):
        assert decodes_or_refuses(encode_batch(batch) + extra) is None

    @FUZZ
    @given(batch=batches(), field=st.integers(0, 2), value=U32)
    def test_changed_counts_are_refused(self, batch, field, value):
        payload = bytearray(encode_batch(batch))
        struct.pack_into("<I", payload, 4 * field, value)
        decoded = decodes_or_refuses(bytes(payload))
        if decoded is not None:
            # Only counts that still account for every byte decode.
            deletions, rows, dim = struct.unpack_from("<III", payload)
            assert len(payload) == 12 + 8 * (deletions + rows * dim + rows)
            assert decoded.insertions.shape == (rows, dim)


@functools.lru_cache(maxsize=1)
def captured_state():
    """A bootstrapped state with a kept seed matrix."""
    rng = np.random.default_rng(5)
    stream = SlidingWindowSummarizer(
        dim=2, window_size=120, points_per_bubble=15, seed=5
    )
    for _ in range(3):
        stream.append(rng.normal(size=(60, 2)))
    return stream.capture_state(3)


@functools.lru_cache(maxsize=1)
def container_body() -> bytes:
    """The version-3 container of :func:`captured_state`, without its
    trailing CRC."""
    return encode_container(captured_state())[:-4]


@functools.lru_cache(maxsize=1)
def v2_container_body() -> bytes:
    """The same state's version-2 container, without its trailing CRC."""
    return v2_container(captured_state())[:-4]


def header_of(body: bytes) -> tuple[dict, int]:
    (length,) = struct.unpack_from("<I", body, 8)
    return json.loads(body[12 : 12 + length]), 12 + length


def with_header(body: bytes, header: dict) -> bytes:
    _, end = header_of(body)
    encoded = json.dumps(header).encode("utf-8")
    return body[:8] + struct.pack("<I", len(encoded)) + encoded + body[end:]


def reads_or_refuses(body):
    """The decoded state, or ``None`` when the reader refused."""
    try:
        return decode_container(body)
    except SnapshotError:
        return None


class TestSnapshotContainer:
    def test_round_trip(self):
        state = decode_container(container_body())
        assert state.batches_applied == 3
        assert [name for name, _ in ARRAYS] == [
            entry[0] for entry in header_of(container_body())[0]["arrays"]
        ]
        # Every array of the version-3 table is there, the kept seed
        # matrix's five included, bit for bit.
        assert state.keeper_drift.size
        for name, _ in ARRAYS:
            ours = getattr(captured_state(), name)
            assert getattr(state, name).tobytes() == ours.tobytes(), name

    @FUZZ
    @given(
        old=st.booleans(),
        version=st.one_of(
            st.integers(-2, 5),
            st.sampled_from([2.0, 3.0, "3", True, None, [3]]),
        ),
    )
    def test_the_version_picks_the_table(self, old, version):
        """Only the version a table was written under decodes it: a
        version-3 table read as version 2 has five arrays too many, and
        the other way round five too few."""
        body = v2_container_body() if old else container_body()
        header, _ = header_of(body)
        written = header["snapshot_version"]
        header["snapshot_version"] = version
        state = reads_or_refuses(with_header(body, header))
        if type(version) is int and version == written:
            assert state is not None
        else:
            assert state is None

    @FUZZ
    @given(data=st.data())
    def test_truncation_is_refused(self, data):
        body = container_body()
        cut = data.draw(st.integers(0, len(body) - 1))
        assert reads_or_refuses(body[:cut]) is None

    @FUZZ
    @given(extra=st.binary(min_size=1, max_size=64))
    def test_extension_is_refused(self, extra):
        assert reads_or_refuses(container_body() + extra) is None

    @FUZZ
    @given(value=U32)
    def test_changed_header_length_is_refused(self, value):
        body = bytearray(container_body())
        original = struct.unpack_from("<I", body, 8)[0]
        struct.pack_into("<I", body, 8, value)
        if value != original:
            assert reads_or_refuses(bytes(body)) is None

    @FUZZ
    @given(
        entry=st.integers(0, len(ARRAYS) - 1),
        shape=st.lists(
            st.one_of(
                st.integers(-3, 1000),
                st.integers(2**31, 2**70),
                st.floats(allow_nan=False),
                st.text(max_size=3),
                st.none(),
            ),
            max_size=70,
        ),
    )
    def test_changed_shape_only_decodes_when_sizes_agree(self, entry, shape):
        body = container_body()
        header, _ = header_of(body)
        original = header["arrays"][entry][2]
        header["arrays"][entry][2] = shape
        state = reads_or_refuses(with_header(body, header))
        if state is not None:
            # Nothing but a reshape of the same element count decodes.
            assert math.prod(shape) == math.prod(original)

    @FUZZ
    @given(
        entry=st.integers(0, len(ARRAYS) - 1),
        dtype=st.one_of(
            st.sampled_from(
                ["<f8", "<i8", ">f8", ">i8", "<f4", "|u1", "O", "<c16"]
            ),
            st.text(max_size=4),
            st.integers(),
            st.none(),
        ),
    )
    def test_changed_dtype_is_refused(self, entry, dtype):
        body = container_body()
        header, _ = header_of(body)
        original = header["arrays"][entry][1]
        header["arrays"][entry][1] = dtype
        if dtype != original:
            assert reads_or_refuses(with_header(body, header)) is None

    @FUZZ
    @given(data=st.data())
    def test_flipped_header_bytes_never_escape(self, data):
        """A flipped bit anywhere in the header: the JSON may break, a
        number may change, a name may no longer match. Whatever the
        result, it is a decoded state or a ``SnapshotError``."""
        body = bytearray(container_body())
        _, end = header_of(bytes(body))
        at = data.draw(st.integers(8, end - 1))
        body[at] ^= 1 << data.draw(st.integers(0, 7))
        reads_or_refuses(bytes(body))
