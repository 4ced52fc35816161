"""Property-based round-trip tests for the cross-node wire format.

The invariants a distributed monitor lives or dies by:

* encode -> decode is the identity for every representable frame/batch;
* a truncated or length-corrupted buffer is always *rejected* (raises
  WireError), never silently mis-decoded;
* flipping any bit of an encoded frame is either rejected or yields a
  frame unequal to the original — corruption cannot round-trip clean.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.wire import (
    BATCH_HEADER_SIZE,
    HEADER_SIZE,
    Frame,
    FRAME_TYPES,
    call_digest,
    decode_frame,
    digest_payload,
    encode_batch,
    encode_frame,
    parse_batch,
    parse_digest_payload,
)
from repro.errors import WireError

frames = st.builds(
    Frame,
    type=st.sampled_from(FRAME_TYPES),
    sender=st.integers(0, 0xFFFF),
    vtid=st.integers(0, 0xFFFFFFFF),
    seq=st.integers(0, (1 << 64) - 1),
    aux=st.integers(-(1 << 63), (1 << 63) - 1),
    flags=st.integers(0, 0xFFFF),
    payload=st.binary(max_size=300),
)


@given(frames)
def test_frame_round_trip_identity(frame):
    data = encode_frame(frame)
    assert len(data) == HEADER_SIZE + len(frame.payload) == frame.size()
    decoded, consumed = decode_frame(data)
    assert consumed == len(data)
    assert decoded == frame


@given(st.lists(frames, max_size=8))
def test_batch_round_trip_identity(batch):
    data = encode_batch(batch)
    assert len(data) == BATCH_HEADER_SIZE + sum(f.size() for f in batch)
    assert parse_batch(data)[0] == batch


@given(frames, st.data())
def test_truncated_frame_rejected(frame, data):
    encoded = encode_frame(frame)
    cut = data.draw(st.integers(0, len(encoded) - 1))
    with pytest.raises(WireError):
        decode_frame(encoded[:cut])


@given(st.lists(frames, min_size=1, max_size=4), st.data())
def test_truncated_batch_rejected(batch, data):
    encoded = encode_batch(batch)
    cut = data.draw(st.integers(0, len(encoded) - 1))
    with pytest.raises(WireError):
        parse_batch(encoded[:cut])


@given(st.lists(frames, max_size=4), st.binary(min_size=1, max_size=16))
def test_trailing_garbage_rejected(batch, garbage):
    with pytest.raises(WireError):
        parse_batch(encode_batch(batch) + garbage)


@settings(max_examples=300)
@given(frames, st.data())
def test_corruption_never_round_trips_clean(frame, data):
    encoded = bytearray(encode_frame(frame))
    index = data.draw(st.integers(0, len(encoded) - 1))
    bit = data.draw(st.integers(0, 7))
    encoded[index] ^= 1 << bit
    try:
        decoded, consumed = decode_frame(bytes(encoded))
    except WireError:
        return  # rejected: the desired outcome
    # CRC32 detects all single-bit errors, so an accepted decode should
    # be impossible — but if one ever slips through, it must at least
    # not masquerade as the original frame.
    assert decoded != frame or consumed != len(encoded)


@given(st.integers(0, (1 << 64) - 1), st.text(max_size=32))
def test_digest_payload_round_trip(digest, name):
    got_digest, got_name = parse_digest_payload(digest_payload(digest, name))
    assert got_digest == digest
    # Names survive when encodable; decode uses errors="replace" so it
    # never raises, but plain ASCII syscall names round-trip exactly.
    if name.isascii():
        assert got_name == name


def test_digest_payload_too_short_rejected():
    with pytest.raises(WireError):
        parse_digest_payload(b"1234567")


@given(st.text(max_size=16), st.binary(max_size=64))
def test_call_digest_is_stable_and_sensitive(name, blob):
    assert call_digest(name, blob) == call_digest(name, blob)
    assert call_digest(name, blob) != call_digest(name + "x", blob)
    assert call_digest(name, blob) != call_digest(name, blob + b"\x00")


def test_aux_out_of_range_rejected():
    with pytest.raises(WireError):
        encode_frame(Frame(FRAME_TYPES[0], 0, 0, 0, aux=1 << 63))


def test_unknown_type_rejected_both_ways():
    with pytest.raises(WireError):
        encode_frame(Frame(99, 0, 0, 0))
    good = bytearray(encode_frame(Frame(FRAME_TYPES[0], 0, 0, 0)))
    good[3] = 99  # type byte; CRC now wrong too, but type is checked first
    with pytest.raises(WireError):
        decode_frame(bytes(good))
