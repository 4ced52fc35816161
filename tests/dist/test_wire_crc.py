"""Frame CRC: the chained ``crc32`` against the original concatenation.

``encode_frame`` and ``decode_frame`` compute the CRC as
``crc32(payload, crc32(head))`` instead of hashing a concatenated copy.
The reference codec below is the original one; both must produce the
same bytes and accept or reject exactly the same inputs.
"""

import struct
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.wire import (
    BATCH_HEADER_SIZE,
    FRAME_TYPES,
    HEADER_SIZE,
    MAGIC,
    VERSION,
    Frame,
    decode_batch,
    decode_frame,
    encode_batch,
    encode_frame,
)
from repro.errors import WireError

_HEADER = struct.Struct("<HBBHHIQqII")


def reference_encode_frame(frame):
    payload = bytes(frame.payload)
    head = _HEADER.pack(
        MAGIC, VERSION, frame.type, frame.sender & 0xFFFF,
        frame.flags & 0xFFFF, frame.vtid & 0xFFFFFFFF,
        frame.seq & 0xFFFFFFFFFFFFFFFF, frame.aux, len(payload), 0,
    )
    crc = zlib.crc32(head[:-4] + payload) & 0xFFFFFFFF
    return head[:-4] + struct.pack("<I", crc) + payload


def reference_decode_frame(data, offset=0):
    if len(data) - offset < HEADER_SIZE:
        raise WireError("truncated frame header")
    (magic, version, ftype, sender, flags, vtid, seq, aux, payload_len,
     crc) = _HEADER.unpack_from(data, offset)
    if magic != MAGIC or version != VERSION or ftype not in FRAME_TYPES:
        raise WireError("bad header")
    end = offset + HEADER_SIZE + payload_len
    if end > len(data):
        raise WireError("truncated frame payload")
    payload = bytes(data[offset + HEADER_SIZE:end])
    expect = zlib.crc32(
        bytes(data[offset:offset + HEADER_SIZE - 4]) + payload
    ) & 0xFFFFFFFF
    if crc != expect:
        raise WireError("frame CRC mismatch")
    frame = Frame(type=ftype, sender=sender, vtid=vtid, seq=seq, aux=aux,
                  flags=flags, payload=payload)
    return frame, HEADER_SIZE + payload_len


def _outcome(decode, data, offset=0):
    try:
        return decode(data, offset)
    except WireError:
        return WireError


_buffers = st.sampled_from([bytes, bytearray, memoryview])
frames = st.builds(
    Frame,
    type=st.sampled_from(FRAME_TYPES),
    sender=st.integers(0, 0xFFFF),
    vtid=st.integers(0, 0xFFFFFFFF),
    seq=st.integers(0, (1 << 64) - 1),
    aux=st.integers(-(1 << 63), (1 << 63) - 1),
    flags=st.integers(0, 0xFFFF),
    payload=st.binary(max_size=200),
)


@settings(max_examples=200, deadline=None)
@given(frame=frames, wrap=_buffers)
def test_encode_matches_reference(frame, wrap):
    expected = reference_encode_frame(frame)
    frame.payload = wrap(bytearray(frame.payload))
    got = encode_frame(frame)
    assert type(got) is bytes
    assert got == expected


@settings(max_examples=200, deadline=None)
@given(
    batch=st.lists(frames, min_size=1, max_size=4),
    wrap=_buffers,
    data=st.data(),
)
def test_decode_matches_reference_and_rejects_any_flipped_byte(batch, wrap, data):
    raw = encode_batch(batch)
    assert decode_batch(wrap(bytearray(raw))) == batch
    body = raw[BATCH_HEADER_SIZE:]
    offset = 0
    for frame in batch:
        assert _outcome(decode_frame, wrap(bytearray(body)), offset) == (
            _outcome(reference_decode_frame, body, offset)
        ) == (frame, frame.size())
        offset += frame.size()
    position = data.draw(st.integers(0, len(body) - 1), label="position")
    flip = data.draw(st.integers(1, 255), label="xor")
    damaged = bytearray(body)
    damaged[position] ^= flip
    # Decode the frame that holds the damaged byte.
    offset = 0
    for frame in batch:
        if position < offset + frame.size():
            break
        offset += frame.size()
    assert _outcome(decode_frame, wrap(bytearray(damaged)), offset) is WireError
    assert _outcome(reference_decode_frame, bytes(damaged), offset) is WireError
