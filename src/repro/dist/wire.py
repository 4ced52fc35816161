"""Wire format for cross-node MVEE traffic.

Every unit of monitor traffic between nodes — replicated syscall
results, async call digests, lockstep rendezvous rounds, control
messages — is a fixed-header *frame*. Frames are coalesced into
*batches* (dMVX's transfer units) by the transport; a batch is what
actually crosses the simulated link.

The format is deliberately strict: magic, version, length, and a CRC32
over header and payload are all validated on decode, and any violation
raises :class:`~repro.errors.WireError`. A distributed monitor must
treat a damaged frame as a transmission fault, never as data — a
corrupted "result" silently adopted by a follower would be a
cross-node divergence vector.

Layout (little-endian)::

    frame header (36 bytes)
      u16 magic      0xD15C
      u8  version    1
      u8  type       T_* below
      u16 sender     node index of the producer
      u16 flags
      u32 vtid       virtual thread the frame concerns
      u64 seq        per-thread syscall sequence number
      i64 aux        type-specific (result value, verdict, ...)
      u32 payload_len
      u32 crc32      over header-sans-crc + payload
    payload (payload_len bytes)

    batch header (8 bytes)
      u16 magic      0xBA7C
      u16 count      number of frames
      u32 body_len   total frame bytes following

    reliable batch header (16 bytes)
      u16 magic      0xBA7D
      u16 count      number of frames
      u32 body_len   total frame bytes following
      u32 seq        batch sequence number (0 = unsequenced / ack-only)
      u32 ack        cumulative ack for the reverse channel

One encoder writes both headers (:func:`encode_batch`) and one parser
reads both (:func:`parse_batch`). The reliable header only appears
when the transport runs in reliable mode (lossy links, or a planned
link degrade); loss-free runs keep the 8-byte header, so their wire
bytes stay bit-identical to the pre-reliability design.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, List, Tuple

from repro.core.digests import interner
from repro.errors import WireError

MAGIC = 0xD15C
VERSION = 1
BATCH_MAGIC = 0xBA7C
RBATCH_MAGIC = 0xBA7D

#: Frame flag: the payload is codec-wrapped (see :mod:`repro.dist.codec`);
#: the transport decodes it back to raw bytes before dispatch.
F_CODED = 0x0001

#: Async cross-check digest of a locally-executed call's arguments.
T_CALL_DIGEST = 1
#: A follower's request to join a lockstep rendezvous.
T_RENDEZVOUS_REQ = 2
#: The leader's verdict releasing a rendezvous (aux: 1 ok, 0 diverged).
T_RENDEZVOUS_OK = 3
#: A replicated syscall result (aux: return value; payload: out-buffers).
T_SYSCALL_RESULT = 4
#: Membership / failover control traffic.
T_CONTROL = 5
#: Shard-ownership handoff after a membership change (aux: new epoch).
#: With vtid=seq=0 it announces the epoch + owner set; otherwise it
#: transfers one surviving round's collected state to its new owner.
T_SHARD_HANDOFF = 6
#: A participant re-submitting its digest for a round whose hosting
#: shard died with its owner (aux: the epoch it was sent under).
T_ROUND_RESUBMIT = 7
#: SWIM-style lifecycle heartbeat carrying a gossiped membership view
#: (payload: gossip_payload below). Physical bytes only — membership
#: state is merged where the frame is billed, never re-dispatched.
T_LIFECYCLE_GOSSIP = 8
#: Replay-window state transfer to a re-admitted replica: one recorded
#: RB mirror record (aux: result) or rendezvous verdict (aux: verdict).
T_LIFECYCLE_STATE = 9

FRAME_TYPES = (
    T_CALL_DIGEST,
    T_RENDEZVOUS_REQ,
    T_RENDEZVOUS_OK,
    T_SYSCALL_RESULT,
    T_CONTROL,
    T_SHARD_HANDOFF,
    T_ROUND_RESUBMIT,
    T_LIFECYCLE_GOSSIP,
    T_LIFECYCLE_STATE,
)

_HEADER = struct.Struct("<HBBHHIQqII")
#: The header up to (not including) its trailing crc32 field.
_HEAD_SANS_CRC = struct.Struct("<HBBHHIQqI")
_BATCH_HEADER = struct.Struct("<HHI")
_RBATCH_HEADER = struct.Struct("<HHIII")
_DIGEST = struct.Struct("<Q")
_CRC = struct.Struct("<I")

HEADER_SIZE = _HEADER.size  # 36
BATCH_HEADER_SIZE = _BATCH_HEADER.size  # 8
RBATCH_HEADER_SIZE = _RBATCH_HEADER.size  # 16

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


class Frame:
    """One decoded unit of cross-node monitor traffic."""

    __slots__ = ("type", "sender", "vtid", "seq", "aux", "flags", "payload")

    def __init__(self, type: int, sender: int, vtid: int, seq: int,
                 aux: int = 0, flags: int = 0, payload: bytes = b""):
        self.type = type
        self.sender = sender
        self.vtid = vtid
        self.seq = seq
        self.aux = aux
        self.flags = flags
        self.payload = payload

    def size(self) -> int:
        return HEADER_SIZE + len(self.payload)

    def _key(self):
        return (self.type, self.sender, self.vtid, self.seq, self.aux,
                self.flags, self.payload)

    def __eq__(self, other):
        if not isinstance(other, Frame):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        return ("Frame(type=%d, sender=%d, vtid=%d, seq=%d, aux=%d, "
                "flags=0x%04X, payload=%d bytes)"
                % (self.type, self.sender, self.vtid, self.seq, self.aux,
                   self.flags, len(self.payload)))


def call_digest(name: str, blob_bytes: bytes) -> int:
    """64-bit digest of one syscall's name + serialised arguments."""
    return interner.digest(name, blob_bytes)


def digest_payload(digest: int, name: str) -> bytes:
    """Payload for T_CALL_DIGEST / T_RENDEZVOUS_REQ frames."""
    return _DIGEST.pack(digest) + name.encode()


def parse_digest_payload(payload: bytes) -> Tuple[int, str]:
    if len(payload) < _DIGEST.size:
        raise WireError("digest payload too short: %d bytes" % len(payload))
    (digest,) = _DIGEST.unpack_from(payload)
    return digest, payload[_DIGEST.size:].decode(errors="replace")


_U16 = struct.Struct("<H")
_HANDOFF_VOTE = struct.Struct("<HQH")  # sender, digest, name length


def owners_payload(owners: Tuple[int, ...]) -> bytes:
    """Payload of a T_SHARD_HANDOFF epoch announcement: the owner set."""
    return _U16.pack(len(owners)) + b"".join(_U16.pack(o) for o in owners)


def parse_owners_payload(payload: bytes) -> Tuple[int, ...]:
    if len(payload) < _U16.size:
        raise WireError("owners payload too short: %d bytes" % len(payload))
    (count,) = _U16.unpack_from(payload)
    need = _U16.size * (1 + count)
    if len(payload) < need:
        raise WireError(
            "owners payload truncated: want %d bytes, have %d"
            % (need, len(payload))
        )
    return tuple(
        _U16.unpack_from(payload, _U16.size * (1 + i))[0] for i in range(count)
    )


def handoff_payload(digests: Dict[int, Tuple[str, int]]) -> bytes:
    """Payload of a T_SHARD_HANDOFF state transfer: one open round's
    collected votes, so the state-transfer bytes the transport bills
    scale with how much the dying/remapped shard actually held."""
    parts = [_U16.pack(len(digests))]
    for sender in sorted(digests):
        name, digest = digests[sender]
        encoded = name.encode()
        parts.append(_HANDOFF_VOTE.pack(sender, digest, len(encoded)))
        parts.append(encoded)
    return b"".join(parts)


def parse_handoff_payload(payload: bytes) -> Dict[int, Tuple[str, int]]:
    if len(payload) < _U16.size:
        raise WireError("handoff payload too short: %d bytes" % len(payload))
    (count,) = _U16.unpack_from(payload)
    offset = _U16.size
    digests: Dict[int, Tuple[str, int]] = {}
    for _ in range(count):
        if len(payload) - offset < _HANDOFF_VOTE.size:
            raise WireError("handoff payload truncated at vote header")
        sender, digest, name_len = _HANDOFF_VOTE.unpack_from(payload, offset)
        offset += _HANDOFF_VOTE.size
        if len(payload) - offset < name_len:
            raise WireError("handoff payload truncated at vote name")
        name = payload[offset:offset + name_len].decode(errors="replace")
        offset += name_len
        digests[sender] = (name, digest)
    if offset != len(payload):
        raise WireError(
            "handoff payload has %d trailing bytes" % (len(payload) - offset)
        )
    return digests


_GOSSIP_ENTRY = struct.Struct("<HIB")  # node index, incarnation, state
_STATE_HEAD = struct.Struct("<BH")     # entry kind, name length

#: Gossip membership states carried in T_LIFECYCLE_GOSSIP entries.
GOSSIP_ALIVE = 0
GOSSIP_SUSPECT = 1
GOSSIP_DEAD = 2

#: Replay-window entry kinds carried in T_LIFECYCLE_STATE frames.
STATE_VERDICT = 0
STATE_RECORD = 1


def gossip_payload(entries) -> bytes:
    """Payload of a T_LIFECYCLE_GOSSIP heartbeat: the sender's full
    membership view as (node, incarnation, state) triples."""
    parts = [_U16.pack(len(entries))]
    for node, incarnation, state in entries:
        parts.append(_GOSSIP_ENTRY.pack(node, incarnation & 0xFFFFFFFF, state))
    return b"".join(parts)


def parse_gossip_payload(payload: bytes) -> Tuple[Tuple[int, int, int], ...]:
    if len(payload) < _U16.size:
        raise WireError("gossip payload too short: %d bytes" % len(payload))
    (count,) = _U16.unpack_from(payload)
    need = _U16.size + _GOSSIP_ENTRY.size * count
    if len(payload) != need:
        raise WireError(
            "gossip payload length mismatch: want %d bytes, have %d"
            % (need, len(payload))
        )
    return tuple(
        _GOSSIP_ENTRY.unpack_from(payload, _U16.size + _GOSSIP_ENTRY.size * i)
        for i in range(count)
    )


def state_payload(kind: int, name: str, data: bytes = b"") -> bytes:
    """Payload of a T_LIFECYCLE_STATE transfer entry: the syscall name
    plus, for records, the replicated out-buffer bytes."""
    encoded = name.encode()
    return _STATE_HEAD.pack(kind, len(encoded)) + encoded + data


def parse_state_payload(payload: bytes) -> Tuple[int, str, bytes]:
    if len(payload) < _STATE_HEAD.size:
        raise WireError("state payload too short: %d bytes" % len(payload))
    kind, name_len = _STATE_HEAD.unpack_from(payload)
    offset = _STATE_HEAD.size
    if len(payload) - offset < name_len:
        raise WireError("state payload truncated at name")
    name = payload[offset:offset + name_len].decode(errors="replace")
    return kind, name, payload[offset + name_len:]


def encode_frame(frame: Frame) -> bytes:
    if frame.type not in FRAME_TYPES:
        raise WireError("unknown frame type %r" % (frame.type,))
    if not (_I64_MIN <= frame.aux <= _I64_MAX):
        raise WireError("aux out of i64 range: %r" % (frame.aux,))
    payload = bytes(frame.payload)
    head = _HEAD_SANS_CRC.pack(
        MAGIC,
        VERSION,
        frame.type,
        frame.sender & 0xFFFF,
        frame.flags & 0xFFFF,
        frame.vtid & 0xFFFFFFFF,
        frame.seq & 0xFFFFFFFFFFFFFFFF,
        frame.aux,
        len(payload),
    )
    # crc32 chains: crc32(b, crc32(a)) == crc32(a + b), without the copy.
    crc = zlib.crc32(payload, zlib.crc32(head))
    return b"".join((head, _CRC.pack(crc), payload))


def decode_frame(data: bytes, offset: int = 0) -> Tuple[Frame, int]:
    """Decode one frame at ``offset``; returns (frame, bytes consumed)."""
    if len(data) - offset < HEADER_SIZE:
        raise WireError(
            "truncated frame header: %d of %d bytes"
            % (max(0, len(data) - offset), HEADER_SIZE)
        )
    (magic, version, ftype, sender, flags, vtid, seq, aux, payload_len,
     crc) = _HEADER.unpack_from(data, offset)
    if magic != MAGIC:
        raise WireError("bad frame magic 0x%04X" % magic)
    if version != VERSION:
        raise WireError("unsupported wire version %d" % version)
    if ftype not in FRAME_TYPES:
        raise WireError("unknown frame type %d" % ftype)
    end = offset + HEADER_SIZE + payload_len
    if end > len(data):
        raise WireError(
            "truncated frame payload: want %d bytes, have %d"
            % (payload_len, len(data) - offset - HEADER_SIZE)
        )
    payload = bytes(data[offset + HEADER_SIZE:end])
    expect = zlib.crc32(
        payload, zlib.crc32(data[offset:offset + HEADER_SIZE - 4])
    )
    if crc != expect:
        raise WireError("frame CRC mismatch: 0x%08X != 0x%08X" % (crc, expect))
    frame = Frame(
        type=ftype, sender=sender, vtid=vtid, seq=seq, aux=aux,
        flags=flags, payload=payload,
    )
    return frame, HEADER_SIZE + payload_len


def encode_batch(frames: List[Frame], seq=None, ack: int = 0) -> bytes:
    """Encode a batch: under the 8-byte header when ``seq`` is None,
    else under the 16-byte reliable one.

    ``seq`` numbers the batch on its directed channel (0 = unsequenced,
    used for pure-ack batches); ``ack`` is the cumulative ack for the
    reverse channel. Data sequence numbers start at 1.
    """
    if len(frames) > 0xFFFF:
        raise WireError("batch too large: %d frames" % len(frames))
    body = b"".join(encode_frame(f) for f in frames)
    if seq is None:
        return _BATCH_HEADER.pack(BATCH_MAGIC, len(frames), len(body)) + body
    return _RBATCH_HEADER.pack(
        RBATCH_MAGIC, len(frames), len(body),
        seq & 0xFFFFFFFF, ack & 0xFFFFFFFF,
    ) + body


def parse_batch(data: bytes):
    """Decode a batch under either header.

    Returns ``(frames, seq, ack)``; a legacy 8-byte batch yields
    ``(frames, None, None)``.
    """
    if len(data) < BATCH_HEADER_SIZE:
        raise WireError("truncated batch header: %d bytes" % len(data))
    magic, count, body_len = _BATCH_HEADER.unpack_from(data)
    seq = ack = None
    if magic == BATCH_MAGIC:
        offset = BATCH_HEADER_SIZE
    elif magic == RBATCH_MAGIC:
        if len(data) < RBATCH_HEADER_SIZE:
            raise WireError(
                "truncated reliable batch header: %d bytes" % len(data)
            )
        magic, count, body_len, seq, ack = _RBATCH_HEADER.unpack_from(data)
        offset = RBATCH_HEADER_SIZE
    else:
        raise WireError("bad batch magic 0x%04X" % magic)
    if offset + body_len != len(data):
        raise WireError(
            "batch length mismatch: header says %d body bytes, have %d"
            % (body_len, len(data) - offset)
        )
    frames: List[Frame] = []
    for _ in range(count):
        frame, used = decode_frame(data, offset)
        frames.append(frame)
        offset += used
    if offset != len(data):
        raise WireError(
            "batch has %d trailing bytes after %d frames"
            % (len(data) - offset, count)
        )
    return frames, seq, ack


def batch_frame_count(data: bytes):
    """Frame count claimed by a batch header, or None if even the
    header is unreadable. Used to account frames lost inside a
    CRC-damaged batch without trusting anything past the count field."""
    if len(data) < BATCH_HEADER_SIZE:
        return None
    magic, count, _body_len = _BATCH_HEADER.unpack_from(data)
    if magic in (BATCH_MAGIC, RBATCH_MAGIC):
        return count
    return None
