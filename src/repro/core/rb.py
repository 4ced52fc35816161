"""The IP-MON replication buffer (paper §3.2, §3.7).

A single shared-memory region (16 MiB reserved by default, System V
shm) mapped into every replica at a *different*, hidden virtual
address. The 16 MiB is address space, not host memory: the region
allocates a page on its first write, and each lane fills linearly from
its start, so a run costs only the front of the lanes it uses. The master
appends one record per unmonitored call: serialized arguments, metadata
flags, then — once the call completes — the results. Slaves read
records at their own pace, compare arguments, and copy results out.

Design notes mirrored from the paper:

* **linear, not circular**: each replica thread only reads and writes
  its own position; when the buffer fills, GHUMVEE arbitrates a reset
  instead of the replicas sharing read/write cursors (§3.2);
* **per-invocation condition variables**: every record embeds its own
  state word that slaves futex-wait on; no reuse, no reset, and no
  FUTEX_WAKE when nobody waits (§3.7);
* **per-thread lanes**: multi-threaded replicas write records for each
  logical thread into that thread's slice of the region, which is how
  "each replica thread only reads and writes its own RB position"
  generalizes to threads.

The record payload genuinely lives in the shared region's bytes, so an
attacker who learns the RB's address can tamper with slave validation —
exactly the attack surface §4 analyzes (and that hiding the RB pointer
defends).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional

from repro.kernel.memory import SharedRegion
from repro.kernel.waitq import WaitQueue

DEFAULT_RB_SIZE = 16 << 20
MAX_LANES = 32

# Record header layout (32 bytes):
#   u32 state        (0 = allocated, 1 = args ready, 2 = results ready)
#   u32 waiters      (slaves currently blocked on this record)
#   u32 syscall_len  (length of the args blob)
#   u32 flags        (bit 0: may-block, bit 1: forwarded-to-monitor)
#   i64 result
#   u32 result_len
#   u32 _pad
HEADER_FMT = "<IIIIqII"
HEADER_SIZE = struct.calcsize(HEADER_FMT)
_HEADER = struct.Struct(HEADER_FMT)
_RESULT = struct.Struct("<qII")
_U32 = struct.Struct("<I")
#: The four u32 words at the front of the header, read in one call.
_WORDS = struct.Struct("<IIII")
#: args_len through the padding word, read in one call.
_TAIL = struct.Struct("<IIqII")
_ZERO_HEADER = bytes(HEADER_SIZE)

STATE_ALLOCATED = 0
STATE_ARGS_READY = 1
STATE_RESULTS_READY = 2

_RESULTS_READY_WORD = _U32.pack(STATE_RESULTS_READY)

FLAG_MAY_BLOCK = 1
FLAG_FORWARDED = 2

OFF_STATE = 0
OFF_WAITERS = 4
OFF_ARGS_LEN = 8
OFF_FLAGS = 12
OFF_RESULT = 16


class RBRecord:
    """Monitor-side handle on one record (offsets into the region)."""

    __slots__ = ("lane", "region", "seq", "offset", "capacity", "args_len",
                 "result_len")

    def __init__(self, lane: "RBLane", seq: int, offset: int, capacity: int):
        self.lane = lane
        #: The RB's shared region (one per buffer, never replaced).
        self.region: SharedRegion = lane.rb.region
        self.seq = seq
        self.offset = offset
        self.capacity = capacity
        self.args_len = 0
        self.result_len = 0

    # -- region accessors -------------------------------------------------
    # Every reader reads the header words from the region each time:
    # they live in attacker-writable shared memory, so a cached copy
    # would hide RB tampering. ``words()`` and ``tail()`` read the
    # adjacent header words in one call; ``args_blob()`` and
    # ``payload()`` read the bodies those lengths locate.
    def _read(self, start: int, length: int) -> bytes:
        # Lengths come from attacker-writable header words: clamp at the
        # region's end rather than reading (or allocating) past it.
        region = self.region
        return bytes(region.read(start, max(0, min(length, region.length - start))))

    def set_state(self, value: int) -> None:
        self.region.write(self.offset + OFF_STATE, _U32.pack(value))

    def add_waiter(self, delta: int) -> None:
        # Clamped: the word lives in attacker-writable shared memory, so
        # arithmetic on it must never raise out of range.
        self.region.write(
            self.offset + OFF_WAITERS,
            _U32.pack(max(0, min(0xFFFFFFFF, self.words()[1] + delta))),
        )

    def state_word_offset(self) -> int:
        """Region offset of the condvar word slaves futex-wait on."""
        return self.offset + OFF_STATE

    def write_args(self, blob: bytes, flags: int) -> None:
        self.args_len = len(blob)
        # Header and blob in one write; the state word lands as ARGS_READY.
        header = _HEADER.pack(STATE_ARGS_READY, 0, len(blob), flags, 0, 0, 0)
        self.region.write(self.offset, header + blob)

    def words(self):
        """``(state, waiters, args_len, flags)``, read in one call."""
        return _WORDS.unpack(self.region.read(self.offset, 16))

    def tail(self):
        """``(args_len, flags, result, result_len, pad)``, read in one call."""
        return _TAIL.unpack(self.region.read(self.offset + OFF_ARGS_LEN, _TAIL.size))

    def args_blob(self, args_len: int) -> bytes:
        """The argument blob, ``args_len`` as just read from the header."""
        return self._read(self.offset + HEADER_SIZE, args_len)

    def payload(self, args_len: int, result_len: int) -> bytes:
        """The result payload, both lengths as just read from the header."""
        return self._read(self.offset + HEADER_SIZE + args_len, result_len)

    def write_results(self, result: int, payload: bytes) -> None:
        region = self.region
        offset = self.offset
        args_len = self.words()[2]
        self.result_len = len(payload)
        region.write(offset + OFF_RESULT, _RESULT.pack(result, len(payload), 0))
        if payload:
            start = offset + HEADER_SIZE + args_len
            region.write(start, payload[: max(0, region.length - start)])
        region.write(offset + OFF_STATE, _RESULTS_READY_WORD)

    def total_bytes(self) -> int:
        return HEADER_SIZE + self.args_len + self.result_len

    def poison(self) -> None:
        """Degraded mode: the master died before finishing this record.
        Mark it forwarded-to-monitor with an empty result so survivors
        route the corresponding call to GHUMVEE's rendezvous instead of
        trusting a half-written record."""
        region = self.region
        region.write(self.offset + OFF_FLAGS, _U32.pack(self.words()[3] | FLAG_FORWARDED))
        region.write(self.offset + OFF_RESULT, _RESULT.pack(0, 0, 0))
        self.set_state(STATE_RESULTS_READY)


class RBLane:
    """One logical thread's slice of the replication buffer."""

    def __init__(self, rb: "ReplicationBuffer", vtid: int, base: int, size: int):
        self.rb = rb
        self.vtid = vtid
        self.base = base
        self.size = size
        self.generation = 0
        self.master_offset = 0
        self.master_seq = 0
        self.records: List[RBRecord] = []
        #: per-slave consumption counts, indexed by replica index (the
        #: master's own slot stays at 0 and is ignored).
        self.consumed: Dict[int, int] = {}
        self.args_waitq = WaitQueue("rb-args:%d" % vtid)
        self.catchup_waitq = WaitQueue("rb-catchup:%d" % vtid)
        self.resets = 0

    # -- master side -------------------------------------------------------
    def fits(self, nbytes: int) -> bool:
        return HEADER_SIZE + nbytes <= self.size

    def has_room(self, nbytes: int) -> bool:
        return self.master_offset + HEADER_SIZE + nbytes <= self.size

    def slaves_caught_up(self) -> bool:
        master_seq = self.master_seq
        for seq in self.consumed.values():
            if seq < master_seq:
                return False
        return True

    def reserve(self, nbytes: int) -> RBRecord:
        """Allocate the next record (caller ensured it fits)."""
        offset = self.base + self.master_offset
        capacity = HEADER_SIZE + nbytes
        record = RBRecord(self, self.master_seq, offset, capacity)
        # Zero the header so the state word starts at ALLOCATED.
        self.rb.region.write(offset, _ZERO_HEADER)
        self.master_offset += capacity
        self.master_seq += 1
        self.records.append(record)
        return record

    def publish_args(self, sim) -> None:
        self.args_waitq.notify_all(sim)

    def reset(self, sim) -> None:
        """GHUMVEE-arbitrated reset: all slaves have consumed everything."""
        self.generation += 1
        self.master_offset = 0
        self.records.clear()
        self.master_seq = 0
        for key in self.consumed:
            self.consumed[key] = 0
        self.resets += 1
        self.args_waitq.notify_all(sim)

    # -- slave side ----------------------------------------------------------
    def next_record_for(self, replica_index: int) -> Optional[RBRecord]:
        seq = self.consumed.get(replica_index, 0)
        if seq < len(self.records):
            return self.records[seq]
        return None

    def consume(self, replica_index: int, sim) -> None:
        self.consumed[replica_index] = self.consumed.get(replica_index, 0) + 1
        if self.slaves_caught_up():
            self.catchup_waitq.notify_all(sim)


class ReplicationBuffer:
    """The shared region plus its lane directory."""

    #: Reserved region header (signals-pending flag and future fields).
    HEADER_RESERVED = 64

    #: Minimum useful lane size; small buffers get fewer lanes rather
    #: than lanes too small to hold a single I/O record.
    MIN_LANE_SIZE = 128 << 10

    def __init__(self, size: int = DEFAULT_RB_SIZE, lanes: Optional[int] = None):
        self.size = size
        if lanes is None:
            lanes = max(1, min(MAX_LANES, size // self.MIN_LANE_SIZE))
        self.max_lanes = lanes
        self.lane_size = (size - self.HEADER_RESERVED) // lanes
        self.region = SharedRegion(size, "ipmon-rb")
        self.lanes: Dict[int, RBLane] = {}
        self.total_records = 0
        self.total_bytes = 0

    def lane(self, vtid: int) -> Optional[RBLane]:
        lane = self.lanes.get(vtid)
        if lane is None:
            if len(self.lanes) >= self.max_lanes:
                return None
            index = len(self.lanes)
            lane = RBLane(
                self,
                vtid,
                self.HEADER_RESERVED + index * self.lane_size,
                self.lane_size,
            )
            self.lanes[vtid] = lane
        return lane

    def attach_slave_to_lane(self, lane: RBLane, replica_index: int) -> None:
        lane.consumed.setdefault(replica_index, 0)

    def stats(self) -> dict:
        return {
            "records": self.total_records,
            "bytes": self.total_bytes,
            "resets": sum(lane.resets for lane in self.lanes.values()),
        }
