"""Replication buffer unit tests (paper §3.2, §3.7)."""

import random
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Level, ReMon, ReMonConfig
from repro.core.rb import (
    FLAG_FORWARDED,
    FLAG_MAY_BLOCK,
    HEADER_FMT,
    HEADER_SIZE,
    STATE_ALLOCATED,
    STATE_ARGS_READY,
    STATE_RESULTS_READY,
    ReplicationBuffer,
)
from repro.kernel import Kernel
from repro.kernel.constants import PAGE_SIZE
from repro.sim import Simulator
from repro.workloads.synthetic import CategoryMix, SyntheticWorkload, build_program


def make_rb(size=1 << 16, lanes=4):
    return ReplicationBuffer(size=size, lanes=lanes)


def read_args(record):
    """The argument blob, located by the live args-length word."""
    return record.args_blob(record.words()[2])


def read_results(record):
    """``(result, payload)``, located by the live length words."""
    args_len, _flags, result, result_len, _pad = record.tail()
    return result, record.payload(args_len, result_len)


class TestRecordLifecycle:
    def test_record_state_machine(self):
        rb = make_rb()
        lane = rb.lane(0)
        record = lane.reserve(64)
        assert record.words()[0] == STATE_ALLOCATED
        record.write_args(b"argblob", FLAG_MAY_BLOCK)
        assert record.words()[0] == STATE_ARGS_READY
        assert read_args(record) == b"argblob"
        assert record.words()[3] == FLAG_MAY_BLOCK
        record.write_results(42, b"payload")
        assert record.words()[0] == STATE_RESULTS_READY
        result, payload = read_results(record)
        assert (result, payload) == (42, b"payload")

    def test_negative_results_roundtrip(self):
        rb = make_rb()
        record = rb.lane(0).reserve(32)
        record.write_args(b"", 0)
        record.write_results(-11, b"")  # -EAGAIN
        result, payload = read_results(record)
        assert result == -11

    def test_record_bytes_live_in_region(self):
        """The payload really occupies the shared region: an attacker
        with the region can tamper (the §4 scenario)."""
        rb = make_rb()
        lane = rb.lane(0)
        record = lane.reserve(64)
        record.write_args(b"sensitive-args", 0)
        contents = bytes(rb.region.read(0, rb.region.length))
        assert b"sensitive-args" in contents
        # Tampering through the region is visible through the record.
        idx = contents.index(b"sensitive-args")
        rb.region.write(idx, b"EVIL")
        assert read_args(record).startswith(b"EVIL")

    def test_tampered_lengths_stop_at_region_end(self):
        """Length words live in attacker-writable memory: reads and
        writes they steer stop at the region's end."""
        rb = make_rb()
        record = rb.lane(0).reserve(32)
        record.write_args(b"abc", 0)
        record.write_results(0, b"xyz")
        rb.region.write(record.offset + 8, b"\xff" * 4)  # args length
        rb.region.write(record.offset + 20, b"\xff" * 4)  # result length
        assert len(read_args(record)) == rb.size - record.offset - HEADER_SIZE
        # The results now start past the region's end.
        assert read_results(record)[1] == b""
        record.write_results(1, b"dropped")
        assert max(rb.region.pages) < rb.size // PAGE_SIZE

    def test_waiter_counting(self):
        rb = make_rb()
        record = rb.lane(0).reserve(32)
        record.write_args(b"", 0)
        assert record.words()[1] == 0
        record.add_waiter(+1)
        record.add_waiter(+1)
        assert record.words()[1] == 2
        record.add_waiter(-1)
        assert record.words()[1] == 1
        record.add_waiter(-5)
        assert record.words()[1] == 0  # clamped

    def test_lanes_do_not_overlap_and_respect_header(self):
        rb = make_rb(size=1 << 16, lanes=4)
        lanes = [rb.lane(v) for v in range(4)]
        assert all(lane is not None for lane in lanes)
        ranges = sorted((l.base, l.base + l.size) for l in lanes)
        assert ranges[0][0] >= ReplicationBuffer.HEADER_RESERVED
        for (s1, e1), (s2, _e2) in zip(ranges, ranges[1:]):
            assert e1 <= s2
        assert ranges[-1][1] <= rb.size

    def test_lane_limit(self):
        rb = make_rb(lanes=2)
        assert rb.lane(0) is not None
        assert rb.lane(1) is not None
        assert rb.lane(2) is None


class TestConsumption:
    def test_slave_reads_in_order(self):
        sim = Simulator()
        rb = make_rb()
        lane = rb.lane(0)
        rb.attach_slave_to_lane(lane, 1)
        for i in range(5):
            record = lane.reserve(32)
            record.write_args(b"blob%d" % i, 0)
        seen = []
        while True:
            record = lane.next_record_for(1)
            if record is None:
                break
            seen.append(read_args(record))
            lane.consume(1, sim)
        assert seen == [b"blob%d" % i for i in range(5)]

    def test_slaves_caught_up(self):
        sim = Simulator()
        rb = make_rb()
        lane = rb.lane(0)
        rb.attach_slave_to_lane(lane, 1)
        rb.attach_slave_to_lane(lane, 2)
        lane.reserve(32).write_args(b"x", 0)
        assert not lane.slaves_caught_up()
        lane.consume(1, sim)
        assert not lane.slaves_caught_up()
        lane.consume(2, sim)
        assert lane.slaves_caught_up()

    def test_reset_clears_positions(self):
        sim = Simulator()
        rb = make_rb()
        lane = rb.lane(0)
        rb.attach_slave_to_lane(lane, 1)
        for _ in range(3):
            lane.reserve(128).write_args(b"y", 0)
            lane.consume(1, sim)
        used_before = lane.master_offset
        assert used_before > 0
        lane.reset(sim)
        assert lane.master_offset == 0
        assert lane.master_seq == 0
        assert lane.consumed[1] == 0
        assert lane.resets == 1

    def test_has_room_accounting(self):
        rb = make_rb(size=8192, lanes=2)
        lane = rb.lane(0)
        record_bytes = 256
        count = 0
        while lane.has_room(record_bytes):
            lane.reserve(record_bytes)
            count += 1
        assert count == lane.size // (HEADER_SIZE + record_bytes)
        assert not lane.has_room(record_bytes)

    def test_fits_rejects_oversized_records(self):
        rb = make_rb(size=8192, lanes=2)
        lane = rb.lane(0)
        assert lane.fits(100)
        assert not lane.fits(lane.size)


@settings(max_examples=30, deadline=None)
@given(
    blobs=st.lists(st.binary(min_size=0, max_size=200), min_size=1, max_size=10),
    payloads=st.lists(st.binary(min_size=0, max_size=200), min_size=1, max_size=10),
)
def test_property_records_are_isolated(blobs, payloads):
    """Adjacent records never corrupt each other."""
    rb = make_rb(size=1 << 18, lanes=2)
    lane = rb.lane(0)
    records = []
    for blob, payload in zip(blobs, payloads):
        record = lane.reserve(len(blob) + len(payload) + 16)
        record.write_args(blob, 0)
        record.write_results(len(payload), payload)
        records.append((record, blob, payload))
    for record, blob, payload in records:
        assert read_args(record) == blob
        result, got = read_results(record)
        assert result == len(payload)
        assert got == payload


def test_signals_pending_flag_in_reserved_header():
    from repro.core.rb import ReplicationBuffer

    rb = ReplicationBuffer(size=1 << 16, lanes=2)
    lane = rb.lane(0)
    record = lane.reserve(64)
    record.write_args(b"A" * 40, FLAG_FORWARDED)
    # The flag byte (offset 0) is outside every lane.
    assert rb.region.read(0, 1)[0] == 0
    rb.region.write(0, b"\x01")
    assert read_args(record) == b"A" * 40  # record untouched


class _FlatRecord:
    """Reference record accessors: the ``struct`` code IP-MON used when
    the RB was one contiguous ``bytearray``."""

    def __init__(self, data: bytearray, offset: int):
        self.data = data
        self.offset = offset

    def reserve(self):
        self.data[self.offset : self.offset + HEADER_SIZE] = b"\x00" * HEADER_SIZE

    def state(self):
        return struct.unpack_from("<I", self.data, self.offset)[0]

    def waiters(self):
        return struct.unpack_from("<I", self.data, self.offset + 4)[0]

    def add_waiter(self, delta):
        value = max(0, min(0xFFFFFFFF, self.waiters() + delta))
        struct.pack_into("<I", self.data, self.offset + 4, value)

    def write_args(self, blob, flags):
        struct.pack_into(HEADER_FMT, self.data, self.offset, 0, 0, len(blob), flags, 0, 0, 0)
        start = self.offset + HEADER_SIZE
        self.data[start : start + len(blob)] = blob
        struct.pack_into("<I", self.data, self.offset, STATE_ARGS_READY)

    def read_args(self):
        length = struct.unpack_from("<I", self.data, self.offset + 8)[0]
        start = self.offset + HEADER_SIZE
        return bytes(self.data[start : start + length])

    def flags(self):
        return struct.unpack_from("<I", self.data, self.offset + 12)[0]

    def write_results(self, result, payload):
        args_len = struct.unpack_from("<I", self.data, self.offset + 8)[0]
        struct.pack_into("<qII", self.data, self.offset + 16, result, len(payload), 0)
        start = self.offset + HEADER_SIZE + args_len
        self.data[start : start + len(payload)] = payload
        struct.pack_into("<I", self.data, self.offset, STATE_RESULTS_READY)

    def read_results(self):
        args_len = struct.unpack_from("<I", self.data, self.offset + 8)[0]
        result, result_len, _pad = struct.unpack_from("<qII", self.data, self.offset + 16)
        start = self.offset + HEADER_SIZE + args_len
        return result, bytes(self.data[start : start + result_len])

    def poison(self):
        struct.pack_into("<I", self.data, self.offset + 12, self.flags() | FLAG_FORWARDED)
        struct.pack_into("<qII", self.data, self.offset + 16, 0, 0, 0)
        struct.pack_into("<I", self.data, self.offset, STATE_RESULTS_READY)


def _model_reads(ref):
    return (
        ref.state(),
        ref.waiters(),
        ref.flags(),
        ref.read_args(),
        ref.read_results(),
    )


def _reads(record):
    """The same five values through the record's readers, which fetch
    adjacent header words in one call."""
    state, waiters, args_len, flags = record.words()
    tail_args_len, tail_flags, result, result_len, _pad = record.tail()
    assert (tail_args_len, tail_flags) == (args_len, flags)
    return (
        state,
        waiters,
        flags,
        record.args_blob(args_len),
        (result, record.payload(tail_args_len, result_len)),
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1 << 32),
    records=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1),  # lane
            st.integers(min_value=0, max_value=6000),  # blob size
            st.integers(min_value=0, max_value=6000),  # payload size
            st.integers(min_value=0, max_value=FLAG_MAY_BLOCK | FLAG_FORWARDED),
            st.integers(min_value=-2, max_value=3),  # waiter delta
            st.sampled_from(("results", "poison", "results+poison")),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_property_paged_rb_matches_flat_reference(seed, records):
    """Records of random sizes straddle 4 KiB pages in both the header
    and the payload; every accessor agrees with the flat layout."""
    rng = random.Random(seed)
    rb = ReplicationBuffer(size=1 << 16, lanes=2)
    model = bytearray(rb.size)
    written = []
    for lane_index, blob_size, payload_size, flags, delta, finish in records:
        lane = rb.lane(lane_index)
        if not lane.has_room(blob_size + payload_size):
            continue
        record = lane.reserve(blob_size + payload_size)
        ref = _FlatRecord(model, record.offset)
        ref.reserve()
        assert _reads(record) == _model_reads(ref)
        blob = rng.randbytes(blob_size)
        record.write_args(blob, flags)
        ref.write_args(blob, flags)
        record.add_waiter(delta)
        ref.add_waiter(delta)
        assert _reads(record) == _model_reads(ref)
        if finish != "poison":
            payload = rng.randbytes(payload_size)
            result = rng.randrange(-(1 << 63), 1 << 63)
            record.write_results(result, payload)
            ref.write_results(result, payload)
        if finish != "results":
            record.poison()
            ref.poison()
        written.append((record, ref))
    for record, ref in written:
        assert _reads(record) == _model_reads(ref)
    assert bytes(rb.region.read(0, rb.size)) == bytes(model)


def test_rb_pages_cover_only_the_lanes_in_use():
    """A fresh RB holds no pages; the engine-golden ReMon run (3 replicas,
    SOCKET_RW, 3 threads) touches only the front of its lanes."""
    workload = SyntheticWorkload(
        name="engine-golden",
        native_ms=1.5,
        mix=CategoryMix(
            {
                "base": 90_000.0,
                "file_ro": 120_000.0,
                "sock_ro": 30_000.0,
                "sock_rw": 30_000.0,
                "mgmt": 15_000.0,
            }
        ),
        threads=3,
    )
    mvee = ReMon(
        Kernel(),
        build_program(workload),
        ReMonConfig(replicas=3, level=Level.SOCKET_RW),
    )
    assert mvee.ipmon.rb.region.pages == {}
    result = mvee.run(max_steps=400_000_000)
    assert not result.diverged
    rb = mvee.ipmon.rb
    assert rb.stats()["records"] > 0
    # 44 pages (176 KiB) measured.
    assert len(rb.region.pages) <= 64
