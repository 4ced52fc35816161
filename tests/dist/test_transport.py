"""Transport batching, flushing, delivery, and payload-codec tests."""

from __future__ import annotations

import pytest

from repro.costs.model import CostModel
from repro.dist.transport import Transport
from repro.dist.wire import (
    BATCH_HEADER_SIZE,
    Frame,
    T_CALL_DIGEST,
    T_CONTROL,
    T_SYSCALL_RESULT,
    encode_batch,
)
from repro.errors import WireError
from repro.kernel.sockets import Network
from repro.sim import Simulator

ADDRS = [("10.1.0.1", 0), ("10.1.1.1", 0), ("10.1.2.1", 0)]


def make_transport(sim, batch_bytes=4096, flush_interval_ns=50_000,
                   codec=None, **net_kwargs):
    net = Network(latency_ns=100_000, **net_kwargs)
    transport = Transport(sim, net, ADDRS, CostModel(),
                          batch_bytes=batch_bytes,
                          flush_interval_ns=flush_interval_ns,
                          codec=codec)
    inbox = []
    transport.dispatch = lambda dst, frame: inbox.append((dst, frame))
    return transport, inbox


def frame(seq=0, payload=b"", ftype=T_CALL_DIGEST):
    return Frame(ftype, 0, 1, seq, payload=payload)


def test_timer_flush_delivers_batched_frames():
    sim = Simulator()
    transport, inbox = make_transport(sim)
    for seq in range(3):
        transport.send(0, 1, frame(seq))
    assert inbox == []  # nothing crosses the wire synchronously
    sim.run()
    assert [f.seq for _, f in inbox] == [0, 1, 2]
    assert all(dst == 1 for dst, _ in inbox)
    # One coalesced message, three frames.
    assert transport.stats["messages_sent"] == 1
    assert transport.stats["frames_sent"] == 3
    assert transport.stats["flushes_timer"] == 1
    # Delivery paid the flush timer + per-message cost + link latency.
    assert sim.now > 150_000


def test_size_flush_triggers_before_timer():
    sim = Simulator()
    transport, inbox = make_transport(sim, batch_bytes=256)
    transport.send(0, 1, frame(0, payload=b"x" * 300))
    assert transport.stats["flushes_size"] == 1
    sim.run()
    assert len(inbox) == 1


def test_urgent_flush_is_immediate():
    sim = Simulator()
    transport, inbox = make_transport(sim)
    transport.send(0, 1, frame(7), urgent=True)
    assert transport.stats["flushes_urgent"] == 1
    sim.run()
    assert [f.seq for _, f in inbox] == [7]


def test_urgent_flush_carries_earlier_pending_frames():
    sim = Simulator()
    transport, inbox = make_transport(sim)
    transport.send(0, 1, frame(0))
    transport.send(0, 1, frame(1), urgent=True)
    sim.run()
    # FIFO: the earlier non-urgent frame rides the same transfer unit.
    assert [f.seq for _, f in inbox] == [0, 1]
    assert transport.stats["messages_sent"] == 1


def test_channels_are_per_directed_pair():
    sim = Simulator()
    transport, inbox = make_transport(sim)
    transport.send(0, 1, frame(1), urgent=True)
    transport.send(0, 2, frame(2), urgent=True)
    transport.send(1, 0, frame(3), urgent=True)
    sim.run()
    assert sorted((dst, f.seq) for dst, f in inbox) == [(0, 3), (1, 1), (2, 2)]
    assert transport.stats["messages_sent"] == 3


def test_self_send_rejected():
    sim = Simulator()
    transport, _ = make_transport(sim)
    with pytest.raises(WireError):
        transport.send(1, 1, frame())


def test_per_class_accounting():
    sim = Simulator()
    transport, _ = make_transport(sim)
    transport.send(0, 1, frame(0), cls="digest")
    transport.send(0, 1, frame(1, payload=b"abc"), cls="result_sock")
    transport.send(0, 1, frame(2, ftype=T_CONTROL), cls="control", urgent=True)
    assert transport.frames_by_class == {
        "digest": 1, "result_sock": 1, "control": 1,
    }
    assert transport.bytes_by_class["result_sock"] == frame(1, payload=b"abc").size()


def test_ordering_survives_jitter():
    sim = Simulator()
    transport, inbox = make_transport(sim, jitter_ns=80_000, jitter_seed=3)
    for seq in range(20):
        transport.send(0, 1, frame(seq), urgent=True)
    sim.run()
    assert [f.seq for _, f in inbox] == list(range(20))


def test_corrupt_batch_counted_and_dropped():
    sim = Simulator()
    transport, inbox = make_transport(sim)
    transport._receive(0, 1, b"\x00garbage that is not a batch")
    assert transport.stats["wire_errors"] == 1
    assert inbox == []


def test_loss_free_transport_rejects_sequenced_batches():
    """A loss-free transport only ever ships the 8-byte header, so a
    batch under the 16-byte one is a wire error, never data."""
    sim = Simulator()
    transport, inbox = make_transport(sim)
    transport._receive(0, 1, encode_batch([frame(1), frame(2)], seq=1))
    assert transport.stats["wire_errors"] == 1
    assert transport.frames_dropped_by_class == {"undecodable": 2}
    assert inbox == []


def test_flush_all_drains_pending():
    sim = Simulator()
    transport, inbox = make_transport(sim)
    transport.send(0, 1, frame(0))
    transport.send(0, 2, frame(1))
    transport.flush_all()
    sim.run()
    assert len(inbox) == 2


def test_codec_round_trips_result_payloads():
    sim = Simulator()
    transport, inbox = make_transport(sim, codec="dict")
    payload = b"response-bytes " * 20
    for seq in range(4):
        transport.send(0, 1, frame(seq, payload=payload,
                                    ftype=T_SYSCALL_RESULT), urgent=True)
    sim.run()
    # Delivered frames carry the original raw payload, coded flag clear.
    assert [f.payload for _, f in inbox] == [payload] * 4
    assert all(f.flags == 0 for _, f in inbox)
    assert transport.stats["wire_errors"] == 0
    # Repeats collapsed to dictionary references on the wire.
    assert transport.stats["codec_dict"] == 3
    assert (transport.stats["payload_coded_bytes"]
            < transport.stats["payload_raw_bytes"])


def test_codec_leaves_non_result_frames_alone():
    sim = Simulator()
    transport, inbox = make_transport(sim, codec="rle")
    payload = b"z" * 64  # highly compressible, but not a result frame
    transport.send(0, 1, frame(0, payload=payload), urgent=True)
    sim.run()
    assert transport.stats["payload_raw_bytes"] == 0
    assert transport.stats["frame_bytes"] == frame(0, payload=payload).size()
    assert [f.payload for _, f in inbox] == [payload]


def test_codec_ships_tiny_payloads_unwrapped():
    sim = Simulator()
    transport, _ = make_transport(sim, codec="dict")
    transport.send(0, 1, frame(0, payload=b"abc", ftype=T_SYSCALL_RESULT),
                   urgent=True)
    assert transport.stats["payload_raw_bytes"] == 0
    assert transport.stats["codec_dict"] == 0


def test_wire_byte_accounting_is_consistent():
    sim = Simulator()
    transport, _ = make_transport(sim, codec="dict")
    payload = b"the same answer every time!" * 4
    for seq in range(6):
        transport.send(0, 1, frame(seq, payload=payload,
                                    ftype=T_SYSCALL_RESULT))
    transport.send(0, 2, frame(9, ftype=T_CONTROL), urgent=True)
    transport.flush_all()
    sim.run()
    # After a full flush, frame bytes (counted once at send, post-codec)
    # plus one batch header per message equals the total wire bytes.
    stats = transport.stats
    assert stats["wire_bytes"] == (
        stats["messages_sent"] * BATCH_HEADER_SIZE + stats["frame_bytes"]
    )
