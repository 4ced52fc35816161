"""WAN-grade reliable transport: seq/ack windows, retransmission with
exponential backoff, and the zero-loss byte-identity gate.

Three load-bearing guarantees:

* **Exactly-once, in-order** — under any seeded combination of link
  loss, duplication, and reordering, every frame a channel sent is
  dispatched exactly once, in send order (the hypothesis property).
* **Backoff is the schedule it claims** — attempt k waits
  ``min(initial << k, cap)``; retransmission never gives up.
* **Loss-free runs are byte-identical** — with every fault knob at
  zero the transport keeps the legacy 8-byte batch header, the stats
  view, wall times, and wire traffic of the pre-reliability design
  (``golden_dist_stats.json``, captured before this layer existed).
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DegradationPolicy, Level, ReMonConfig
from repro.costs.model import CostModel
from repro.dist import DistConfig, DistMvee, full_replication
from repro.dist.reliable import (
    ReceiverWindow,
    RetransmitPolicy,
    SenderWindow,
)
from repro.dist.transport import Transport
from repro.dist.wire import (
    BATCH_HEADER_SIZE,
    RBATCH_HEADER_SIZE,
    Frame,
    T_CALL_DIGEST,
    WireError,
    batch_frame_count,
    encode_batch,
    parse_batch,
)
from repro.kernel.sockets import Network
from repro.sim import Simulator
from repro.workloads.synthetic import CategoryMix, SyntheticWorkload, build_program

ADDRS = [("10.1.0.1", 0), ("10.1.1.1", 0), ("10.1.2.1", 0)]

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_dist_stats.json")


def make_reliable(sim, *, policy=None, window=32, **net_kwargs):
    net = Network(latency_ns=100_000, **net_kwargs)
    transport = Transport(sim, net, ADDRS, CostModel())
    transport.enable_reliable(policy=policy, window=window)
    inbox = []
    transport.dispatch = lambda dst, frame: inbox.append((dst, frame))
    return transport, inbox


def frame(seq=0, payload=b""):
    return Frame(T_CALL_DIGEST, 0, 1, seq, payload=payload)


# ---------------------------------------------------------------------------
# Backoff schedule
# ---------------------------------------------------------------------------
class TestRetransmitPolicy:
    def test_schedule_doubles_then_caps(self):
        policy = RetransmitPolicy(initial_ns=800_000, cap_ns=12_800_000)
        assert [policy.timeout_for(k) for k in range(7)] == [
            800_000, 1_600_000, 3_200_000, 6_400_000,
            12_800_000, 12_800_000, 12_800_000,
        ]

    def test_huge_attempt_counts_stay_capped(self):
        policy = RetransmitPolicy(initial_ns=1_000, cap_ns=64_000)
        # Past the doubling range the schedule is flat at the cap and
        # never overflows (retransmission retries forever).
        assert policy.timeout_for(100) == 64_000
        assert policy.timeout_for(10_000) == 64_000

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetransmitPolicy(initial_ns=0)
        with pytest.raises(ValueError):
            RetransmitPolicy(initial_ns=1000, cap_ns=999)
        with pytest.raises(ValueError):
            RetransmitPolicy().timeout_for(-1)


# ---------------------------------------------------------------------------
# Window state machines
# ---------------------------------------------------------------------------
class TestSenderWindow:
    def test_sequences_start_at_one_and_acks_are_cumulative(self):
        window = SenderWindow(window=4)
        for expected in (1, 2, 3):
            assert window.register(b"x", 1, now=100) == expected
        acked, _ = window.ack(2, now=200)
        assert acked == [1, 2]
        assert window.in_flight == 1

    def test_karn_filter_drops_retransmitted_samples(self):
        window = SenderWindow()
        window.register(b"a", 1, now=0)
        window.register(b"b", 1, now=0)
        window.mark_retransmit(1)
        _, samples = window.ack(2, now=500)
        # Only the never-retransmitted seq 2 yields an RTT sample.
        assert samples == [500]
        assert window.srtt_ns == 500 and window.min_rtt_ns == 500

    def test_window_full_blocks_and_deferred_queue_gates_sends(self):
        window = SenderWindow(window=2)
        window.register(b"a", 1, now=0)
        window.register(b"b", 1, now=0)
        assert not window.can_send()
        window.defer(["frames"], 10)
        window.ack(2, now=100)
        # Even with the window open, a backlog must drain first (FIFO).
        assert not window.can_send()
        assert window.pop_deferred() == (["frames"], 10)
        assert window.can_send()


class TestReceiverWindow:
    def test_in_order_release_and_gap_buffering(self):
        window = ReceiverWindow()
        assert window.accept(1, "a") == ["a"]
        assert window.accept(3, "c") == []  # gap: buffered
        assert window.cumulative_ack == 1
        assert window.accept(2, "b") == ["b", "c"]
        assert window.cumulative_ack == 3

    def test_duplicates_rejected_delivered_and_buffered(self):
        window = ReceiverWindow()
        window.accept(1, "a")
        window.accept(3, "c")
        assert window.accept(1, "dup") == []  # already delivered
        assert window.accept(3, "dup") == []  # still buffered
        assert window.dups == 2 and window.ooo == 1


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------
class TestReliableBatchHeader:
    def test_roundtrip_carries_seq_and_ack(self):
        data = encode_batch([frame(7)], seq=42, ack=41)
        frames, seq, ack = parse_batch(data)
        assert (seq, ack) == (42, 41)
        assert [f.seq for f in frames] == [7]

    def test_legacy_batches_parse_with_no_seq(self):
        frames, seq, ack = parse_batch(encode_batch([frame(1)]))
        assert seq is None and ack is None and len(frames) == 1

    def test_header_sizes(self):
        assert len(encode_batch([], 0, 0)) == RBATCH_HEADER_SIZE
        assert len(encode_batch([])) == BATCH_HEADER_SIZE

    def test_frame_count_survives_body_damage(self):
        data = bytearray(encode_batch([frame(1), frame(2)], 5, 0))
        data[-1] ^= 0xFF  # corrupt a payload byte past the header
        with pytest.raises(WireError):
            parse_batch(bytes(data))
        assert batch_frame_count(bytes(data)) == 2
        assert batch_frame_count(b"\x00\x00\x00\x00\x00\x00\x00\x00") is None


# ---------------------------------------------------------------------------
# Reliable transport behaviour
# ---------------------------------------------------------------------------
class TestReliableTransport:
    def test_enable_after_traffic_is_rejected(self):
        sim = Simulator()
        net = Network(latency_ns=100_000)
        transport = Transport(sim, net, ADDRS, CostModel())
        transport.send(0, 1, frame(0), urgent=True)
        with pytest.raises(WireError):
            transport.enable_reliable()

    def test_loss_is_recovered_by_retransmission(self):
        sim = Simulator()
        transport, inbox = make_reliable(
            sim, loss_prob=0.5, fault_seed=7,
        )
        for seq in range(40):
            transport.send(0, 1, frame(seq), urgent=True)
        sim.run()
        assert [f.seq for _, f in inbox] == list(range(40))
        assert transport.stats["retransmits"] > 0
        assert transport.stats["acks_sent"] > 0
        # Retransmitted bytes are billed on top of first transmissions.
        assert transport.stats["wire_bytes"] > transport.stats["frame_bytes"]

    def test_duplicate_batches_are_dropped_once(self):
        sim = Simulator()
        transport, inbox = make_reliable(sim, dup_prob=1.0, fault_seed=7)
        for seq in range(10):
            transport.send(0, 1, frame(seq), urgent=True)
        sim.run()
        assert [f.seq for _, f in inbox] == list(range(10))
        assert transport.stats["dup_batches_dropped"] >= 10

    def test_reordered_batches_dispatch_in_order(self):
        sim = Simulator()
        transport, inbox = make_reliable(sim, reorder_prob=0.4, fault_seed=3)
        for seq in range(30):
            transport.send(0, 1, frame(seq), urgent=True)
        sim.run()
        assert [f.seq for _, f in inbox] == list(range(30))

    def test_window_full_defers_and_drains_in_order(self):
        sim = Simulator()
        transport, inbox = make_reliable(sim, window=2)
        for seq in range(12):
            transport.send(0, 1, frame(seq), urgent=True)
        assert transport.stats["window_stalls"] > 0
        sim.run()
        assert [f.seq for _, f in inbox] == list(range(12))

    def test_damaged_batch_counts_dropped_frames_by_class(self):
        sim = Simulator()
        net = Network(latency_ns=100_000)
        transport = Transport(sim, net, ADDRS, CostModel())
        transport.dispatch = lambda dst, f: None
        data = bytearray(encode_batch([frame(1), frame(2), frame(3)]))
        data[-1] ^= 0xFF
        transport._receive(0, 1, bytes(data))
        assert transport.stats["wire_errors"] == 1
        assert transport.stats["frames_dropped"] == 3
        assert transport.frames_dropped_by_class == {"undecodable": 3}


# ---------------------------------------------------------------------------
# The property: exactly-once, in-order, both directions, any faults
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=2**32),
    loss=st.floats(min_value=0.0, max_value=0.6),
    dup=st.floats(min_value=0.0, max_value=0.5),
    reorder=st.floats(min_value=0.0, max_value=0.5),
    count=st.integers(min_value=1, max_value=25),
)
def test_exactly_once_in_order_under_any_link_faults(
    seed, loss, dup, reorder, count
):
    sim = Simulator()
    transport, inbox = make_reliable(
        sim, loss_prob=loss, dup_prob=dup, reorder_prob=reorder,
        fault_seed=seed, jitter_ns=30_000, jitter_seed=seed,
    )
    for seq in range(count):
        transport.send(0, 1, frame(seq), urgent=True)
        transport.send(1, 0, frame(1000 + seq), urgent=True)
    sim.run()
    got_fwd = [f.seq for dst, f in inbox if dst == 1]
    got_rev = [f.seq for dst, f in inbox if dst == 0]
    assert got_fwd == list(range(count))
    assert got_rev == [1000 + s for s in range(count)]


# ---------------------------------------------------------------------------
# Zero-loss byte-identity against the pre-reliability golden snapshot
# ---------------------------------------------------------------------------
def _golden_workload():
    return SyntheticWorkload(
        name="wan-golden",
        native_ms=2.0,
        mix=CategoryMix(
            {
                "base": 65_000.0,
                "file_ro": 117_000.0,
                "sock_ro": 26_000.0,
                "sock_rw": 26_000.0,
                "mgmt": 26_000.0,
            }
        ),
        threads=2,
    )


def _golden_run(**dist_kwargs):
    config = ReMonConfig(
        replicas=3, level=Level.SOCKET_RW,
        degradation=DegradationPolicy(min_quorum=2),
        dist=DistConfig(link_latency_ns=200_000, **dist_kwargs),
    )
    mvee = DistMvee(build_program(_golden_workload()), config)
    result = mvee.run(max_steps=400_000_000)
    return {
        "wall_time_ns": result.wall_time_ns,
        "exit_codes": list(result.exit_codes),
        "stats": dict(sorted(result.stats.items())),
        "network_bytes_sent": mvee.network.bytes_sent,
        "network_segments_sent": mvee.network.segments_sent,
    }


class TestZeroLossByteIdentity:
    """With every fault knob at zero the reliable machinery must be
    unobservable: same wire traffic, same stats keys and values, same
    wall time as the snapshot captured before this layer existed."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN) as handle:
            return json.load(handle)

    @pytest.mark.parametrize(
        "variant,kwargs",
        [
            ("selective", {}),
            ("full", {"replication": full_replication()}),
            ("shard-dict", {"shard_rendezvous": True, "compress": "dict"}),
        ],
    )
    def test_run_matches_golden_snapshot(self, golden, variant, kwargs):
        snap = _golden_run(**kwargs)
        want = golden[variant]
        assert snap["exit_codes"] == want["exit_codes"]
        # Stats first (the most diagnostic diff on failure)...
        assert snap["stats"] == want["stats"]
        # ...then raw wire traffic and timing, bit for bit.
        assert snap["network_bytes_sent"] == want["network_bytes_sent"]
        assert snap["network_segments_sent"] == want["network_segments_sent"]
        assert snap["wall_time_ns"] == want["wall_time_ns"]
