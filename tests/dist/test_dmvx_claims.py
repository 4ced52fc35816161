"""The distributed-MVEE claims, on small clusters: dMVX selective
replication, batch coalescing, sharded rendezvous, RB-mirror
compression, the fast path, heterogeneous diversity and WAN loss
(repro.dist, DESIGN.md §8 and §13).

Each test runs a short synthetic workload, at two link latencies where
the claim is "at every latency", and asserts a property of its virtual
figures, which are deterministic.
"""

from __future__ import annotations

import pytest

from repro.core import DegradationPolicy, Level, ReMonConfig
from repro.dist import DistConfig, DistMvee, full_replication, selective_replication
from repro.workloads.synthetic import CategoryMix, SyntheticWorkload, build_program

MAX_STEPS = 200_000_000

#: Same-rack and same-DC links.
LATENCIES_NS = (50_000, 200_000)


def _workload(name, rate, shares, native_ms=1.0, threads=2):
    mix = CategoryMix({cat: rate * share for cat, share in shares.items()})
    return SyntheticWorkload(name=name, native_ms=native_ms, mix=mix,
                             threads=threads)


#: Mostly reproducible file/base traffic plus a socket component only
#: the leader may touch.
SERVER_SHARES = {"base": 0.25, "file_ro": 0.45, "sock_ro": 0.1,
                 "sock_rw": 0.1, "mgmt": 0.1}
SERVER = _workload("dist", 260_000.0, SERVER_SHARES)
#: Long enough for 2 % loss to drop segments on every run.
WAN = _workload("wan", 260_000.0, SERVER_SHARES, native_ms=2.0)
#: Many-threaded monitored traffic: every call is a lockstep round.
LOCKSTEP = _workload("shards", 900_000.0,
                     {"base": 0.55, "file_ro": 0.25, "mgmt": 0.2},
                     native_ms=0.5, threads=8)
#: Most traffic is leader->follower mirrors of repeated socket reads.
MIRROR = _workload("mirror-codec", 260_000.0,
                   {"base": 0.2, "sock_ro": 0.5, "sock_rw": 0.2, "mgmt": 0.1})
FAST_PATH = _workload("fast-path", 300_000.0,
                      {"base": 0.2, "file_ro": 0.2, "sock_ro": 0.3,
                       "sock_rw": 0.1, "mgmt": 0.2}, threads=6)


def _run(workload, *, nodes=3, level=Level.SOCKET_RW, degradation=None,
         batch_bytes=4096, codec=None, loss_prob=0.0, **dist_kwargs):
    """One run; the transfer-unit size and mirror codec are set on the
    cluster's transport, the segment loss on its network."""
    config = ReMonConfig(replicas=nodes, level=level, degradation=degradation,
                         dist=DistConfig(**dist_kwargs))
    mvee = DistMvee(build_program(workload), config)
    mvee.transport.batch_bytes = batch_bytes
    mvee.transport.codec = codec
    mvee.network.loss_prob = loss_prob
    result = mvee.run(max_steps=MAX_STEPS)
    assert not result.diverged, result.divergence
    return result


@pytest.mark.parametrize("latency_ns", LATENCIES_NS)
def test_selective_replication_beats_full(latency_ns):
    """The dMVX claim: at every link latency, selective replication
    moves fewer bytes AND costs less wall time than full replication,
    by keeping reproducible calls local."""
    sel = _run(SERVER, link_latency_ns=latency_ns)
    full = _run(SERVER, link_latency_ns=latency_ns,
                replication=full_replication())
    assert sel.wall_time_ns < full.wall_time_ns
    assert sel.stats["dist_local_calls"] > full.stats["dist_local_calls"]
    assert (sel.stats["dist_replicated_calls"]
            < full.stats["dist_replicated_calls"])
    # The byte saving is substantial, not marginal.
    assert full.stats["dist_wire_bytes"] > 2 * sel.stats["dist_wire_bytes"]


def test_bigger_transfer_units_collapse_message_count():
    """Fewer, fuller messages as the transfer unit grows."""
    small, mid, large = (
        _run(SERVER, link_latency_ns=200_000, batch_bytes=size).stats
        for size in (512, 4096, 16_384)
    )
    assert small["dist_messages"] >= mid["dist_messages"] >= large["dist_messages"]
    assert (large["dist_frames"] / large["dist_messages"]
            >= small["dist_frames"] / small["dist_messages"])


def test_sharding_cuts_monitor_serialization():
    """The owner's monitor is a serial resource: spreading rounds over
    more owners shrinks the queue wait behind it, without extra wall
    time for the routing hop."""
    runs = {
        count: _run(LOCKSTEP, nodes=4, level=Level.NO_IPMON,
                    link_latency_ns=50_000, shard_rendezvous=count > 1,
                    rendezvous_shards=count if count > 1 else None)
        for count in (1, 2, 4)
    }
    base = runs[1].stats
    # Same lockstep work at every shard count (the run's final round
    # may land just before or just after shutdown, hence the ±1)...
    for result in runs.values():
        assert abs(result.stats["dist_rendezvous_completed"]
                   - base["dist_rendezvous_completed"]) <= 1
    # ...queue wait strictly shrinks as rounds spread over more owners,
    assert (runs[4].stats["dist_monitor_wait_ns"]
            < runs[2].stats["dist_monitor_wait_ns"]
            < base["dist_monitor_wait_ns"])
    # ...no single owner serializes more than half the rounds at 4,
    assert runs[4].stats["dist_rounds_owner_max"] * 2 < base["dist_rounds_owner_max"]
    # ...and the routing hop does not blow up wall time.
    assert runs[4].wall_time_ns <= 1.03 * runs[1].wall_time_ns


@pytest.mark.parametrize("latency_ns", LATENCIES_NS)
def test_mirror_compression_cuts_wire_bytes(latency_ns):
    """Both codecs cut total wire bytes substantially, the dictionary
    beats plain RLE on this repeat-heavy stream, and the codec CPU
    never costs more wall time than the bytes it saves."""
    raw, rle, dct = (_run(MIRROR, link_latency_ns=latency_ns, codec=codec)
                     for codec in (None, "rle", "dict"))
    for result in (raw, rle, dct):
        assert result.stats["dist_wire_errors"] == 0
        assert (result.stats["dist_rendezvous_completed"]
                == raw.stats["dist_rendezvous_completed"])
    assert rle.stats["dist_wire_bytes"] * 2 < raw.stats["dist_wire_bytes"]
    assert dct.stats["dist_wire_bytes"] < rle.stats["dist_wire_bytes"]
    assert (rle.stats["dist_payload_coded_bytes"] * 5
            < rle.stats["dist_payload_raw_bytes"])
    assert (dct.stats["dist_payload_coded_bytes"]
            < rle.stats["dist_payload_coded_bytes"])
    assert rle.wall_time_ns <= 1.02 * raw.wall_time_ns
    assert dct.wall_time_ns <= 1.02 * raw.wall_time_ns


@pytest.mark.parametrize("latency_ns", LATENCIES_NS)
def test_fast_path_dominates_baseline(latency_ns):
    """Sharded rendezvous + dict-coded mirrors against the stock
    configuration: same exit codes and rounds, no wire faults, far
    fewer bytes, and less monitor serialization."""
    base = _run(FAST_PATH, link_latency_ns=latency_ns)
    fast = _run(FAST_PATH, link_latency_ns=latency_ns,
                shard_rendezvous=True, codec="dict")
    assert fast.exit_codes == base.exit_codes == [0, 0, 0]
    assert (fast.stats["dist_rendezvous_completed"]
            == base.stats["dist_rendezvous_completed"])
    assert fast.stats["dist_wire_errors"] == 0
    assert fast.stats["dist_wire_bytes"] * 2 < base.stats["dist_wire_bytes"]
    assert fast.stats["dist_monitor_wait_ns"] < base.stats["dist_monitor_wait_ns"]
    assert (fast.stats["dist_rounds_owner_max"]
            < base.stats["dist_rounds_owner_max"])


@pytest.mark.parametrize("latency_ns", LATENCIES_NS)
def test_heterogeneous_diversity_costs_under_ten_pct(latency_ns):
    """Per-node diversity profiles leave digest behaviour unchanged
    (DESIGN.md §13) and the canonical re-encoding stays under 10 %, both
    as billed time and as wall-time inflation over homogeneous."""
    homo = _run(SERVER, link_latency_ns=latency_ns)
    hetero = _run(SERVER, link_latency_ns=latency_ns, heterogeneous=True)
    assert hetero.exit_codes == homo.exit_codes == [0, 0, 0]
    for key in ("dist_rendezvous_completed", "dist_rendezvous_calls"):
        assert hetero.stats[key] == homo.stats[key], key
    # The diversity actually engaged.
    assert hetero.stats["dist_abi_variants"] >= 2
    assert hetero.stats["dist_canonical_calls"] > 0
    assert "dist_canonical_calls" not in homo.stats
    assert hetero.stats["dist_canonical_cost_ns"] < 0.10 * hetero.wall_time_ns
    assert hetero.wall_time_ns < 1.10 * homo.wall_time_ns


def _wan(loss_prob, replication):
    return _run(WAN, link_latency_ns=200_000, loss_prob=loss_prob,
                replication=replication,
                degradation=DegradationPolicy(min_quorum=2))


def test_wan_loss_is_hidden_and_paid_for():
    """Exactly-once delivery hides 2 % loss from the guests; the repair
    traffic shows up in retransmits, acks and wall time, the loss-free
    run keeps the unsequenced path, and selective replication still
    beats full replication on the lossy link."""
    runs = {
        (loss, policy.name): _wan(loss, policy)
        for loss in (0.0, 0.02)
        for policy in (selective_replication(), full_replication())
    }
    for policy in ("selective", "full"):
        zero = runs[(0.0, policy)]
        lossy = runs[(0.02, policy)]
        assert zero.exit_codes == lossy.exit_codes == [0, 0, 0], policy
        for key in ("dist_retransmits", "dist_acks_sent", "net_segments_lost"):
            assert key not in zero.stats, (policy, key)
        for key in ("net_segments_lost", "dist_retransmits",
                    "dist_retransmit_bytes", "dist_acks_sent"):
            assert lossy.stats[key] > 0, (policy, key)
        assert lossy.wall_time_ns > zero.wall_time_ns, policy
    sel, full = runs[(0.02, "selective")], runs[(0.02, "full")]
    assert sel.stats["dist_wire_bytes"] < full.stats["dist_wire_bytes"]
    assert sel.wall_time_ns < full.wall_time_ns
