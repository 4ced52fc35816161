"""Re-admission across crash instants, and what a rejoined node owes
the cluster afterwards (DESIGN.md §12-13).

A rejoiner adopts its pre-filled mirror in one arrival order through
the live lanes. The property runs the re-admission bench's cluster (4
nodes, SOCKET_RO, 100 µs links, ``min_quorum=2``) over every victim,
crash instants in 0.5 ms steps to 7.5 ms of the ~31 ms run, and both
diversity and rendezvous modes: every crash must end in one
re-admission with every node exiting 0. Once past its frontier, the
rejoined node is an ordinary follower, so the §4 lazy cross-check
covers its calls again.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DegradationPolicy, Level, ReMonConfig
from repro.dist import DistConfig, DistMvee
from repro.dist.wire import T_CALL_DIGEST
from repro.faults import FaultInjector, FaultPlan, NodeRejoinFault
from repro.lifecycle import LifecycleConfig
from repro.workloads.synthetic import CategoryMix, SyntheticWorkload, build_program

RATE = 900_000.0
NODES = 4
#: A run takes ~70k steps; a rejoiner that waits forever fails fast.
MAX_STEPS = 2_000_000


def _cluster(victim, at_ns, heterogeneous=False, shard_rendezvous=True):
    workload = SyntheticWorkload(
        name="lifecycle", native_ms=2.0, threads=4,
        mix=CategoryMix({"base": RATE * 0.35, "file_ro": RATE * 0.2,
                         "sock_ro": RATE * 0.25, "mgmt": RATE * 0.2}),
    )
    config = ReMonConfig(
        replicas=NODES, level=Level.SOCKET_RO,
        degradation=DegradationPolicy(min_quorum=2),
        dist=DistConfig(link_latency_ns=100_000,
                        shard_rendezvous=shard_rendezvous,
                        rendezvous_shards=2, heterogeneous=heterogeneous,
                        lifecycle=LifecycleConfig(seed=11)),
    )
    mvee = DistMvee(build_program(workload), config)
    mvee.attach_faults(FaultInjector(FaultPlan(
        faults=[NodeRejoinFault(replica=victim, at_ns=at_ns)]
    )))
    return mvee


@settings(max_examples=4, deadline=None)
@given(
    victim=st.integers(0, NODES - 1),
    at_ns=st.integers(1, 15).map(lambda step: step * 500_000),
    heterogeneous=st.booleans(),
    shard_rendezvous=st.booleans(),
)
# The first three replayed the window in an order other than the one
# the cluster released it in, and a replayed close freed another fd than
# recorded: the plan covered only the window's snapshot (the first), and
# live calls overtook older replayed artifacts (the next two). In the
# last, a worker's exit(2) kept its turn, so its siblings waited forever.
@example(victim=1, at_ns=2_000_000, heterogeneous=False, shard_rendezvous=True)
@example(victim=2, at_ns=6_000_000, heterogeneous=False, shard_rendezvous=True)
@example(victim=3, at_ns=6_000_000, heterogeneous=False, shard_rendezvous=True)
@example(victim=1, at_ns=20_000_000, heterogeneous=False, shard_rendezvous=True)
def test_every_crash_instant_is_readmitted(
    victim, at_ns, heterogeneous, shard_rendezvous
):
    mvee = _cluster(victim, at_ns, heterogeneous, shard_rendezvous)
    result = mvee.run(max_steps=MAX_STEPS)
    assert not result.diverged, result.divergence
    assert [node.process.exit_code for node in mvee.nodes] == [0] * NODES
    assert result.stats["lifecycle_rejoins_completed"] == 1
    assert mvee.epoch == 2


def test_rejoined_follower_ships_its_digests_again():
    """Past its frontier a rejoiner ships a call digest for every
    local and replicated call, like any follower. The calls it ships
    none for are therefore, on each thread, a prefix: the ones it
    replayed before the frontier. A record that had already arrived
    when a post-frontier call asked for it once was adopted silently,
    outside the cross-check."""
    victim, witness = 3, 2
    mvee = _cluster(victim, 2_000_000)
    crashed = mvee.nodes[victim].process
    shipped = {victim: set(), witness: set()}
    send = mvee.send_frame

    def spy(src, dst, frame, *args, **kwargs):
        if (
            frame.type == T_CALL_DIGEST
            and src in shipped
            and mvee.nodes[src].process is not crashed
        ):
            shipped[src].add((frame.vtid, frame.seq))
        return send(src, dst, frame, *args, **kwargs)

    mvee.send_frame = spy
    result = mvee.run(max_steps=MAX_STEPS)
    assert not result.diverged, result.divergence
    assert result.stats["lifecycle_rejoins_completed"] == 1
    assert mvee.leader_index not in shipped
    # Same program, same lanes: the witness (a follower throughout)
    # shipped a digest for every call the rejoiner could have.
    assert shipped[victim] and shipped[victim] <= shipped[witness]
    for vtid in {vtid for vtid, _ in shipped[witness]}:
        first = min(
            (seq for v, seq in shipped[victim] if v == vtid),
            default=float("inf"),
        )
        skipped = {seq for v, seq in shipped[witness] - shipped[victim]
                   if v == vtid}
        assert all(seq < first for seq in skipped), (vtid, first, skipped)


def test_replacement_that_replays_to_a_clean_exit_counts_as_readmitted():
    """A crash this late leaves the replacement nothing to miss: it
    replays the window to its own exit 0 without reaching a frontier.
    Its rejoin still completed, but no epoch opens for a node that is
    leaving."""
    mvee = _cluster(victim=0, at_ns=21_500_000)
    result = mvee.run(max_steps=MAX_STEPS)
    assert not result.diverged, result.divergence
    assert [node.process.exit_code for node in mvee.nodes] == [0] * NODES
    stats = result.stats
    assert stats["lifecycle_rejoins_started"] == 1
    assert stats["lifecycle_rejoins_completed"] == 1
    assert stats["lifecycle_rejoin_ns_total"] > 0
    assert mvee.obs.registry.histograms["lifecycle_rejoin_ns"].count == 1
    assert mvee.epoch == 1
    assert mvee.lifecycle.attribution()["rejoins_pending"] == []
