"""Per-shard monitor state and epoch-based ownership handoff (PR-5).

Three load-bearing guarantees:

* **Happy path is free** — with no membership change the epoch stays 0,
  no handoff stat key even exists, and repeated runs are bit-identical
  (the refactor from one God-object monitor to per-owner shards must be
  unobservable until someone dies).
* **Blast radius** — crashing a shard owner loses exactly that owner's
  open rounds; every lost round belonged to the dead owner under the
  pre-crash assignment, and resubmissions re-collect only those.
* **Stale frames die at the door** — a frame sent under epoch N that
  arrives after the epoch-N+1 handoff is dropped by the transport's
  epoch gate, never merged into a fresh shard's state.
"""

from __future__ import annotations

import pytest

from repro.core import DegradationPolicy, Level, ReMonConfig
from repro.dist import DistConfig, DistMvee
from repro.dist.shard import MonitorShard, RendezvousState, shard_owner
from repro.dist.wire import (
    Frame,
    T_CALL_DIGEST,
    T_RENDEZVOUS_REQ,
    T_ROUND_RESUBMIT,
    digest_payload,
    handoff_payload,
    owners_payload,
    parse_handoff_payload,
    parse_owners_payload,
)
from repro.errors import WireError
from repro.faults import (
    CrashFault,
    FaultInjector,
    FaultPlan,
    ShardOwnerCrashFault,
)
from repro.workloads.synthetic import CategoryMix, SyntheticWorkload, build_program

MAX_STEPS = 200_000_000

RATE = 900_000.0


def _workload(threads=4, native_ms=0.5):
    return SyntheticWorkload(
        name="handoff",
        native_ms=native_ms,
        mix=CategoryMix(
            {"base": RATE * 0.55, "file_ro": RATE * 0.25, "mgmt": RATE * 0.2}
        ),
        threads=threads,
    )


def run_sharded(plan=None, nodes=4, shards=2, threads=4, latency_ns=100_000):
    config = ReMonConfig(
        replicas=nodes, level=Level.NO_IPMON,
        degradation=DegradationPolicy(min_quorum=2),
        dist=DistConfig(link_latency_ns=latency_ns, shard_rendezvous=True,
                        rendezvous_shards=shards),
    )
    mvee = DistMvee(build_program(_workload(threads=threads)), config)
    if plan is not None:
        mvee.attach_faults(FaultInjector(plan))
    result = mvee.run(max_steps=MAX_STEPS)
    return mvee, result


class TestHappyPathUnchanged:
    def test_no_membership_change_keeps_epoch_zero_and_no_handoff_stats(self):
        mvee, result = run_sharded()
        assert not result.diverged, result.divergence
        assert mvee.epoch == 0
        # The handoff machinery must be invisible until a node dies: no
        # stat key for epochs, handoffs or stale drops may exist.
        leaked = [key for key in result.stats
                  if "handoff" in key or "epoch" in key or "stale" in key]
        assert leaked == []
        assert mvee.monitor.lost_keys == set()
        assert mvee.monitor.resubmitted_keys == set()

    def test_repeated_runs_are_bit_identical(self):
        _mvee_a, a = run_sharded()
        _mvee_b, b = run_sharded()
        assert a.wall_time_ns == b.wall_time_ns
        assert a.stats == b.stats
        assert list(a.exit_codes) == list(b.exit_codes)

    def test_per_owner_shards_live_on_their_nodes(self):
        mvee, result = run_sharded()
        assert not result.diverged
        # Both configured shard owners served rounds during the run
        # (shard_owners() itself shrinks once replicas exit cleanly).
        owners = set(mvee.monitor.rounds_by_owner)
        assert owners == {0, 1}
        # Non-owners host no shard state at all.
        assert set(mvee.monitor._shards) == owners
        for owner in owners:
            shard = mvee.monitor.shard(owner)
            assert isinstance(shard, MonitorShard)
            assert shard.owner == owner
            assert shard.rounds > 0
            assert not shard.dead


class TestOwnerCrashBlastRadius:
    def test_owner_crash_loses_only_that_owners_rounds(self):
        owners_before = (0, 1)  # 4 live nodes, cap 2: lowest indices
        plan = FaultPlan([CrashFault(replica=1, at_ns=2_000_000)])
        mvee, result = run_sharded(plan=plan)
        assert not result.diverged, result.divergence
        assert result.quarantined_replicas == [1]
        assert mvee.epoch == 1
        # Every lost round was hosted by the dead owner pre-crash...
        assert mvee.monitor.lost_keys, "crash landed after all rounds closed"
        for vtid, seq in mvee.monitor.lost_keys:
            assert shard_owner(vtid, seq, owners_before) == 1
        # ...and resubmission re-collected exactly those rounds.
        assert mvee.monitor.resubmitted_keys <= mvee.monitor.lost_keys
        stats = result.stats
        assert stats["dist_epoch"] == 1
        assert stats["dist_handoff_lost_rounds"] == len(mvee.monitor.lost_keys)
        assert stats["dist_round_resubmits"] > 0
        # Recovery work is billed: dist_handoff_ns per rebuilt round.
        costs = mvee.nodes[0].kernel.config.costs
        rebuilt = len(mvee.monitor.resubmitted_keys)
        assert stats["dist_handoff_cost_ns"] >= rebuilt * costs.dist_handoff_ns

    def test_shard_owner_crash_fault_targets_live_owner(self):
        plan = FaultPlan([ShardOwnerCrashFault(at_ns=2_000_000)])
        mvee, result = run_sharded(plan=plan)
        assert not result.diverged, result.divergence
        # Victim resolved at fire time: the first non-leader owner.
        assert result.quarantined_replicas == [1]
        assert result.stats["dist_epoch"] == 1
        assert mvee.nodes[0].kernel.fault_injector.stats["crashes"] == 1

    def test_follower_crash_bumps_epoch_but_moves_no_state(self):
        plan = FaultPlan([CrashFault(replica=3, at_ns=2_000_000)])
        mvee, result = run_sharded(plan=plan)
        assert not result.diverged, result.divergence
        assert mvee.epoch == 1
        assert result.stats["dist_handoff_cost_ns"] == 0
        assert result.stats["dist_handoff_lost_rounds"] == 0
        assert mvee.monitor.lost_keys == set()

    def test_owner_crash_is_deterministic(self):
        plan = FaultPlan([CrashFault(replica=1, at_ns=2_000_000)])
        _a_mvee, a = run_sharded(plan=plan)
        plan = FaultPlan([CrashFault(replica=1, at_ns=2_000_000)])
        _b_mvee, b = run_sharded(plan=plan)
        assert a.wall_time_ns == b.wall_time_ns
        assert a.stats == b.stats


@pytest.mark.parametrize("latency_ns", [50_000, 200_000])
def test_recovery_cost_depends_on_who_dies(latency_ns):
    """At every link latency: killing a shard owner (the leader is one)
    costs billed handoff work, killing a non-owner follower bumps the
    epoch but is free, and no membership change costs nothing."""

    def run(fault):
        plan = FaultPlan([fault]) if fault is not None else None
        mvee, result = run_sharded(plan=plan, latency_ns=latency_ns)
        assert not result.diverged, result.divergence
        return mvee, result.stats

    mvee, free = run(None)
    assert mvee.epoch == 0 and "dist_handoff_cost_ns" not in free
    assert free["replicas_quarantined"] == 0

    mvee, owner = run(ShardOwnerCrashFault(at_ns=2_000_000))
    assert mvee.epoch == 1 and owner["dist_handoff_cost_ns"] > 0
    assert owner["dist_handoff_lost_rounds"] > 0
    assert owner["dist_round_resubmits"] >= owner["dist_handoff_lost_rounds"]

    mvee, follower = run(CrashFault(replica=3, at_ns=2_000_000))
    assert mvee.epoch == 1 and follower["dist_handoff_cost_ns"] == 0
    assert follower["dist_handoff_lost_rounds"] == 0
    assert follower["dist_round_resubmits"] == 0

    _mvee, leader = run(CrashFault(replica=0, at_ns=2_000_000))
    assert leader["master_promotions"] == 1
    assert leader["dist_handoff_cost_ns"] > 0
    assert (leader["dist_handoff_rounds"]
            + leader["dist_handoff_lost_rounds"]) > 0


class TestStaleEpochGate:
    def _fresh_mvee(self):
        config = ReMonConfig(
            replicas=4, level=Level.NO_IPMON,
            degradation=DegradationPolicy(min_quorum=2),
            dist=DistConfig(shard_rendezvous=True, rendezvous_shards=2),
        )
        return DistMvee(build_program(_workload(threads=1)), config)

    def test_old_epoch_frame_to_wrong_owner_is_dropped(self):
        mvee = self._fresh_mvee()
        vtid, seq = 0, 7
        owner = mvee.shard_owner(vtid, seq)
        stranger = next(i for i in range(4) if i != owner)
        mvee.epoch = 1  # a handoff has happened since the frame was sent
        frame = Frame(T_RENDEZVOUS_REQ, 2 if stranger != 2 else 3, vtid, seq,
                      aux=0, payload=digest_payload(0xAB, "getpid"))
        assert mvee._stale_frame(stranger, frame) is True
        assert mvee.monitor.handoff_stats["stale_epoch_rejects"] == 1
        # The same frame addressed to the round's current owner passes:
        # a same-owner race with the bump is a valid resubmission.
        assert mvee._stale_frame(owner, frame) is False

    def test_current_epoch_frame_always_passes(self):
        mvee = self._fresh_mvee()
        mvee.epoch = 2
        frame = Frame(T_ROUND_RESUBMIT, 1, 0, 7, aux=2,
                      payload=digest_payload(0xAB, "getpid"))
        assert mvee._stale_frame(3, frame) is False

    def test_digest_content_is_epoch_independent(self):
        mvee = self._fresh_mvee()
        mvee.epoch = 5
        frame = Frame(T_CALL_DIGEST, 1, 0, 7, aux=0,
                      payload=digest_payload(0xAB, "getpid"))
        assert mvee._stale_frame(0, frame) is False

    def test_quarantined_senders_frames_never_count(self):
        mvee = self._fresh_mvee()
        mvee.nodes[1].process.quarantined = True
        frame = Frame(T_CALL_DIGEST, 1, 0, 7, aux=0,
                      payload=digest_payload(0xAB, "getpid"))
        assert mvee._stale_frame(0, frame) is True
        assert mvee.monitor.handoff_stats["stale_epoch_rejects"] == 1


class TestHandoffWireFormat:
    def test_owners_payload_round_trip(self):
        for owners in ((0,), (0, 2), (3, 1, 0), tuple(range(12))):
            assert parse_owners_payload(owners_payload(owners)) == owners

    def test_owners_payload_rejects_truncation(self):
        data = owners_payload((0, 1, 2))
        with pytest.raises(WireError):
            parse_owners_payload(data[:-1])

    def test_handoff_payload_round_trip(self):
        digests = {0: ("read", 0x1234), 2: ("read", 0x1234),
                   3: ("read", 0xFFFF_FFFF_FFFF_FFFF)}
        assert parse_handoff_payload(handoff_payload(digests)) == digests

    def test_handoff_payload_rejects_trailing_garbage(self):
        data = handoff_payload({0: ("getpid", 1)})
        with pytest.raises(WireError):
            parse_handoff_payload(data + b"x")

    def test_rendezvous_state_defaults(self):
        state = RendezvousState()
        assert state.digests == {}
        assert state.verdict is None
        assert not state.completing
        shard = MonitorShard(owner=2)
        assert shard.open_rounds() == []
        assert "owner=2" in repr(shard)
