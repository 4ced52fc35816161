"""Replay-based re-admission, end to end (DESIGN.md §12).

The acceptance story: a seeded run crashes one node; the gossip layer
detects it; the slot is re-imaged; the replacement fast-replays the
recorded window (RB mirror records + rendezvous verdicts), is
re-admitted under a bumped ownership epoch, and the run finishes with
every exit code 0 — while runs with the lifecycle disabled stay
bit-identical to a run that never heard of the subsystem.
"""

from __future__ import annotations

import pytest

from repro.core import DegradationPolicy, Level, ReMonConfig
from repro.dist import DistConfig, DistMvee
from repro.errors import FaultConfigError
from repro.faults import CrashFault, FaultInjector, FaultPlan, NodeRejoinFault
from repro.lifecycle import LifecycleConfig
from repro.lifecycle import manager as lifecycle_manager
from repro.workloads.synthetic import CategoryMix, SyntheticWorkload, build_program

MAX_STEPS = 400_000_000
RATE = 900_000.0
CRASH_AT = 1_000_000


def _workload(threads=2, native_ms=1.0):
    # sock_ro keeps the replicated lane busy so the replay window holds
    # RB mirror records, not just rendezvous verdicts.
    return SyntheticWorkload(
        name="lct",
        native_ms=native_ms,
        mix=CategoryMix(
            {"base": RATE * 0.35, "file_ro": RATE * 0.2,
             "sock_ro": RATE * 0.25, "mgmt": RATE * 0.2}
        ),
        threads=threads,
    )


def run_lifecycle(plan=None, lifecycle="default", nodes=4, shards=2):
    if lifecycle == "default":
        lifecycle = LifecycleConfig(seed=7)
    config = ReMonConfig(
        replicas=nodes,
        level=Level.SOCKET_RO,
        degradation=DegradationPolicy(min_quorum=2),
        dist=DistConfig(
            link_latency_ns=100_000,
            shard_rendezvous=True,
            rendezvous_shards=shards,
            lifecycle=lifecycle,
        ),
    )
    mvee = DistMvee(build_program(_workload()), config)
    if plan is not None:
        mvee.attach_faults(FaultInjector(plan))
    result = mvee.run(max_steps=MAX_STEPS)
    return mvee, result


def _rejoin_plan(replica=3, at_ns=CRASH_AT):
    return FaultPlan(faults=[NodeRejoinFault(replica=replica, at_ns=at_ns)])


class TestRejoin:
    def test_follower_crash_replays_and_rejoins(self):
        mvee, result = run_lifecycle(_rejoin_plan(replica=3))
        assert not result.diverged, result.divergence
        stats = result.stats
        assert stats["lifecycle_rejoins_scheduled"] == 1
        assert stats["lifecycle_rejoins_completed"] == 1
        assert stats["lifecycle_rejoins_refused"] == 0
        # The replacement adopted recorded artifacts on every lane.
        assert stats["lifecycle_replayed_records"] > 0
        assert stats["lifecycle_replayed_verdicts"] > 0
        assert stats["lifecycle_replayed_local"] > 0
        # Quarantine bumped the epoch once, re-admission once more.
        assert mvee.epoch == 2
        assert stats["lifecycle_rejoin_ns_total"] > 0
        # The replacement finished the program: every slot exits 0.
        assert [node.process.exit_code for node in mvee.nodes] == [0] * 4

    def test_shard_owner_crash_rejoins(self):
        mvee, result = run_lifecycle(_rejoin_plan(replica=1))
        assert not result.diverged, result.divergence
        assert result.stats["lifecycle_rejoins_completed"] == 1
        assert mvee.epoch == 2
        assert [node.process.exit_code for node in mvee.nodes] == [0] * 4

    def test_leader_crash_rejoins_behind_promoted_leader(self):
        mvee, result = run_lifecycle(_rejoin_plan(replica=0))
        assert not result.diverged, result.divergence
        assert result.stats["lifecycle_rejoins_completed"] == 1
        assert result.stats["master_promotions"] == 1
        assert mvee.leader_index != 0
        assert [node.process.exit_code for node in mvee.nodes] == [0] * 4

    def test_gossip_detects_crash_before_timeout(self):
        mvee, result = run_lifecycle(_rejoin_plan(replica=3))
        assert result.stats["lifecycle_gossip_detections"] == 1
        assert result.stats["lifecycle_suspicions"] > 0
        assert result.stats["lifecycle_false_suspicions"] == 0

    def test_plain_crash_rejoins_when_config_allows(self):
        mvee, result = run_lifecycle(
            FaultPlan(faults=[CrashFault(replica=3, at_ns=CRASH_AT)])
        )
        assert not result.diverged, result.divergence
        assert result.stats["lifecycle_rejoins_completed"] == 1

    def test_window_overflow_refuses_rejoin(self, monkeypatch):
        monkeypatch.setattr(lifecycle_manager, "REPLAY_WINDOW", 8)
        mvee, result = run_lifecycle(_rejoin_plan(replica=3))
        assert not result.diverged, result.divergence
        assert result.stats["lifecycle_rejoins_refused"] == 1
        assert result.stats["lifecycle_rejoins_completed"] == 0
        assert result.stats["lifecycle_window_overflowed"] == 1


class TestBitIdentity:
    def test_same_seed_same_stats_and_wire_bytes(self):
        runs = [run_lifecycle(_rejoin_plan(replica=3)) for _ in range(2)]
        (_, a), (_, b) = runs
        assert a.stats == b.stats
        assert a.wall_time_ns == b.wall_time_ns
        assert a.stats["dist_bytes_lifecycle"] > 0
        assert a.stats["dist_frames_lifecycle"] > 0

    def test_disabled_lifecycle_is_invisible(self):
        """A lifecycle=None run takes zero lifecycle frames and stats."""
        (_, off) = run_lifecycle(plan=None, lifecycle=None)
        assert not any(key.startswith("lifecycle") for key in off.stats)
        assert "dist_bytes_lifecycle" not in off.stats

    def test_enabled_faultless_run_completes_at_epoch_zero(self):
        mvee, result = run_lifecycle(plan=None)
        assert not result.diverged, result.divergence
        assert mvee.epoch == 0
        assert result.stats["lifecycle_rejoins_scheduled"] == 0
        assert result.stats["lifecycle_beats_sent"] > 0


class TestNodeRejoinFault:
    def test_validates_at_ns(self):
        with pytest.raises(FaultConfigError):
            NodeRejoinFault(replica=1, at_ns=0)

    def test_counts_as_crash(self):
        mvee, result = run_lifecycle(_rejoin_plan(replica=3))
        assert result.stats["faults_injected"] == 1
