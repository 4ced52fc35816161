"""Node-crash and stall faults across the cluster (PR-1 fault framework
driving PR-2 distributed degradation)."""

from __future__ import annotations

from repro.core import DegradationPolicy, Level, ReMonConfig
from repro.dist import DistConfig, DistMvee, run_distributed
from repro.dist import node as dist_node
from repro.faults import CrashFault, FaultInjector, FaultPlan, StallFault
from repro.guest.program import Compute, Program
from repro.kernel import constants as C

MAX_STEPS = 120_000_000


def worker_program(calls=50, exit_code=7):
    def main(ctx):
        libc = ctx.libc
        for _ in range(calls):
            yield ctx.sys.getpid()
        out = yield from libc.open("/tmp/survived.txt", C.O_WRONLY | C.O_CREAT)
        yield from libc.write(out, b"survived")
        yield from libc.close(out)
        return exit_code

    return Program("dist-worker", main)


def run_cluster(program, plan=None, degradation=None, replicas=3,
                dist_kwargs=None, level=Level.NONSOCKET_RW, codec=None):
    config = ReMonConfig(
        replicas=replicas, level=level, degradation=degradation,
        dist=DistConfig(**(dist_kwargs or {})),
    )
    mvee = DistMvee(program, config)
    mvee.transport.codec = codec
    if plan is not None:
        mvee.attach_faults(FaultInjector(plan))
    result = mvee.run(max_steps=MAX_STEPS)
    return mvee, result


class TestFollowerCrash:
    def test_follower_crash_quarantined_and_survivors_finish(self):
        plan = FaultPlan([CrashFault(replica=2, after_syscalls=20)])
        mvee, result = run_cluster(
            worker_program(), plan=plan,
            degradation=DegradationPolicy(min_quorum=2),
        )
        assert not result.diverged, result.divergence
        assert result.quarantined_replicas == [2]
        assert result.stats["replicas_quarantined"] == 1
        assert result.stats["master_promotions"] == 0
        assert result.exit_codes[0] == 7 and result.exit_codes[1] == 7
        assert result.exit_codes[2] >= 128
        assert result.fault_events[0].kind == "crash"
        assert result.fault_events[0].detected_by == "dist-heartbeat"
        # Survivors wrote their output on their own nodes.
        for index in (0, 1):
            vfs_node, err = mvee.nodes[index].kernel.fs.resolve(
                "/tmp/survived.txt"
            )
            assert err == 0 and bytes(vfs_node.data) == b"survived"

    def test_crash_without_policy_fail_stops(self):
        plan = FaultPlan([CrashFault(replica=1, after_syscalls=20)])
        _mvee, result = run_cluster(worker_program(), plan=plan)
        assert result.diverged
        assert result.divergence.kind == "crash"
        assert result.stats["replicas_quarantined"] == 0

    def test_quorum_loss_fail_stops(self):
        plan = FaultPlan([CrashFault(replica=1, after_syscalls=20)])
        _mvee, result = run_cluster(
            worker_program(), plan=plan,
            degradation=DegradationPolicy(min_quorum=3),
        )
        assert result.diverged
        assert "quorum lost" in result.divergence.detail


class TestLeaderCrash:
    def test_leader_crash_promotes_and_survivors_finish(self):
        plan = FaultPlan([CrashFault(replica=0, after_syscalls=20)])
        mvee, result = run_cluster(
            worker_program(), plan=plan,
            degradation=DegradationPolicy(min_quorum=2),
        )
        assert not result.diverged, result.divergence
        assert result.quarantined_replicas == [0]
        assert result.stats["master_promotions"] == 1
        assert mvee.leader_index == 1
        assert result.exit_codes[1] == 7 and result.exit_codes[2] == 7
        # The run's wall time reflects the *promoted* leader's exit.
        assert result.wall_time_ns > 0

    def test_leader_crash_mid_replication_no_deadlock(self):
        """Crash the leader while followers depend on it for replicated
        clock reads: promotion must unblock them."""

        def main(ctx):
            libc = ctx.libc
            for _ in range(60):
                _now = yield from libc.clock_gettime()
            return 3

        plan = FaultPlan([CrashFault(replica=0, after_syscalls=25)])
        mvee, result = run_cluster(
            Program("clocky", main), plan=plan,
            degradation=DegradationPolicy(min_quorum=2),
        )
        assert not result.diverged, result.divergence
        assert result.stats["master_promotions"] == 1
        assert result.exit_codes[1] == 3 and result.exit_codes[2] == 3
        # The promoted leader executed replicated calls itself after
        # the failover.
        assert result.stats["dist_promoted_executions"] > 0

    def test_promoted_leader_adopts_records_it_already_holds(self):
        """A slow follower promoted after the leader crashed holds
        records the dead leader shipped but it has not consumed yet. It
        adopts them instead of executing those calls again (which would
        fork the clock reads and the file name built from them) and
        re-broadcasts them to the other survivor."""

        def main(ctx):
            libc = ctx.libc
            stamps = []
            for _ in range(50):
                stamps.append((yield from libc.clock_gettime()))
                yield Compute(100_000)
            fd = yield from libc.open(
                "/tmp/t%d" % sum(stamps), C.O_WRONLY | C.O_CREAT
            )
            yield from libc.close(fd)
            return 3

        mvee = DistMvee(Program("failover", main), ReMonConfig(
            replicas=3, level=Level.NONSOCKET_RW,
            degradation=DegradationPolicy(min_quorum=2), dist=DistConfig(),
        ))
        mvee.nodes[1].process.compute_factor = 5.0
        mvee.attach_faults(FaultInjector(
            FaultPlan([CrashFault(replica=0, at_ns=2_000_000)])
        ))
        result = mvee.run(max_steps=MAX_STEPS)
        assert not result.diverged, result.divergence
        assert list(result.exit_codes) == [137, 3, 3]
        assert mvee.leader_index == 1
        assert result.stats["dist_failover_rebroadcasts"] == 13
        # The rebroadcast landed on node 2, which already held all 13.
        assert [node.mirror.duplicates_dropped for node in mvee.nodes] == [
            0, 0, 13,
        ]

    def test_leader_crash_without_promotion_fail_stops(self):
        plan = FaultPlan([CrashFault(replica=0, after_syscalls=20)])
        _mvee, result = run_cluster(
            worker_program(), plan=plan,
            degradation=DegradationPolicy(min_quorum=2, promote_master=False),
        )
        assert result.diverged


class TestFastPathFaults:
    def test_leader_crash_promotes_with_fast_path_on(self):
        """Sharded rendezvous + coded mirrors must not break failover:
        the crashed node leaves the owner set and survivors finish."""
        plan = FaultPlan([CrashFault(replica=0, after_syscalls=20)])
        mvee, result = run_cluster(
            worker_program(), plan=plan,
            degradation=DegradationPolicy(min_quorum=2),
            dist_kwargs={"shard_rendezvous": True}, codec="dict",
        )
        assert not result.diverged, result.divergence
        assert result.quarantined_replicas == [0]
        assert result.stats["master_promotions"] == 1
        assert mvee.leader_index == 1
        assert result.exit_codes[1] == 7 and result.exit_codes[2] == 7
        assert result.stats["dist_wire_errors"] == 0

    def test_follower_crash_quarantined_with_fast_path_on(self):
        plan = FaultPlan([CrashFault(replica=2, after_syscalls=20)])
        _mvee, result = run_cluster(
            worker_program(), plan=plan,
            degradation=DegradationPolicy(min_quorum=2),
            dist_kwargs={"shard_rendezvous": True}, codec="rle",
        )
        assert not result.diverged, result.divergence
        assert result.quarantined_replicas == [2]
        assert result.exit_codes[0] == 7 and result.exit_codes[1] == 7


class TestStalls:
    def test_long_stall_is_blamed_and_quarantined(self, monkeypatch):
        monkeypatch.setattr(dist_node, "STALL_TIMEOUT_NS", 10_000_000)
        plan = FaultPlan([StallFault(replica=2, duration_ns=400_000_000,
                                     after_syscalls=20)])
        _mvee, result = run_cluster(
            worker_program(), plan=plan,
            degradation=DegradationPolicy(min_quorum=2),
        )
        assert not result.diverged, result.divergence
        assert result.quarantined_replicas == [2]
        assert result.stats["dist_stall_reports"] >= 1
        assert result.fault_events[0].kind == "stall"
        assert result.fault_events[0].detected_by == "dist-watchdog"

    def test_short_stall_is_absorbed(self, monkeypatch):
        monkeypatch.setattr(dist_node, "STALL_TIMEOUT_NS", 50_000_000)
        plan = FaultPlan([StallFault(replica=1, duration_ns=1_000_000,
                                     after_syscalls=20)])
        _mvee, result = run_cluster(
            worker_program(), plan=plan,
            degradation=DegradationPolicy(min_quorum=2),
        )
        assert not result.diverged, result.divergence
        assert result.quarantined_replicas == []
        assert result.exit_codes == [7, 7, 7]


class TestFaultAccounting:
    def test_injected_faults_counted_in_stats(self):
        plan = FaultPlan([CrashFault(replica=2, after_syscalls=20)])
        _mvee, result = run_cluster(
            worker_program(), plan=plan,
            degradation=DegradationPolicy(min_quorum=2),
        )
        assert result.stats["faults_injected"] == 1

    def test_fault_free_run_counts_zero(self):
        _mvee, result = run_cluster(
            worker_program(), plan=FaultPlan([]),
            degradation=DegradationPolicy(min_quorum=2),
        )
        assert result.stats["faults_injected"] == 0
        assert not result.diverged
