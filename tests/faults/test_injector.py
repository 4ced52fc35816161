"""The fault injector itself: plans, triggers, determinism."""

import pytest

from repro.core import DegradationPolicy, Level, ReMon, ReMonConfig
from repro.errors import FaultConfigError
from repro.dist import DistConfig, DistMvee
from repro.faults import (
    CrashFault,
    FaultInjector,
    FaultPlan,
    LinkDegradeFault,
    RBCorruptionFault,
    ShardOwnerCrashFault,
    StallFault,
    SyscallErrorFault,
    TokenLossFault,
)
from repro.guest.program import Compute, Program
from repro.kernel import Kernel
from repro.kernel import constants as C
from repro.kernel import errno_codes as E


def run_mvee(program, plan=None, replicas=2, level=Level.NONSOCKET_RW,
             max_steps=40_000_000, **cfg):
    kernel = Kernel()
    injector = FaultInjector(plan).install(kernel) if plan is not None else None
    mvee = ReMon(kernel, program, ReMonConfig(replicas=replicas, level=level, **cfg))
    result = mvee.run(max_steps=max_steps)
    return kernel, mvee, result, injector


def chatty_program(calls=60, compute_ns=0, exit_code=7):
    """Unmonitored-call chatter, then one externally visible write."""

    def main(ctx):
        libc = ctx.libc
        for _ in range(calls):
            _pid = yield ctx.sys.getpid()
            if compute_ns:
                yield Compute(compute_ns)
        out = yield from libc.open("/tmp/out.txt", C.O_WRONLY | C.O_CREAT)
        yield from libc.write(out, b"survived")
        yield from libc.close(out)
        return exit_code

    return Program("chatty", main)


class TestFaultPlanValidation:
    def test_crash_fault_needs_exactly_one_trigger(self):
        with pytest.raises(FaultConfigError):
            CrashFault(replica=1)
        with pytest.raises(FaultConfigError):
            CrashFault(replica=1, at_ns=10, after_syscalls=5)

    def test_stall_fault_needs_exactly_one_trigger(self):
        with pytest.raises(FaultConfigError):
            StallFault(replica=1, duration_ns=100)

    def test_unknown_fault_type_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultInjector(FaultPlan(faults=["not-a-fault"]))

    def test_random_crashes_needs_two_replicas(self):
        with pytest.raises(FaultConfigError):
            FaultPlan.random_crashes(1, replicas=1, duration_ns=10**6, crash_rate_hz=100)


class TestRandomPlans:
    def test_same_seed_same_plan(self):
        a = FaultPlan.random_crashes(42, replicas=4, duration_ns=10**7, crash_rate_hz=500)
        b = FaultPlan.random_crashes(42, replicas=4, duration_ns=10**7, crash_rate_hz=500)
        assert [(f.replica, f.at_ns) for f in a] == [(f.replica, f.at_ns) for f in b]
        assert len(a) == 5  # 500 Hz over 10 ms

    def test_different_seed_different_plan(self):
        a = FaultPlan.random_crashes(1, replicas=4, duration_ns=10**7, crash_rate_hz=500)
        b = FaultPlan.random_crashes(2, replicas=4, duration_ns=10**7, crash_rate_hz=500)
        assert [(f.replica, f.at_ns) for f in a] != [(f.replica, f.at_ns) for f in b]

    def test_include_master_false_spares_replica_zero(self):
        plan = FaultPlan.random_crashes(
            7, replicas=3, duration_ns=10**8, crash_rate_hz=200, include_master=False
        )
        assert len(plan) == 20
        assert all(f.replica >= 1 for f in plan)


class TestDeterminism:
    def _one_run(self):
        plan = FaultPlan.random_crashes(
            99, replicas=4, duration_ns=3_000_000, crash_rate_hz=667
        )
        return run_mvee(
            chatty_program(calls=80, compute_ns=50_000),
            plan=plan,
            replicas=4,
            degradation=DegradationPolicy(min_quorum=2),
        )

    def test_same_seed_twice_is_bit_identical(self):
        _k1, m1, r1, i1 = self._one_run()
        _k2, m2, r2, i2 = self._one_run()
        assert r1.wall_time_ns == r2.wall_time_ns
        assert r1.exit_codes == r2.exit_codes
        assert r1.quarantined_replicas == r2.quarantined_replicas
        assert r1.stats == r2.stats
        assert i1.stats == i2.stats
        assert (r1.divergence is None) == (r2.divergence is None)


class TestSyscallErrors:
    def test_transient_eio_on_master_is_replicated_consistently(self):
        """A forced -EIO from the master's write reaches every replica
        through the RB, so the group agrees and nothing diverges."""

        def main(ctx):
            libc = ctx.libc
            out = yield from libc.open("/tmp/eio.txt", C.O_WRONLY | C.O_CREAT)
            first = yield from libc.write(out, b"first")
            second = yield from libc.write(out, b"second")
            yield from libc.close(out)
            return 3 if (first == -E.EIO and second == 6) else 9

        plan = FaultPlan(faults=[SyscallErrorFault(replica=0, syscall="write", errno=E.EIO)])
        _k, _m, result, injector = run_mvee(Program("eio", main), plan=plan)
        assert not result.diverged, result.divergence
        assert result.exit_codes == [3, 3]
        assert injector.stats["errors"] == 1
        assert result.stats["faults_injected"] == 1

    def test_skip_first_lets_early_calls_through(self):
        def main(ctx):
            libc = ctx.libc
            out = yield from libc.open("/tmp/skip.txt", C.O_WRONLY | C.O_CREAT)
            rets = []
            for _ in range(3):
                ret = yield from libc.write(out, b"x")
                rets.append(ret)
            yield from libc.close(out)
            return 1 if rets == [1, -E.ENOMEM, 1] else 8

        plan = FaultPlan(
            faults=[
                SyscallErrorFault(
                    replica=0, syscall="write", errno=E.ENOMEM, skip_first=1
                )
            ]
        )
        _k, _m, result, _inj = run_mvee(Program("skip", main), plan=plan)
        assert not result.diverged, result.divergence
        assert result.exit_codes == [1, 1]


class TestTokenLoss:
    def test_lost_token_without_policy_fail_stops(self):
        """Classic ReMon: the master's restart fails verification and
        falls back to the monitor, where it waits for a lockstep quorum
        the slaves (who already consumed the record) never join — the
        stall watchdog fail-stops the group. Conservative, never wrong."""
        plan = FaultPlan(faults=[TokenLossFault(replica=0, count=1, skip_first=2)])
        _k, _m, result, injector = run_mvee(chatty_program(), plan=plan)
        assert result.diverged
        assert "lockstep stall" in result.divergence.detail
        assert injector.stats["tokens_lost"] == 1
        assert result.stats["broker_verification_failures"] >= 1
        assert result.stats["broker_tokens_reissued"] == 0

    def test_lost_token_with_policy_is_reissued(self):
        plan = FaultPlan(faults=[TokenLossFault(replica=0, count=1, skip_first=2)])
        _k, _m, result, injector = run_mvee(
            chatty_program(), plan=plan, degradation=DegradationPolicy()
        )
        assert not result.diverged, result.divergence
        assert result.exit_codes == [7, 7]
        assert injector.stats["tokens_lost"] == 1
        assert result.stats["broker_tokens_reissued"] >= 1
        assert result.stats["ipmon_token_reissues"] >= 1

    def test_reissue_disabled_by_policy_knob(self):
        """With reissue off, a lost token is unrecoverable for the
        in-flight call even in degraded mode: no new token is minted."""
        plan = FaultPlan(faults=[TokenLossFault(replica=0, count=1, skip_first=2)])
        _k, _m, result, _inj = run_mvee(
            chatty_program(),
            plan=plan,
            degradation=DegradationPolicy(reissue_lost_tokens=False),
        )
        assert result.diverged
        assert result.stats["broker_tokens_reissued"] == 0
        assert result.stats["broker_verification_failures"] >= 1


class TestStatsPlumbing:
    def test_degradation_stats_present_in_every_run(self):
        _k, _m, result, _inj = run_mvee(chatty_program())
        assert result.stats["faults_injected"] == 0
        assert result.stats["replicas_quarantined"] == 0
        assert result.stats["master_promotions"] == 0
        assert result.stats["rb_backoff_retries"] == 0

    def test_empty_plan_counts_nothing(self):
        _k, _m, result, injector = run_mvee(chatty_program(), plan=FaultPlan())
        assert injector.total_injected == 0
        assert result.stats["faults_injected"] == 0
        assert not result.diverged


class TestFaultsWithoutATarget:
    """A fault the front end has no target for counts as skipped and
    leaves the run alone."""

    @pytest.mark.parametrize("fault", [
        ShardOwnerCrashFault(at_ns=50_000),
        LinkDegradeFault(at_ns=50_000, src=0, dst=1, duration_ns=100_000,
                         loss_prob=1.0),
    ], ids=["shard-owner-crash", "link-degrade"])
    def test_single_host_remon_has_no_shards_or_links(self, fault):
        _k, _m, result, injector = run_mvee(
            chatty_program(compute_ns=10_000, exit_code=0),
            plan=FaultPlan([fault]), level=Level.NO_IPMON,
        )
        assert injector.stats["skipped"] == 1
        assert injector.total_injected == 0
        assert result.exit_codes == [0, 0] and not result.diverged

    def test_dist_mvee_has_no_in_process_rb(self):
        mvee = DistMvee(
            chatty_program(compute_ns=10_000, exit_code=0),
            ReMonConfig(replicas=2, level=Level.NONSOCKET_RW,
                        dist=DistConfig()),
        )
        injector = mvee.attach_faults(
            FaultInjector(FaultPlan([RBCorruptionFault(at_ns=50_000)]))
        )
        result = mvee.run(max_steps=40_000_000)
        assert injector.stats["skipped"] == 1
        assert injector.total_injected == 0
        assert result.exit_codes == [0, 0] and not result.diverged
