"""What graceful degradation buys under injected replica crashes: how
many successive crashes an N-replica ReMon absorbs, survival of seeded
random crash plans, and the cost of finishing at N-1 (DESIGN.md §7).
"""

from __future__ import annotations

import pytest

from repro.core import DegradationPolicy, Level, ReMon, ReMonConfig
from repro.faults import CrashFault, FaultInjector, FaultPlan
from repro.kernel import Kernel
from repro.workloads.synthetic import CategoryMix, SyntheticWorkload, build_program

RATE = 30_000.0
WORKLOAD = SyntheticWorkload(
    name="avail", native_ms=10.0,
    mix=CategoryMix({"base": RATE * 0.4, "file_ro": RATE * 0.4,
                     "file_rw": RATE * 0.2}),
)


def _run(replicas, plan, policy):
    kernel = Kernel()
    if plan is not None:
        FaultInjector(plan).install(kernel)
    mvee = ReMon(kernel, build_program(WORKLOAD),
                 ReMonConfig(replicas=replicas, level=Level.NONSOCKET_RW,
                             degradation=policy))
    return mvee.run(max_steps=400_000_000)


@pytest.mark.parametrize("replicas,crashes,survives", [
    (3, 0, True), (3, 1, True), (3, 2, False), (4, 2, True), (4, 3, False),
])
def test_replicas_absorb_crashes_down_to_quorum(replicas, crashes, survives):
    """Crash the highest-index replicas 1.5 ms apart: N replicas absorb
    N - min_quorum crashes, then fail-stop on the one that breaks
    quorum."""
    plan = FaultPlan(faults=[
        CrashFault(replica=replicas - 1 - i, at_ns=1_500_000 * (i + 1))
        for i in range(crashes)
    ])
    result = _run(replicas, plan, DegradationPolicy(min_quorum=2))
    assert result.diverged != survives, result.divergence
    if survives:
        assert result.stats["replicas_quarantined"] == crashes


@pytest.mark.parametrize("rate_hz", [100.0, 250.0, 500.0])
def test_policy_survives_random_crashes_fail_stop_does_not(rate_hz):
    """Seeded random crash plans over the run: the policy absorbs at
    least as many as classic fail-stop, and fail-stop dies on its first
    crash, so it never quarantines anyone."""
    seeds = range(3)
    plans = [FaultPlan.random_crashes(seed, replicas=4,
                                      duration_ns=WORKLOAD.native_ns(),
                                      crash_rate_hz=rate_hz)
             for seed in seeds]
    policy = [_run(4, plan, DegradationPolicy(min_quorum=2)) for plan in plans]
    classic = [_run(4, plan, None) for plan in plans]
    survived = sum(not r.diverged for r in policy)
    assert survived >= sum(not r.diverged for r in classic)
    assert all(r.stats["replicas_quarantined"] == 0 for r in classic)
    if rate_hz == 100.0:
        # At the lowest rate every plan is absorbable (<= N - min_quorum
        # crashes), while a single crash already kills fail-stop.
        assert survived == len(seeds)
        assert all(r.diverged for r in classic)
        assert sum(r.stats["replicas_quarantined"] for r in policy) > 0


def test_finishing_at_n_minus_one_costs_little():
    """Losing a replica a third of the way in, slave or master, costs at
    most the promotion/poison transient over the fault-free run."""
    policy = DegradationPolicy(min_quorum=2)
    baseline = _run(3, None, policy)
    assert not baseline.diverged, baseline.divergence
    crash_at = WORKLOAD.native_ns() // 3
    for victim, promotions in ((2, 0), (0, 1)):
        result = _run(3, FaultPlan(faults=[
            CrashFault(replica=victim, at_ns=crash_at)]), policy)
        assert not result.diverged, result.divergence
        assert result.stats["replicas_quarantined"] == 1
        assert result.stats["master_promotions"] == promotions
        assert result.wall_time_ns < 1.5 * baseline.wall_time_ns
