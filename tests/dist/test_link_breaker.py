"""Per-link circuit breakers and soft link degradation (WAN PR).

Three load-bearing guarantees:

* **The breaker is a clean state machine** — closed opens on either
  consecutive retransmit failures or sustained RTT drift; half-open
  closes on one acked probe and re-opens (with doubled, capped
  cooldown) on one failed probe. Acks while fully open do *not* close
  it: only a probe that survives the link proves the link.
* **An open breaker degrades, it does not kill** — when the breaker on
  a leader link opens, the far node drops to leader-replicated-only
  membership (``link_degraded``), keeps its guest running, and rejoins
  once a half-open probe closes the breaker. The run finishes with
  every exit code 0 and no divergence.
* **Determinism** — the whole episode (degrade, retransmit storm,
  breaker trip, probe, restore) is a pure function of the seed and the
  fault plan: two runs produce identical stats.
"""

from __future__ import annotations

import pytest

from repro.core import DegradationPolicy, Level, ReMonConfig
from repro.costs.model import CostModel
from repro.dist import DistConfig, DistMvee
from repro.dist.reliable import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from repro.dist.transport import Transport
from repro.dist.wire import T_CALL_DIGEST, Frame, encode_batch
from repro.errors import FaultConfigError
from repro.faults import FaultInjector, FaultPlan, LinkDegradeFault
from repro.kernel.sockets import Network
from repro.sim import Simulator
from repro.workloads.synthetic import CategoryMix, SyntheticWorkload, build_program

MAX_STEPS = 400_000_000

ADDRS = [("10.1.0.1", 0), ("10.1.1.1", 0)]


# ---------------------------------------------------------------------------
# Breaker state machine
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        assert not breaker.record_failure(now=10)
        assert not breaker.record_failure(now=20)
        assert breaker.record_failure(now=30)
        assert breaker.state == BREAKER_OPEN
        assert breaker.opened_at == 30 and breaker.opens == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure(now=10)
        breaker.record_failure(now=20)
        breaker.record_success()  # streak broken: back to zero
        breaker.record_failure(now=30)
        breaker.record_failure(now=40)
        assert breaker.state == BREAKER_CLOSED

    def test_rtt_drift_opens_after_slow_threshold(self):
        breaker = CircuitBreaker(rtt_factor=4.0, slow_threshold=3)
        min_rtt = 100
        assert not breaker.record_rtt(500, min_rtt, now=10)
        assert not breaker.record_rtt(500, min_rtt, now=20)
        assert breaker.record_rtt(500, min_rtt, now=30)
        assert breaker.state == BREAKER_OPEN

    def test_one_fast_sample_resets_the_slow_streak(self):
        breaker = CircuitBreaker(rtt_factor=4.0, slow_threshold=2)
        breaker.record_rtt(500, 100, now=10)
        breaker.record_rtt(120, 100, now=20)  # healthy again
        breaker.record_rtt(500, 100, now=30)
        assert breaker.state == BREAKER_CLOSED

    def test_rtt_ignored_without_a_min_rtt_baseline(self):
        breaker = CircuitBreaker(slow_threshold=1)
        assert not breaker.record_rtt(10**9, 0, now=10)
        assert breaker.state == BREAKER_CLOSED

    def test_probe_waits_out_the_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_ns=1000)
        breaker.record_failure(now=500)
        assert not breaker.probe_due(now=1499)
        assert breaker.probe_due(now=1500)
        breaker.begin_probe()
        assert breaker.state == BREAKER_HALF_OPEN and breaker.probes == 1

    def test_half_open_probe_ack_closes_and_resets_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_ns=1000,
                                 cooldown_cap_ns=4000)
        breaker.record_failure(now=0)
        breaker.begin_probe()
        breaker.record_failure(now=2000)  # probe died: cooldown doubles
        assert breaker.state == BREAKER_OPEN
        assert breaker.current_cooldown_ns == 2000
        breaker.begin_probe()
        assert breaker.record_success()
        assert breaker.state == BREAKER_CLOSED and breaker.closes == 1
        assert breaker.current_cooldown_ns == 1000  # reset on close

    def test_half_open_failure_cooldown_is_capped(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_ns=1000,
                                 cooldown_cap_ns=3000)
        breaker.record_failure(now=0)
        for now in (1, 2, 3, 4):
            breaker.begin_probe()
            breaker.record_failure(now=now)
        assert breaker.current_cooldown_ns == 3000

    def test_ack_while_fully_open_does_not_close(self):
        # A straggler ack from before the storm proves nothing about the
        # link now; only a half-open probe may close the breaker.
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure(now=0)
        assert not breaker.record_success()
        assert breaker.state == BREAKER_OPEN

    def test_any_ack_breaks_the_failure_streak_only(self):
        breaker = CircuitBreaker(failure_threshold=3, rtt_factor=2.0,
                                 slow_threshold=4)
        breaker.record_rtt(500, 100, now=0)
        breaker.record_failure(now=10)
        breaker.record_failure(now=20)
        breaker.record_ack()
        assert breaker.consecutive_failures == 0
        # Only clean RTT samples move the slow streak.
        assert breaker.consecutive_slow == 1
        assert not breaker.record_failure(now=30)
        assert not breaker.record_failure(now=40)
        assert breaker.record_failure(now=50)

    def test_ack_while_half_open_does_not_close_by_itself(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure(now=0)
        breaker.begin_probe()
        breaker.record_ack()
        assert breaker.state == BREAKER_HALF_OPEN


def _reliable_pair(sim):
    net = Network(latency_ns=100_000)
    transport = Transport(sim, net, ADDRS, CostModel())
    transport.enable_reliable()
    transport.dispatch = lambda dst, frame: None
    return net, transport


def _frame(seq):
    return Frame(T_CALL_DIGEST, 0, 1, seq)


class TestDuplicateAcks:
    def test_duplicate_ack_resets_the_failure_streak(self):
        """Batches queued behind one lost batch time out one by one
        while the receiver can only repeat its old cumulative ack; each
        repeat must still count as the intervening ack."""
        sim = Simulator()
        _net, transport = _reliable_pair(sim)
        transport.send(0, 1, _frame(0), urgent=True)
        sim.run()
        breaker = transport._breakers[(0, 1)]
        for now in range(breaker.failure_threshold - 1):
            breaker.record_failure(now=now)
        transport._receive(1, 0, encode_batch([], 0, 1))
        assert breaker.consecutive_failures == 0
        assert breaker.state == BREAKER_CLOSED
        assert transport.stats.get("breaker_opens", 0) == 0

    def test_blackhole_without_acks_still_opens_the_breaker(self):
        sim = Simulator()
        net, transport = _reliable_pair(sim)
        net.set_link_directed(ADDRS[0][0], ADDRS[1][0], loss_prob=1.0)
        for seq in range(4):
            transport.send(0, 1, _frame(seq), urgent=True)
        sim.run(until=100_000_000)
        assert transport.stats["breaker_opens"] >= 1
        assert transport.stats.get("acks_sent", 0) == 0


def test_two_pct_loss_does_not_kill_a_benign_program():
    """Regression, seed 1002 at 2 % uniform loss on every link: without
    duplicate acks breaking the failure streak, a retransmit round over
    the batches queued behind one lost batch opened a breaker and the
    whole 4-node cluster exited 137."""
    rate = 900_000.0
    workload = SyntheticWorkload(
        name="lifecycle", native_ms=1.0, threads=4, seed=1002,
        mix=CategoryMix({"base": rate * 0.35, "file_ro": rate * 0.2,
                         "sock_ro": rate * 0.25, "mgmt": rate * 0.2}),
    )
    config = ReMonConfig(
        replicas=4, level=Level.SOCKET_RO,
        dist=DistConfig(link_latency_ns=100_000, link_loss_prob=0.02),
    )
    result = DistMvee(build_program(workload), config).run(max_steps=MAX_STEPS)
    assert not result.diverged, result.divergence
    assert result.exit_codes == [0, 0, 0, 0]
    assert result.stats["dist_retransmits"] > 0
    assert result.stats.get("dist_breaker_opens", 0) == 0


# ---------------------------------------------------------------------------
# Fault validation
# ---------------------------------------------------------------------------
class TestLinkDegradeFaultValidation:
    def test_rejects_nonpositive_duration(self):
        with pytest.raises(FaultConfigError):
            LinkDegradeFault(at_ns=0, src=0, dst=1, duration_ns=0)

    def test_rejects_self_link(self):
        with pytest.raises(FaultConfigError):
            LinkDegradeFault(at_ns=0, src=1, dst=1, duration_ns=100)

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(FaultConfigError):
            LinkDegradeFault(at_ns=0, src=0, dst=1, duration_ns=100,
                             loss_prob=1.5)


# ---------------------------------------------------------------------------
# End to end: blackholed link -> breaker open -> degrade -> probe -> rejoin
# ---------------------------------------------------------------------------
def _wan_workload():
    rate = 900_000.0
    return SyntheticWorkload(
        name="wan-breaker",
        native_ms=2.0,
        mix=CategoryMix(
            {"base": rate * 0.5, "file_ro": rate * 0.3, "sock_rw": rate * 0.2}
        ),
        threads=2,
    )


def _run_wan(plan=None, nodes=3, min_quorum=2):
    config = ReMonConfig(
        replicas=nodes, level=Level.SOCKET_RW,
        degradation=DegradationPolicy(min_quorum=min_quorum),
        dist=DistConfig(link_latency_ns=200_000),
    )
    mvee = DistMvee(build_program(_wan_workload()), config)
    if plan is not None:
        mvee.attach_faults(FaultInjector(plan))
    result = mvee.run(max_steps=MAX_STEPS)
    return mvee, result


def _blackhole_plan():
    # Blackhole the leader->follower-2 link for 20ms. With the retransmit
    # timer at 800us doubling, 8 consecutive failures accumulate within a
    # few ms; the 50ms cooldown lands well after the restore, so the
    # half-open probe finds a healthy link and re-closes the breaker.
    return FaultPlan(
        [
            LinkDegradeFault(at_ns=2_000_000, src=0, dst=2,
                             duration_ns=20_000_000, loss_prob=1.0),
        ]
    )


class TestLinkBreakerEndToEnd:
    def test_blackholed_link_degrades_then_restores(self):
        mvee, result = _run_wan(_blackhole_plan())
        assert not result.diverged, result.divergence
        assert result.exit_codes == [0, 0, 0]

        stats = result.stats
        assert stats["dist_retransmits"] > 0
        assert stats["dist_breaker_opens"] >= 1
        assert stats["dist_breaker_closes"] >= 1
        assert stats["dist_probes_sent"] >= 1
        assert stats["dist_link_degrades"] >= 1
        assert stats["dist_link_restores"] >= 1
        assert stats["net_segments_lost"] > 0

        # The degraded follower rejoined: flag cleared, nobody quarantined.
        assert all(not node.link_degraded for node in mvee.nodes)
        assert result.quarantined_replicas == []
        assert mvee.nodes[0].kernel.fault_injector.stats["link_degrades"] == 1

        # The episode is audit-visible as a benign "link" fault event,
        # not a security divergence.
        kinds = [report.kind for report in result.fault_events]
        assert "link" in kinds
        link_report = next(r for r in result.fault_events if r.kind == "link")
        assert link_report.detected_by == "dist-breaker"
        assert link_report.replica == 2  # dst side of the leader link

    def test_degrade_below_voter_quorum_quarantines_hard(self):
        # Node 2's link opens first and it degrades (three voters stay).
        # Degrading node 3 as well would leave two voters < min_quorum 3,
        # so its breaker escalates to a replica fault; three survivors
        # still meet the quorum, so node 3 is quarantined, not the run.
        plan = FaultPlan(
            [
                LinkDegradeFault(at_ns=2_000_000, src=0, dst=dst,
                                 duration_ns=20_000_000, loss_prob=1.0)
                for dst in (2, 3)
            ]
        )
        mvee, result = _run_wan(plan, nodes=4, min_quorum=3)
        assert not result.diverged, result.divergence
        assert result.exit_codes == [0, 0, 0, 137]
        assert result.quarantined_replicas == [3]
        assert result.stats["dist_link_degrades"] >= 1
        degraded = [r for r in result.fault_events
                    if r.kind == "link" and r.replica == 2]
        assert degraded and "quorum lost" not in degraded[0].detail
        hard = next(r for r in result.fault_events
                    if r.kind == "link" and r.replica == 3)
        assert hard.detected_by == "dist-breaker"
        assert "quorum lost: 2 voters" in hard.detail

    def test_degrade_below_survivor_quorum_fail_stops(self):
        _, result = _run_wan(_blackhole_plan(), nodes=3, min_quorum=3)
        assert result.diverged
        assert result.exit_codes == [137, 137, 137]
        assert result.divergence.kind == "link"
        assert result.divergence.detected_by == "dist-breaker"
        assert "quorum lost" in result.divergence.detail
        assert result.quarantined_replicas == []

    def test_degrade_episode_is_deterministic(self):
        _, first = _run_wan(_blackhole_plan())
        _, second = _run_wan(_blackhole_plan())
        assert first.stats == second.stats
        assert first.wall_time_ns == second.wall_time_ns
        assert first.exit_codes == second.exit_codes

    def test_clean_run_has_no_breaker_or_reliability_stats(self):
        # No faults, no lossy links: the reliable layer stays off and no
        # wan stat key may leak into the happy path.
        _, result = _run_wan()
        assert not result.diverged
        for key in result.stats:
            assert not key.startswith(("dist_breaker", "dist_retransmit",
                                       "dist_link_", "net_segments")), key
