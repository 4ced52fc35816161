"""Membership-versioned routing caches equal a from-scratch recomputation.

``DistMvee`` caches ``participants()``, ``shard_owners()`` and each
round's HRW owner behind a membership version (DESIGN.md §8). A
transition that forgets to bump the version would leave a stale view
serving rendezvous routing. These runs wrap the three entry points and,
at every call, recompute the answer from the live cluster state with an
independent reference written here, across every membership
transition: quarantine and promotion, breaker degrade and restore,
replay re-admission, autoscaler shard-count changes and staggered clean
exits.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import DegradationPolicy, Level, ReMonConfig
from repro.dist import DistConfig, DistMvee
from repro.dist.shard import shard_owner
from repro.faults import (
    CrashFault,
    FaultInjector,
    FaultPlan,
    LinkDegradeFault,
    NodeRejoinFault,
)
from repro.guest.program import Program
from repro.kernel import constants as C
from repro.kernel.exits import ProcessExitRequest
from repro.lifecycle import LifecycleConfig
from repro.workloads.synthetic import CategoryMix, SyntheticWorkload, build_program

MAX_STEPS = 400_000_000
RATE = 900_000.0


def reference_participants(mvee):
    out = []
    for node in mvee.nodes:
        process = node.process
        if process.quarantined or node.rejoining or node.link_degraded:
            continue
        if process.exited and (process.exit_code or 0) < 128:
            continue
        out.append(node.index)
    return tuple(out)


def reference_owners(mvee):
    live = reference_participants(mvee)
    if not mvee.dconfig.shard_rendezvous or not live:
        return (mvee.leader_index,)
    cap = mvee.dconfig.rendezvous_shards
    return live if cap is None else live[:max(1, cap)]


@pytest.fixture
def checked(monkeypatch):
    """Check every cached answer against the reference; count checks."""
    calls = Counter()
    cached_participants = DistMvee.participants
    cached_owners = DistMvee.shard_owners
    cached_owner = DistMvee.shard_owner

    def participants(mvee):
        got = cached_participants(mvee)
        assert got == reference_participants(mvee)
        calls["participants"] += 1
        return got

    def shard_owners(mvee):
        got = cached_owners(mvee)
        assert got == reference_owners(mvee)
        calls["shard_owners"] += 1
        return got

    def owner(mvee, vtid, seq):
        got = cached_owner(mvee, vtid, seq)
        owners = reference_owners(mvee)
        assert got == shard_owner(vtid, seq, owners)
        # Routing reads the owner set without calling shard_owners(), so
        # check the cached set here too.
        assert cached_owners(mvee) == owners
        calls["shard_owner"] += 1
        return got

    monkeypatch.setattr(DistMvee, "participants", participants)
    monkeypatch.setattr(DistMvee, "shard_owners", shard_owners)
    monkeypatch.setattr(DistMvee, "shard_owner", owner)
    return calls


def _workload(threads=2, native_ms=1.0, sock=False):
    mix = {"base": RATE * 0.45, "file_ro": RATE * 0.25, "mgmt": RATE * 0.2}
    if sock:
        # sock_ro keeps the replicated lane busy, so the replay window
        # holds RB mirror records as well as verdicts.
        mix["sock_ro"] = RATE * 0.1
    else:
        mix["base"] += RATE * 0.1
    return SyntheticWorkload(
        name="membership", native_ms=native_ms, mix=CategoryMix(mix),
        threads=threads,
    )


def _run(program, plan=None, level=Level.NO_IPMON, replicas=4, **dist):
    dist.setdefault("link_latency_ns", 100_000)
    dist.setdefault("shard_rendezvous", True)
    config = ReMonConfig(
        replicas=replicas, level=level,
        degradation=DegradationPolicy(min_quorum=2),
        dist=DistConfig(**dist),
    )
    mvee = DistMvee(program, config)
    if plan is not None:
        mvee.attach_faults(FaultInjector(FaultPlan(plan)))
    result = mvee.run(max_steps=MAX_STEPS)
    return mvee, result


def _assert_checked(calls, mvee):
    assert calls["participants"] > 0
    assert calls["shard_owner"] > 0
    assert mvee.membership_version > 0


def test_quarantine_and_promotion(checked):
    mvee, result = _run(
        build_program(_workload()),
        [CrashFault(replica=0, at_ns=500_000)],
        rendezvous_shards=2,
    )
    assert not result.diverged, result.divergence
    assert result.quarantined_replicas == [0]
    assert result.stats["master_promotions"] == 1
    assert mvee.leader_index == 1
    _assert_checked(checked, mvee)


def test_breaker_degrade_and_restore(checked):
    mvee, result = _run(
        build_program(_workload(native_ms=2.0)),
        [LinkDegradeFault(at_ns=2_000_000, src=0, dst=2,
                          duration_ns=20_000_000, loss_prob=1.0)],
        level=Level.SOCKET_RW, replicas=3, link_latency_ns=200_000,
    )
    assert not result.diverged, result.divergence
    assert result.exit_codes == [0, 0, 0]
    assert result.stats["dist_link_degrades"] >= 1
    assert result.stats["dist_link_restores"] >= 1
    _assert_checked(checked, mvee)


def test_node_rejoin(checked):
    mvee, result = _run(
        build_program(_workload(sock=True)),
        [NodeRejoinFault(replica=1, at_ns=1_000_000)],
        level=Level.SOCKET_RO, rendezvous_shards=2,
        lifecycle=LifecycleConfig(seed=7),
    )
    assert not result.diverged, result.divergence
    assert result.exit_codes == [0] * 4
    assert mvee.epoch == 2
    assert result.stats["lifecycle_rejoins_completed"] == 1
    _assert_checked(checked, mvee)


def test_autoscaler_up_and_down(checked):
    lifecycle = LifecycleConfig(
        seed=7, gossip=False, autoscale=True, watch_interval_ns=100_000,
        drift_factor=1.01, drift_windows=1, min_shards=1, max_shards=4,
    )
    mvee, result = _run(
        build_program(_workload(threads=4, native_ms=2.0)),
        rendezvous_shards=2, lifecycle=lifecycle,
    )
    assert not result.diverged, result.divergence
    assert result.exit_codes == [0] * 4
    assert result.stats["lifecycle_scale_ups"] >= 1
    assert result.stats["lifecycle_scale_downs"] >= 1
    _assert_checked(checked, mvee)


def staggered_exit_program(rounds=6):
    """Node ``i`` takes part in ``rounds + i`` monitored rounds, then
    exits cleanly without a syscall: each exit shrinks the voting and
    owning set while the remaining nodes keep going."""

    def main(ctx):
        libc = ctx.libc
        for _ in range(rounds + ctx.process.replica_index):
            fd = yield from libc.open("/data/in", C.O_RDONLY)
            assert fd >= 0, fd
            yield from libc.close(fd)
        raise ProcessExitRequest(0)

    return Program("staggered", main, files={"/data/in": b"x"})


def test_staggered_clean_exits(checked):
    exits = []
    config = ReMonConfig(
        replicas=4, level=Level.NO_IPMON,
        dist=DistConfig(link_latency_ns=100_000, shard_rendezvous=True),
    )
    mvee = DistMvee(staggered_exit_program(), config)
    for node in mvee.nodes:
        bump = node.kernel.on_terminate

        def watch(process, bump=bump):
            exits.append((process.kernel.sim.now, process.replica_index))
            bump(process)

        node.kernel.on_terminate = watch
    result = mvee.run(max_steps=MAX_STEPS)
    assert not result.diverged, result.divergence
    assert result.exit_codes == [0] * 4
    # Exits land at four distinct instants, in node order.
    assert [index for _, index in exits] == [0, 1, 2, 3]
    assert len({when for when, _ in exits}) == 4
    _assert_checked(checked, mvee)
