"""Replay-based re-admission, priced per crash position (repro.lifecycle,
DESIGN.md §12).

A 4-node sharded cluster loses one node 2 ms in (follower, shard owner
or leader), re-images it, replays the recorded window into it and takes
it back into the lockstep quorum under a bumped epoch. Known red: the
shard-owner and leader rows end in a false ``close`` replay mismatch
(ROADMAP item 3), so this check fails until that bug is fixed.

Run with
``PYTHONPATH=src python -m pytest benchmarks/test_lifecycle_readmission.py``.
"""

from repro.core import DegradationPolicy, Level, ReMonConfig
from repro.dist import DistConfig, DistMvee
from repro.faults import FaultInjector, FaultPlan, NodeRejoinFault
from repro.lifecycle import LifecycleConfig
from repro.workloads.synthetic import CategoryMix, SyntheticWorkload, build_program


def _lifecycle_workload(native_ms=2.0, rate=900_000.0):
    # sock_ro keeps the replicated lane busy so the replay window holds
    # RB mirror records, not just rendezvous verdicts.
    return SyntheticWorkload(
        name="lifecycle", native_ms=native_ms, threads=4,
        mix=CategoryMix({"base": rate * 0.35, "file_ro": rate * 0.2,
                         "sock_ro": rate * 0.25, "mgmt": rate * 0.2}),
    )


def _lifecycle_run(plan, nodes=4):
    config = ReMonConfig(
        replicas=nodes, level=Level.SOCKET_RO,
        degradation=DegradationPolicy(min_quorum=2),
        dist=DistConfig(link_latency_ns=100_000, shard_rendezvous=True,
                        rendezvous_shards=2,
                        lifecycle=LifecycleConfig(seed=11)),
    )
    mvee = DistMvee(build_program(_lifecycle_workload()), config)
    if plan is not None:
        mvee.attach_faults(FaultInjector(plan))
    return mvee, mvee.run(max_steps=400_000_000)


def lifecycle_sweep(nodes=4):
    """One row per crash position: rejoins, priced recovery time,
    replayed artifacts, final epoch, wall time and exit codes."""
    scenarios = [("fault-free", None)] + [
        (label, FaultPlan(faults=[NodeRejoinFault(replica=victim,
                                                  at_ns=2_000_000)]))
        for label, victim in (("follower crash", nodes - 1),
                              ("shard-owner crash", 1),
                              ("leader crash", 0))
    ]
    rows = []
    for label, plan in scenarios:
        mvee, result = _lifecycle_run(plan, nodes=nodes)
        assert not result.diverged, result.divergence
        stats = result.stats
        rows.append({
            "scenario": label,
            "rejoins": stats.get("lifecycle_rejoins_completed", 0),
            "rejoin_ms": stats.get("lifecycle_rejoin_ns_total", 0) / 1e6,
            "replayed": sum(stats.get("lifecycle_replayed_" + kind, 0)
                            for kind in ("records", "verdicts", "local")),
            "epoch": mvee.epoch,
            "wall_ms": result.wall_time_ns / 1e6,
            "exit_codes_ok": all(node.process.exit_code == 0
                                 for node in mvee.nodes),
        })
    return rows


def test_lifecycle_readmission_cost(report):
    rows = lifecycle_sweep()
    report("\n".join(str(row) for row in rows))
    by_name = {r["scenario"]: r for r in rows}
    free = by_name["fault-free"]
    # The fault-free run never touches the rejoin machinery.
    assert free["rejoins"] == 0 and free["epoch"] == 0
    assert free["rejoin_ms"] == 0
    for scenario in ("follower crash", "shard-owner crash", "leader crash"):
        row = by_name[scenario]
        # One replayed re-admission under a bumped epoch (quarantine +
        # rejoin), the recovery priced, and the program completes.
        assert row["rejoins"] == 1, scenario
        assert row["epoch"] == 2, scenario
        assert row["rejoin_ms"] > 0, scenario
        assert row["replayed"] > 0, scenario
        assert row["exit_codes_ok"], scenario
        # Recovery is cheap relative to the run, not free.
        assert row["wall_ms"] > free["wall_ms"], scenario
        assert row["rejoin_ms"] < row["wall_ms"], scenario
    # Deterministic end to end: a second pass reproduces every figure.
    assert lifecycle_sweep() == rows
