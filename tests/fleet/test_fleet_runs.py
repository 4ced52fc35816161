"""End-to-end fleet tests (repro.fleet.runner + the external-service
dist lane): small clusters, real guest servers, multiplexed clients.
"""

from __future__ import annotations

import pytest

from repro.core.policies import Level
from repro.core.remon import ReMonConfig
from repro.dist.cluster import DistConfig, DistMvee
from repro.dist.selective import fleet_replication
from repro.errors import MonitorError
from repro.fleet import AdmissionConfig, FleetConfig, run_fleet
from repro.workloads.servers import SERVERS


def _small(server="redis", **overrides):
    base = dict(server=server, nodes=2, connections=12,
                connect_pace_ns=100_000)
    base.update(overrides)
    return FleetConfig(**base)


def test_fleet_serves_all_connections_cleanly():
    result = run_fleet(_small())
    row = result.row()
    assert row["exit_codes"] == [0, 0]
    assert not row["diverged"]
    assert row["completed"] == 12
    assert row["errors"] == 0
    assert row["p99_ns"] > 0
    # The always-on instruments were populated.
    registry = result.stats
    assert registry["fleet_offered"] >= 12
    assert registry["fleet_client_completed"] == 12


def test_fleet_runs_are_bit_identical():
    """Two identical fleet runs produce identical rows and identical
    cluster stats — the determinism the flight recorder depends on."""
    first = run_fleet(_small(connections=10))
    second = run_fleet(_small(connections=10))
    assert first.row() == second.row()
    assert first.stats == second.stats


def test_reject_policy_surfaces_econnrefused():
    admission = AdmissionConfig(queue_capacity=2, rate_per_s=2_000, burst=2)
    result = run_fleet(_small(connections=24, connect_pace_ns=5_000,
                              admission=admission))
    row = result.row()
    assert row["exit_codes"] == [0, 0] and not row["diverged"]
    assert row["shed"] > 0
    assert row["refused"] == row["shed"]
    assert row["dropped"] == 0
    assert row["completed"] + row["refused"] == 24
    assert row["admitted"] + row["shed"] == row["offered"]


def test_drop_policy_burns_client_timeout():
    admission = AdmissionConfig(queue_capacity=2, rate_per_s=2_000, burst=2,
                                policy="drop", drop_timeout_ns=3_000_000)
    result = run_fleet(_small(connections=24, connect_pace_ns=5_000,
                              admission=admission))
    row = result.row()
    assert row["exit_codes"] == [0, 0] and not row["diverged"]
    assert row["dropped"] == row["shed"] > 0
    assert row["refused"] == 0
    # Dropped SYNs cost the client its connect timeout: the run's
    # wall time covers at least one full timeout window.
    assert result.client.duration_ns > 3_000_000


@pytest.mark.parametrize("server", sorted(SERVERS))
def test_every_profile_runs_distributed(server):
    """All nine §5.2 profiles complete as a 2-node fleet — including
    the multi-worker accept/epoll servers whose shutdown must stay
    syscall-deterministic under lockstep replication."""
    result = run_fleet(_small(server=server, connections=6))
    row = result.row()
    assert row["exit_codes"] == [0, 0], row
    assert not row["diverged"], row
    assert row["completed"] == 6, row


def test_three_node_full_replication_ships_more_bytes():
    selective = run_fleet(_small(nodes=3, replication="selective"))
    full = run_fleet(_small(nodes=3, replication="full"))
    assert selective.row()["completed"] == full.row()["completed"] == 12
    assert full.row()["wire_bytes"] > selective.row()["wire_bytes"]

    # A file-serving profile with keepalive: full replication ships every
    # reproducible result (preads, log writes, clock reads) the followers
    # could have computed, so it pays more than twice the wire bytes.
    keepalive = dict(server="lighttpd-wrk", connections=32,
                     requests_per_conn=4, connect_pace_ns=500_000)
    selective = run_fleet(_small(replication="selective", **keepalive)).row()
    full = run_fleet(_small(replication="full", **keepalive)).row()
    assert selective["completed"] == full["completed"] == 128
    assert full["wire_bytes"] > 2 * selective["wire_bytes"]


def test_external_service_requires_socket_rw():
    spec = SERVERS["redis"]
    dconfig = DistConfig(
        external_service=True, replication=fleet_replication()
    )
    with pytest.raises(MonitorError):
        DistMvee(
            spec.program(),
            ReMonConfig(replicas=2, level=Level.NONSOCKET_RW, dist=dconfig),
        )


def test_keepalive_multiplexing_reuses_connections():
    result = run_fleet(_small(connections=8, requests_per_conn=3))
    row = result.row()
    assert row["exit_codes"] == [0, 0] and not row["diverged"]
    assert row["completed"] == 24  # 8 conns x 3 pipelined requests
    # Only 8 connections were ever offered to the listener (plus QUIT).
    assert row["offered"] <= 9
