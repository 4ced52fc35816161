"""Fleet tail latency against offered load (repro.fleet, DESIGN.md §10).

Past the saturation knee (~4.2 k accepts/s at 20 us links, where every
accept is a cluster-wide rendezvous) an unthrottled fleet's p99 is
accept-backlog wait and grows with offered load. The admission
controller sheds the excess at SYN time instead and holds p99 near the
knee at the same goodput. All figures are virtual and deterministic.
"""

from __future__ import annotations

from repro.fleet import AdmissionConfig, FleetConfig, run_fleet

#: Inter-SYN gaps: below the knee, then ~8x and ~30x past it.
PACES_NS = (500_000, 30_000, 7_500)


def _row(pace_ns, admission, **overrides):
    config = FleetConfig(**{
        "server": "redis", "nodes": 2, "connections": 64,
        "connect_pace_ns": pace_ns, "admission": admission, **overrides,
    })
    row = run_fleet(config).row()
    assert row["exit_codes"] == [0] * config.nodes, row
    assert not row["diverged"], row
    # Conservation: every offered SYN was either admitted or shed.
    assert row["admitted"] + row["shed"] == row["offered"], row
    return row


def test_admission_bounds_tail_latency():
    throttled = AdmissionConfig(queue_capacity=8, rate_per_s=4_000, burst=8)
    baseline = [_row(pace, None) for pace in PACES_NS]
    admission = [_row(pace, throttled) for pace in PACES_NS]
    assert all(row["errors"] == 0 for row in baseline + admission)
    # Below the knee the controller is transparent.
    assert admission[0]["shed"] == 0
    assert admission[0]["p99_ns"] == baseline[0]["p99_ns"]
    # Past the knee the baseline tail is queue wait and keeps growing...
    knee_p99 = baseline[0]["p99_ns"]
    assert all(row["p99_ns"] > 5 * knee_p99 for row in baseline[1:])
    assert baseline[-1]["p99_ns"] > baseline[1]["p99_ns"]
    # ...while admission sheds the excess and holds p99 far below it at
    # nearly the same goodput.
    for base_row, adm_row in zip(baseline[1:], admission[1:]):
        assert adm_row["shed"] > 0
        assert adm_row["p99_ns"] * 3 < base_row["p99_ns"], (adm_row, base_row)
        assert adm_row["goodput_rps"] > 0.85 * base_row["goodput_rps"]


def test_shed_policies_at_overload():
    """reject surfaces backpressure at once (ECONNREFUSED); drop burns
    the client's connect timeout instead (ETIMEDOUT). Both shed about
    the same number of connections."""
    reject, drop = (
        _row(PACES_NS[-1], AdmissionConfig(
            queue_capacity=8, rate_per_s=3_000, burst=8, policy=policy,
            drop_timeout_ns=5_000_000))
        for policy in ("reject", "drop")
    )
    assert reject["refused"] > 0 and reject["dropped"] == 0
    assert drop["dropped"] > 0 and drop["refused"] == 0
    assert abs(reject["shed"] - drop["shed"]) <= 3


def test_ten_thousand_clients_one_process():
    """A 10,000-connection stampede through one multiplexed client
    process: every connection resolves, and the admitted tail stays
    bounded because the controller sheds most of the SYNs."""
    row = _row(2_000, AdmissionConfig(queue_capacity=32, rate_per_s=4_000,
                                      burst=16),
               connections=10_000, shard_size=256, max_steps=1_200_000_000)
    assert row["connections"] >= 10_000
    assert row["offered"] >= row["connections"]
    resolved = (row["completed"] + row["refused"] + row["dropped"]
                + row["errors"])
    assert resolved >= row["connections"], row
    assert row["p99_ns"] < 50_000_000, row
