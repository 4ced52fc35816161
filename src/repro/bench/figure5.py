"""Figure 5: server benchmarks in two network scenarios, 2-7 replicas.

For each of the nine server configurations and both network scenarios
(~0.1 ms "unlikely worst case" gigabit, 2 ms "realistic" low-latency),
we measure the client-observed completion-time overhead of ReMon at
SOCKET_RW with 2..7 replicas, plus 2 replicas with IP-MON disabled.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.harness import measure_server_overhead

SERVER_ORDER = [
    "beanstalkd",
    "lighttpd-wrk",
    "memcached",
    "nginx-wrk",
    "redis",
    "apache-ab",
    "thttpd-ab",
    "lighttpd-ab",
    "lighttpd-http_load",
]

SCENARIOS = {
    "gigabit-0.1ms": 100_000,
    "realistic-2ms": 2_000_000,
}


def replica_counts() -> List[int]:
    """The replica counts of the paper's figure: 2..7."""
    return [2, 3, 4, 5, 6, 7]


def generate(scenario: str = "realistic-2ms") -> Dict:
    latency_ns = SCENARIOS[scenario]
    rows = []
    for server in SERVER_ORDER:
        native = measure_server_overhead(server, latency_ns, "native")
        base = native["duration_ns"]
        entry = {"name": server, "native_rps": native["rps"], "overheads": {}}
        no_ipmon = measure_server_overhead(server, latency_ns, "ghumvee", replicas=2)
        entry["overheads"]["no-ipmon-2"] = no_ipmon["duration_ns"] / base - 1.0
        for n in replica_counts():
            remon = measure_server_overhead(server, latency_ns, "remon", replicas=n)
            entry["overheads"]["remon-%d" % n] = remon["duration_ns"] / base - 1.0
        rows.append(entry)
    return {"scenario": scenario, "latency_ns": latency_ns, "rows": rows}


def render(data: Dict) -> str:
    from repro.bench.reporting import Table

    counts = replica_counts()
    table = Table(
        "Figure 5 (%s): client-observed runtime overhead" % data["scenario"],
        ["server", "2repl no-IPMON"] + ["%d repl" % n for n in counts],
    )
    for row in data["rows"]:
        cells = [row["name"], "%.1f%%" % (100 * row["overheads"]["no-ipmon-2"])]
        for n in counts:
            cells.append("%.1f%%" % (100 * row["overheads"]["remon-%d" % n]))
        table.add(*cells)
    return table.render()
