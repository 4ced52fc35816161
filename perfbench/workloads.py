"""The benchmark's four workloads.

Each workload is a function ``(seed, meter) -> Outcome`` that builds its
inputs from the seed, drives only public entry points of ``repro``
(``ReMon``, ``DistMvee``, ``run_fleet``, ``repro.lifecycle``,
``repro.faults``) and checks the outputs. It calls ``meter.setup()``
where building each simulation starts, so that ``setup_s`` covers
construction up to each simulation's first step. Every workload names the layer
that does most of its work; together they separate the layers:

* ``remon-paper``  single-host ReMon on four paper exhibits (``core``,
  ``ptrace``, ``kernel``); dist, fleet and lifecycle are idle.
* ``dist-wide``    many nodes x many threads, every monitored call a
  sharded rendezvous (``dist``, ``sim``, ``kernel.memory``).
* ``fleet-mirror`` a 3-node server fleet under open-loop connections
  (``kernel`` sockets, the mirror lane, ``fleet`` admission).
* ``dist-rejoin``  crash and replay re-admission of a shard owner on a
  heterogeneous cluster (``lifecycle``, ``faults``, ``diversity``).

Sizes are constants: no environment variable (``REPRO_BENCH_SCALE``,
``REPRO_BENCH_SMOKE``) changes them, because nothing here goes through
the helpers that read those variables. Runs are built directly rather
than through the cached ``measure_mvee_overhead``, so a repeat is real
work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.baselines.native import run_native
from repro.core import DegradationPolicy, Level, ReMon, ReMonConfig
from repro.dist import DistConfig, DistMvee
from repro.faults import FaultInjector, FaultPlan, NodeRejoinFault
from repro.fleet import FleetConfig, run_fleet
from repro.fleet.runner import FLEET_CLIENT_HOST
from repro.guest import GuestRuntime
from repro.kernel import Kernel, KernelConfig
from repro.kernel.sockets import Network
from repro.lifecycle import LifecycleConfig
from repro.sim import Simulator
from repro.workloads.calibrate import calibrate
from repro.workloads.clients import ClientResult, MuxClientSpec, build_mux_client_program
from repro.workloads.profiles import (
    PARSEC_BENCHMARKS,
    PHORONIX_BENCHMARKS,
    SPLASH_BENCHMARKS,
    derive_workload,
)
from repro.workloads.servers import SERVERS
from repro.workloads.synthetic import CategoryMix, SyntheticWorkload, build_program

MAX_STEPS = 400_000_000


@dataclass
class Outcome:
    #: Fixed work: native syscalls x replicas, or client requests. It
    #: must not change between repetitions of one seed.
    work: int = 0
    #: Operations: replicas/nodes (and native runs), or client requests.
    attempted: int = 0
    #: Nonzero exits, divergences, refused/dropped/errored requests.
    failed: int = 0
    #: One message per failed output check.
    problems: List[str] = field(default_factory=list)
    #: Workload-level virtual results (the per-layer virtual figures are
    #: folded from the meter's registries by the caller).
    virtual: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def mvee(self, label: str, result) -> None:
        """Count one MVEE run's replicas and check exits and divergence."""
        codes = list(result.exit_codes)
        bad = sum(1 for code in codes if code != 0)
        self.attempted += len(codes)
        self.failed += bad or int(result.diverged)
        self.check(not bad, "%s: exit codes %r" % (label, codes))
        self.check(not result.diverged, "%s diverged: %r" % (label, result.divergence))

    def native(self, label: str, result) -> None:
        self.attempted += 1
        self.failed += int(result.exit_code != 0)
        self.check(result.exit_code == 0, "%s: native exit %r" % (label, result.exit_code))


# ---------------------------------------------------------------------------
# remon-paper: Figure 3 (dedup, water_spatial) and Figure 4 (phpbench,
# network-loopback), each at GHUMVEE-only and at the paper's ReMon level.
# ---------------------------------------------------------------------------
PAPER_BARS = (
    ("dedup", Level.NONSOCKET_RW),
    ("water_spatial", Level.NONSOCKET_RW),
    ("phpbench", Level.SOCKET_RW),
    ("network-loopback", Level.SOCKET_RW),
)
PAPER_NATIVE_MS = 5.0
PAPER_REPLICAS = 2


def remon_paper(seed: int, meter) -> Outcome:
    out = Outcome()
    benches = {
        bench.name: bench
        for bench in PARSEC_BENCHMARKS + SPLASH_BENCHMARKS + PHORONIX_BENCHMARKS
    }
    meter.setup()
    with meter.paused():
        cal = calibrate(PAPER_REPLICAS)
    remon_ratios = []
    errors = []
    for name, remon_level in PAPER_BARS:
        bench = benches[name]
        meter.setup()
        workload = derive_workload(bench, cal, native_ms=PAPER_NATIVE_MS, seed=seed)
        native = run_native(build_program(workload))
        out.native(name, native)
        out.work += native.syscalls * PAPER_REPLICAS
        for level in (Level.NO_IPMON, remon_level):
            meter.setup()
            mvee = ReMon(
                Kernel(),
                build_program(workload),
                ReMonConfig(replicas=PAPER_REPLICAS, level=level),
            )
            result = mvee.run(max_steps=MAX_STEPS)
            out.mvee("%s@%s" % (name, level.name), result)
            ratio = result.wall_time_ns / native.wall_time_ns
            target = bench.targets[level]
            errors.append(abs(ratio - target) / target)
            if level is remon_level:
                remon_ratios.append(ratio)
    out.virtual["virt_overhead"] = math.exp(
        sum(math.log(r) for r in remon_ratios) / len(remon_ratios)
    )
    out.virtual["virt.paper_err_pct"] = 100.0 * sum(errors) / len(errors)
    return out


# ---------------------------------------------------------------------------
# dist-wide: every monitored call is a sharded rendezvous across 16 nodes.
# ---------------------------------------------------------------------------
WIDE_NODES = 16
WIDE_THREADS = 16
WIDE_NATIVE_MS = 4.0
WIDE_RATE = 60_000.0


def dist_wide(seed: int, meter) -> Outcome:
    out = Outcome()
    meter.setup()
    rate = WIDE_RATE
    workload = SyntheticWorkload(
        name="dist-wide",
        native_ms=WIDE_NATIVE_MS,
        mix=CategoryMix({
            "base": rate * 0.4, "file_ro": rate * 0.35, "sock_ro": rate * 0.1,
            "sock_rw": rate * 0.05, "mgmt": rate * 0.1,
        }),
        threads=WIDE_THREADS,
        seed=seed,
    )
    native = run_native(build_program(workload))
    out.native("dist-wide", native)
    meter.setup()
    config = ReMonConfig(
        replicas=WIDE_NODES,
        level=Level.NO_IPMON,
        degradation=DegradationPolicy(min_quorum=WIDE_NODES // 2 + 1),
        dist=DistConfig(link_latency_ns=50_000, shard_rendezvous=True),
    )
    result = DistMvee(build_program(workload), config).run(max_steps=MAX_STEPS)
    out.mvee("dist-wide", result)
    out.work = native.syscalls * WIDE_NODES
    out.virtual["virt_overhead"] = result.wall_time_ns / native.wall_time_ns
    return out


# ---------------------------------------------------------------------------
# fleet-mirror: lighttpd on 3 nodes, open-loop connections, 4 requests each.
# ---------------------------------------------------------------------------
FLEET_SERVER = "lighttpd-wrk"
FLEET_NODES = 3
FLEET_CONNECTIONS = 256
FLEET_REQUESTS_PER_CONN = 4
#: Mean gap between connection openings: 2 k conn/s, below the ~4.2 k
#: conn/s accept knee, so nothing queues without bound and nothing is
#: shed. The seed draws the gap within +-1 % of this.
FLEET_PACE_NS = 500_000


def _fleet_native(config: FleetConfig, pace_ns: int):
    """The same client against one unreplicated server: the native
    baseline that ``virt_overhead`` normalizes by. Returns the client's
    result and the server's exit code."""
    spec = SERVERS[config.server]
    sim = Simulator()
    network = Network(latency_ns=config.link_latency_ns, bandwidth_bps=1e9)
    server_kernel = Kernel(sim=sim, network=network, config=KernelConfig(cores=8))
    program = spec.program()
    program.install_files(server_kernel)
    server_ip = "10.1.0.1"
    server = server_kernel.create_process(program.name, host_ip=server_ip)
    GuestRuntime(server_kernel, server, program).start()
    client_kernel = Kernel(
        sim=sim, network=network, config=KernelConfig(cores=config.client_cores)
    )
    client = ClientResult()
    mux = MuxClientSpec(
        connections=config.connections,
        requests_per_conn=config.requests_per_conn,
        shard_size=config.shard_size,
        connect_pace_ns=pace_ns,
        response_bytes=spec.response_bytes,
    )
    process = client_kernel.create_process("mux-client", host_ip=FLEET_CLIENT_HOST)
    GuestRuntime(
        client_kernel, process,
        build_mux_client_program(server_ip, spec.port, mux, client),
    ).start()
    sim.run(max_steps=MAX_STEPS)
    return client, server.exit_code


def fleet_mirror(seed: int, meter) -> Outcome:
    out = Outcome()
    meter.setup()
    pace_ns = FLEET_PACE_NS + random.Random(seed).randint(
        -FLEET_PACE_NS // 100, FLEET_PACE_NS // 100
    )
    config = FleetConfig(
        server=FLEET_SERVER,
        nodes=FLEET_NODES,
        connections=FLEET_CONNECTIONS,
        requests_per_conn=FLEET_REQUESTS_PER_CONN,
        connect_pace_ns=pace_ns,
    )
    expected = FLEET_CONNECTIONS * FLEET_REQUESTS_PER_CONN
    native, native_exit = _fleet_native(config, pace_ns)
    out.check(
        native_exit == 0 and native.completed == expected and native.errors == 0,
        "native fleet: exit %r, %d/%d requests, %d errors"
        % (native_exit, native.completed, expected, native.errors),
    )
    meter.setup()
    fleet = run_fleet(config)
    row = fleet.row()
    client = fleet.client
    # A refused, dropped or errored request never completes.
    out.attempted = expected
    out.failed = max(0, expected - client.completed)
    out.work = client.completed
    out.check(row["exit_codes"] == [0] * FLEET_NODES, "fleet exit codes %r" % row["exit_codes"])
    out.check(not row["diverged"], "fleet diverged: %r" % fleet.mvee_result.divergence)
    out.check(
        row["admitted"] + row["shed"] == row["offered"],
        "admission not conserved: %(admitted)d + %(shed)d != %(offered)d" % row,
    )
    out.check(row["shed"] == 0, "fleet shed %d connections" % row["shed"])
    out.check(
        client.completed == expected,
        "fleet completed %d/%d requests" % (client.completed, expected),
    )
    # Mean latency, not a bucketed percentile, so small shifts register.
    out.virtual["virt_overhead"] = client.latency.mean / native.latency.mean
    out.virtual["virt.p50_ms"] = client.latency_percentile(50) / 1e6
    out.virtual["virt.p99_ms"] = client.latency_percentile(99) / 1e6
    out.virtual["virt.latency_samples"] = client.latency.count
    return out


# ---------------------------------------------------------------------------
# dist-rejoin: crash shard owner 1, replay-readmit it under a bumped epoch.
# ---------------------------------------------------------------------------
REJOIN_NODES = 4
REJOIN_NATIVE_MS = 8.0
REJOIN_RATE = 900_000.0
#: Crashing at >= 4 ms of this 8 ms run ends in a false replay
#: ``mismatch`` (a known bug in replayed ``close`` verification), so the
#: crash is pinned early, inside the range that passes.
REJOIN_CRASH_NS = 2_000_000


def dist_rejoin(seed: int, meter) -> Outcome:
    out = Outcome()
    meter.setup()
    rate = REJOIN_RATE
    # sock_ro keeps the replicated lane busy, so the replay window holds
    # RB mirror records as well as rendezvous verdicts.
    workload = SyntheticWorkload(
        name="dist-rejoin",
        native_ms=REJOIN_NATIVE_MS,
        mix=CategoryMix({
            "base": rate * 0.35, "file_ro": rate * 0.2,
            "sock_ro": rate * 0.25, "mgmt": rate * 0.2,
        }),
        threads=4,
        seed=seed,
    )
    native = run_native(build_program(workload))
    out.native("dist-rejoin", native)
    meter.setup()
    config = ReMonConfig(
        replicas=REJOIN_NODES,
        level=Level.SOCKET_RO,
        degradation=DegradationPolicy(min_quorum=2),
        dist=DistConfig(
            link_latency_ns=100_000,
            shard_rendezvous=True,
            rendezvous_shards=2,
            heterogeneous=True,
            lifecycle=LifecycleConfig(seed=seed),
        ),
    )
    mvee = DistMvee(build_program(workload), config)
    mvee.attach_faults(FaultInjector(FaultPlan(
        faults=[NodeRejoinFault(replica=1, at_ns=REJOIN_CRASH_NS)]
    )))
    result = mvee.run(max_steps=MAX_STEPS)
    out.mvee("dist-rejoin", result)
    stats = result.stats
    out.check(stats.get("dist_epoch") == 2, "dist_epoch %r != 2" % stats.get("dist_epoch"))
    out.check(
        stats.get("lifecycle_rejoins_completed") == 1,
        "lifecycle_rejoins_completed %r != 1" % stats.get("lifecycle_rejoins_completed"),
    )
    out.work = native.syscalls * REJOIN_NODES
    out.virtual["virt_overhead"] = result.wall_time_ns / native.wall_time_ns
    out.virtual["virt.recovery_ms"] = stats.get("lifecycle_rejoin_ns_total", 0) / 1e6
    return out


WORKLOADS: Dict[str, Callable[[int, object], Outcome]] = {
    "remon-paper": remon_paper,
    "dist-wide": dist_wide,
    "fleet-mirror": fleet_mirror,
    "dist-rejoin": dist_rejoin,
}

#: Libraries a workload's code imports lazily (``derive_workload`` uses
#: scipy). Loading a library is not the workload's set-up, so they are
#: imported before any clock starts, and only where needed: scipy alone
#: takes about a second to load.
PRELOAD: Dict[str, tuple] = {"remon-paper": ("numpy", "scipy.optimize")}
