"""Shared benchmark machinery."""

from __future__ import annotations

import os
from dataclasses import replace
from functools import lru_cache
from typing import Dict, Optional

from repro.baselines.native import run_native
from repro.core import Level, ReMon, ReMonConfig
from repro.guest import GuestRuntime
from repro.kernel import Kernel, KernelConfig
from repro.workloads.calibrate import calibrate
from repro.workloads.profiles import PaperBenchmark, derive_workload
from repro.workloads.synthetic import build_program

MAX_STEPS = 400_000_000


def bench_scale() -> float:
    """Workload scale factor from REPRO_BENCH_SCALE (default 1.0)."""
    try:
        return max(0.05, float(os.environ.get("REPRO_BENCH_SCALE", "1.0")))
    except ValueError:
        return 1.0


def _scaled(workload):
    scale = bench_scale()
    if scale == 1.0:
        return workload
    return replace(workload, native_ms=max(2.0, workload.native_ms * scale))


@lru_cache(maxsize=512)
def measure_mvee_overhead(
    bench_name: str,
    level: Level,
    replicas: int = 2,
    _suite_key: str = "",
    obs=None,
) -> float:
    """Normalized execution time of one suite benchmark at one level.

    Cached per (benchmark, level, replicas, obs); the PaperBenchmark is
    resolved by name from the registered suites. ``obs`` is an optional
    (frozen, hashable) :class:`repro.obs.ObsConfig`.
    """
    bench = _find_bench(bench_name)
    workload = _scaled(derive_workload(bench, calibrate()))
    program = build_program(workload)
    native = run_native(program)
    kernel = Kernel()
    mvee = ReMon(
        kernel,
        build_program(workload),
        ReMonConfig(replicas=replicas, level=level, obs=obs),
    )
    result = mvee.run(max_steps=MAX_STEPS)
    if result.diverged:
        raise AssertionError(
            "benchmark %s diverged under %s: %r"
            % (bench_name, level.name, result.divergence)
        )
    return result.wall_time_ns / max(1, native.wall_time_ns)


def timed_exhibit_run(level: Level = Level.NONSOCKET_RW, replicas: int = 2) -> float:
    """A small, fresh, uncached MVEE run for pytest-benchmark timing:
    measures how fast this simulator executes a representative
    monitored+unmonitored workload (host seconds, not virtual)."""
    from repro.workloads.synthetic import CategoryMix, SyntheticWorkload

    workload = SyntheticWorkload(
        name="exhibit",
        native_ms=4.0,
        mix=CategoryMix({"base": 20_000, "file_ro": 30_000, "mgmt": 2_000}),
        threads=2,
    )
    program = build_program(workload)
    kernel = Kernel()
    mvee = ReMon(kernel, program, ReMonConfig(replicas=replicas, level=level))
    result = mvee.run(max_steps=MAX_STEPS)
    assert not result.diverged
    return result.wall_time_ns


def _find_bench(name: str) -> PaperBenchmark:
    from repro.workloads.profiles import (
        PARSEC_BENCHMARKS,
        PHORONIX_BENCHMARKS,
        SPLASH_BENCHMARKS,
    )

    for bench in PARSEC_BENCHMARKS + SPLASH_BENCHMARKS + PHORONIX_BENCHMARKS:
        if bench.name == name:
            return bench
    raise KeyError(name)


# ---------------------------------------------------------------------------
# Server benchmarks
# ---------------------------------------------------------------------------
def native_server_runner(kernel, program):
    program.install_files(kernel)
    process = kernel.create_process(program.name)
    GuestRuntime(kernel, process, program).start()
    return process


def remon_server_runner(level: Level, replicas: int):
    def run(kernel, program):
        mvee = ReMon(kernel, program, ReMonConfig(replicas=replicas, level=level))
        mvee.start()
        return mvee

    return run


def varan_server_runner(replicas: int = 2):
    from repro.baselines.varan import Varan, VaranConfig

    def run(kernel, program):
        varan = Varan(kernel, program, VaranConfig(replicas=replicas))
        for runtime in varan._runtimes:
            runtime.start()
        return varan

    return run


@lru_cache(maxsize=512)
def measure_server_overhead(
    server_name: str,
    latency_ns: int,
    mode: str,  # "native" | "remon" | "ghumvee" | "varan"
    replicas: int = 2,
    requests: Optional[int] = None,
    concurrency: int = 8,
) -> Dict[str, float]:
    """Run one server benchmark configuration; returns duration and
    request accounting."""
    from repro.workloads.clients import ClientSpec, run_server_benchmark
    from repro.workloads.servers import SERVERS

    spec = SERVERS[server_name]
    tool = "wrk" if ("wrk" in server_name or spec.response_bytes <= 256) else "ab"
    if "http_load" in server_name:
        tool = "http_load"
    total = requests if requests is not None else int(120 * bench_scale())
    total = max(24, total)
    client_spec = ClientSpec(tool=tool, concurrency=concurrency, total_requests=total)
    kernel = Kernel(config=KernelConfig(network_latency_ns=latency_ns))
    if mode == "native":
        runner = native_server_runner
    elif mode == "remon":
        runner = remon_server_runner(Level.SOCKET_RW, replicas)
    elif mode == "ghumvee":
        runner = remon_server_runner(Level.NO_IPMON, replicas)
    elif mode == "varan":
        runner = varan_server_runner(replicas)
    else:
        raise ValueError(mode)
    result = run_server_benchmark(kernel, spec.program(), client_spec, spec.port, runner)
    if result.completed < total:
        raise AssertionError(
            "%s/%s completed only %d/%d requests (errors=%d)"
            % (server_name, mode, result.completed, total, result.errors)
        )
    return {
        "duration_ns": float(result.duration_ns),
        "completed": float(result.completed),
        "errors": float(result.errors),
        "rps": result.throughput_rps(),
        "p50_ns": float(result.latency_percentile(50)),
        "p99_ns": float(result.latency_percentile(99)),
    }
