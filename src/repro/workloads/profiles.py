"""Benchmark profiles reconstructed from the paper's own figures.

For every benchmark, the paper reports normalized execution times under
GHUMVEE alone and under IP-MON at one or more relaxation levels
(Figures 3 and 4). Those numbers pin down the benchmark's syscall
profile: the overhead drop when level L becomes active measures how
much of the benchmark's syscall traffic belongs to the category level L
exempts, in units of (t_mon - t_ipmon) per call — both of which we
*measure* on this simulator (:mod:`repro.workloads.calibrate`).

The derived category rates are therefore exactly the profile that makes
the reconstructed benchmark behave like the paper's real one on this
substrate. The residual overhead at full relaxation is split between
replica cache pressure (bounded by ``PRESSURE_CAP``) and always-
monitored management calls.

Inversions in the paper's data (an IP-MON bar slightly *above* the
GHUMVEE bar, e.g. ferret) are measurement noise; the derivation clamps
those deltas at zero, so our reproduction reports the envelope instead
of reproducing the noise.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.policies import Level
from repro.workloads.calibrate import Calibration, calibrate
from repro.workloads.synthetic import CategoryMix, SyntheticWorkload

#: Which category each relaxation level unlocks, and how split traffic
#: is shared when only aggregate information is available.
LEVEL_CATEGORIES = {
    Level.BASE: (("base", 1.0),),
    Level.NONSOCKET_RO: (("file_ro", 0.4), ("futex", 0.6)),
    Level.NONSOCKET_RW: (("file_rw", 1.0),),
    Level.SOCKET_RO: (("sock_ro", 1.0),),
    Level.SOCKET_RW: (("sock_rw", 1.0),),
}

#: Residual overhead attributed to cache pressure before management
#: calls absorb the rest.
PRESSURE_CAP_SUITE = 0.10
PRESSURE_CAP_PHORONIX = 0.05

#: The cost model's pressure for one extra replica (sensitivity 1.0).
BASE_PRESSURE = 0.035


@dataclass
class PaperBenchmark:
    """One benchmark's published results."""

    name: str
    #: Normalized execution time per level; NO_IPMON is required. Suites
    #: measured at a single relaxation level provide just that level.
    targets: Dict[Level, float]
    threads: int = 1
    #: How exempt traffic splits across NONSOCKET_RO categories when the
    #: paper only gives aggregate numbers (PARSEC/SPLASH): most of these
    #: suites' calls are futexes from the pthreads runtime.
    pressure_cap: float = PRESSURE_CAP_SUITE
    native_ms: Optional[float] = None

    def full_series(self) -> Dict[Level, float]:
        """Fill in unmeasured levels monotonically."""
        series = {}
        previous = self.targets[Level.NO_IPMON]
        for level in sorted(Level):
            if level in self.targets:
                previous = self.targets[level]
            series[level] = previous
        return series


#: Category exempted at each level index 1..5 (bundles keep the fixed
#: NONSOCKET_RO split between file reads and futexes).
_LEVEL_ORDER = [
    Level.BASE,
    Level.NONSOCKET_RO,
    Level.NONSOCKET_RW,
    Level.SOCKET_RO,
    Level.SOCKET_RW,
]


def predict_overhead(
    level: Level,
    bundle_rates,
    mgmt_rate: float,
    pressure: float,
    threads: int,
    cal: Calibration,
) -> float:
    """Analytic wall-time model mirroring the simulator.

    Monitored calls serialize on the monitor (its waitpid loop and the
    kernel's tracing locks), so a run is either *compute-bound* — each
    thread pays its own per-call latencies — or *monitor-bound* — the
    wall clock is the monitor's total serial handling time. The paper's
    high-density benchmarks (dedup, water_spatial, network-loopback) sit
    deep in the monitor-bound regime, which is exactly why their GHUMVEE
    overheads are so dramatic.
    """
    t_m = cal.t_mon_ns / 1e9
    t_i = cal.t_ipmon_ns / 1e9
    monitored = mgmt_rate
    unmonitored = 0.0
    for idx, lvl in enumerate(_LEVEL_ORDER):
        if lvl <= level:
            unmonitored += bundle_rates[idx]
        else:
            monitored += bundle_rates[idx]
    per_thread = (monitored * t_m + unmonitored * t_i) / max(1, threads)
    compute_bound = 1.0 + pressure + per_thread
    monitor_bound = monitored * t_m
    return max(compute_bound, monitor_bound)


#: derive_workload results by their full inputs; callers get copies,
#: because a SyntheticWorkload and its CategoryMix are mutable.
_DERIVED: Dict[tuple, SyntheticWorkload] = {}


def derive_workload(
    bench: PaperBenchmark,
    cal: Optional[Calibration] = None,
    native_ms: float = 40.0,
    seed: int = 7,
) -> SyntheticWorkload:
    """Invert the paper's overhead series into category call rates.

    Uses bounded least squares over the analytic model above: unknowns
    are the five per-level traffic bundles, the always-monitored
    management rate, and the cache-pressure term (bounded by the
    benchmark's pressure cap).

    Each distinct input is derived once per process; every call returns
    a fresh copy of the result.
    """
    cal = cal or calibrate()
    key = (
        bench.name,
        tuple(sorted(bench.targets.items())),
        bench.threads,
        bench.pressure_cap,
        bench.native_ms,
        cal,
        native_ms,
        seed,
    )
    workload = _DERIVED.get(key)
    if workload is None:
        workload = _DERIVED[key] = _derive(bench, cal, native_ms, seed)
    return copy.deepcopy(workload)


def _derive(
    bench: PaperBenchmark, cal: Calibration, native_ms: float, seed: int
) -> SyntheticWorkload:
    import numpy as np
    from scipy.optimize import minimize

    series = bench.full_series()
    t_m = cal.t_mon_ns / 1e9
    t_i = cal.t_ipmon_ns / 1e9

    # Initial guess from the naive delta rule (per-thread scaled).
    x0 = []
    previous = series[Level.NO_IPMON]
    for lvl in _LEVEL_ORDER:
        delta = max(0.0, previous - series[lvl])
        previous = min(previous, series[lvl])
        x0.append(delta * max(1, bench.threads) / max(1e-9, t_m - t_i))
    leftover0 = max(0.0, series[Level.SOCKET_RW] - 1.0)
    x0.append(leftover0 / t_m)  # mgmt
    x0.append(min(bench.pressure_cap, leftover0))  # pressure

    # Optimize in log space (rates span decades); Nelder-Mead copes with
    # the compute/monitor-bound kink in the model.
    def unpack(theta):
        bundles = np.expm1(np.clip(theta[:5], 0.0, 20.0))
        mgmt = float(np.expm1(np.clip(theta[5], 0.0, 20.0)))
        pressure = float(np.clip(theta[6], 0.0, bench.pressure_cap))
        return bundles, mgmt, pressure

    # predict_overhead() for every observed level, with what does not
    # depend on theta worked out once: each level's clamped target and
    # which bundles it exempts. The float operations and their order
    # are predict_overhead's, so the optimum is the same bit for bit.
    threads = max(1, bench.threads)
    observed = [
        (max(1.0, bench.targets[level]), [lvl <= level for lvl in _LEVEL_ORDER])
        for level in sorted(bench.targets)
    ]

    def objective(theta):
        bundles, mgmt, pressure = unpack(theta)
        rates = bundles.tolist()
        err = 0.0
        for target, exempt in observed:
            monitored = mgmt
            unmonitored = 0.0
            for idx in range(5):
                if exempt[idx]:
                    unmonitored += rates[idx]
                else:
                    monitored += rates[idx]
            per_thread = (monitored * t_m + unmonitored * t_i) / threads
            pred = max(1.0 + pressure + per_thread, monitored * t_m)
            err += ((pred - target) / target) ** 2
        # Weak preference for exempt-category attribution over mgmt.
        err += (1e-3 * mgmt * t_m) ** 2
        return err

    theta0 = np.array([np.log1p(max(0.0, v)) for v in x0[:6]] + [x0[6]])
    best = minimize(
        objective,
        theta0,
        method="Nelder-Mead",
        options={"maxiter": 6000, "xatol": 1e-6, "fatol": 1e-10},
    )
    bundles, mgmt_rate, pressure = unpack(best.x)

    rates: Dict[str, float] = {}
    for idx, lvl in enumerate(_LEVEL_ORDER):
        for category, share in LEVEL_CATEGORIES[lvl]:
            value = float(bundles[idx]) * share
            if value > 1.0:
                rates[category] = rates.get(category, 0.0) + value
    if mgmt_rate > 1.0:
        rates["mgmt"] = mgmt_rate

    sensitivity = pressure / BASE_PRESSURE if BASE_PRESSURE else 0.0

    # Keep simulations tractable: bound the total number of calls while
    # keeping rates (and thus overhead ratios) intact.
    total_rate = sum(rates.values())
    ms = bench.native_ms or native_ms
    if total_rate > 0:
        max_calls = 6000.0
        ms = min(ms, max(4.0, max_calls / total_rate * 1000.0))

    return SyntheticWorkload(
        name=bench.name,
        native_ms=ms,
        mix=CategoryMix(rates),
        threads=bench.threads,
        cache_sensitivity=sensitivity,
        seed=seed + (_stable_hash(bench.name) & 0xFFFF),
    )


def _stable_hash(text: str) -> int:
    value = 2166136261
    for ch in text.encode():
        value = (value ^ ch) * 16777619 & 0xFFFFFFFF
    return value


def _two_point(name: str, no_ipmon: float, nonsocket_rw: float, threads: int = 4):
    """PARSEC/SPLASH benchmarks were published at two configurations.

    The exempted traffic of these suites is dominated by pthreads
    futexes and file reads (NONSOCKET_RO categories) with a sliver of
    BASE-level getters, so the derivation places 10% of the drop at
    BASE_LEVEL and the rest at NONSOCKET_RO_LEVEL.
    """
    drop = max(0.0, no_ipmon - nonsocket_rw)
    return PaperBenchmark(
        name,
        {
            Level.NO_IPMON: no_ipmon,
            Level.BASE: no_ipmon - 0.1 * drop,
            Level.NONSOCKET_RO: no_ipmon - drop,
            Level.NONSOCKET_RW: nonsocket_rw,
        },
        threads=threads,
    )


# ---------------------------------------------------------------------------
# Figure 3 — PARSEC 2.1 (4 worker threads, 2 replicas)
# ---------------------------------------------------------------------------
PARSEC_BENCHMARKS: List[PaperBenchmark] = [
    _two_point("blackscholes", 1.09, 1.04),
    _two_point("bodytrack", 1.15, 1.03),
    _two_point("dedup", 3.53, 1.69),
    _two_point("facesim", 1.11, 1.03),
    _two_point("ferret", 1.04, 1.11),
    _two_point("fluidanimate", 1.28, 1.33),
    _two_point("freqmine", 1.06, 1.05),
    _two_point("raytrace", 1.03, 1.00),
    _two_point("streamcluster", 1.16, 0.97),
    _two_point("swaptions", 1.07, 1.07),
    _two_point("vips", 1.10, 1.03),
    _two_point("x264", 1.11, 1.16),
]

#: Paper geomeans for Figure 3 (PARSEC): no IP-MON 1.219, IP-MON 1.112.
PARSEC_GEOMEAN_TARGETS = {"no_ipmon": 1.22, "ipmon": 1.11}

# ---------------------------------------------------------------------------
# Figure 3 — SPLASH-2x
# ---------------------------------------------------------------------------
SPLASH_BENCHMARKS: List[PaperBenchmark] = [
    _two_point("barnes", 1.48, 1.52),
    _two_point("fft", 1.03, 1.02),
    _two_point("fmm", 1.55, 1.13),
    _two_point("lu_cb", 1.01, 1.00),
    _two_point("lu_ncb", 0.94, 0.95),
    _two_point("ocean_cp", 1.06, 1.05),
    _two_point("ocean_ncp", 1.09, 1.05),
    _two_point("radiosity", 1.63, 1.38),
    _two_point("radix", 1.05, 1.05),
    _two_point("raytrace_sp", 1.17, 1.02),
    _two_point("volrend", 1.22, 1.07),
    _two_point("water_nsquared", 1.04, 1.02),
    _two_point("water_spatial", 4.20, 1.21),
]

SPLASH_GEOMEAN_TARGETS = {"no_ipmon": 1.29, "ipmon": 1.10}


def _phoronix(name, series, threads=1):
    levels = [
        Level.NO_IPMON,
        Level.BASE,
        Level.NONSOCKET_RO,
        Level.NONSOCKET_RW,
        Level.SOCKET_RO,
        Level.SOCKET_RW,
    ]
    return PaperBenchmark(
        name,
        dict(zip(levels, series)),
        threads=threads,
        pressure_cap=PRESSURE_CAP_PHORONIX,
    )


# ---------------------------------------------------------------------------
# Figure 4 — Phoronix (all six configurations, 2 replicas)
# ---------------------------------------------------------------------------
PHORONIX_BENCHMARKS: List[PaperBenchmark] = [
    _phoronix("compress-gzip", [1.11, 1.11, 1.04, 1.04, 1.04, 1.05]),
    _phoronix("encode-flac", [1.17, 1.17, 1.08, 1.02, 1.02, 1.02]),
    _phoronix("encode-ogg", [1.09, 1.10, 1.06, 1.01, 1.01, 1.01]),
    _phoronix("mencoder", [1.05, 1.04, 1.01, 1.00, 1.00, 1.00]),
    _phoronix("phpbench", [2.48, 1.90, 1.90, 1.13, 1.13, 1.13]),
    _phoronix("unpack-linux", [1.47, 1.48, 1.44, 1.22, 1.17, 1.17]),
    _phoronix("network-loopback", [25.46, 25.36, 24.89, 17.03, 9.18, 3.00], threads=2),
    _phoronix("nginx-phoronix", [9.77, 7.76, 7.74, 7.58, 6.65, 3.71], threads=4),
]

PHORONIX_GEOMEAN_TARGETS = {"no_ipmon": 2.464, "socket_rw": 1.412}


def workloads_for(benchmarks: List[PaperBenchmark], cal: Optional[Calibration] = None):
    cal = cal or calibrate()
    return [(bench, derive_workload(bench, cal)) for bench in benchmarks]
