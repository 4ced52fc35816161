"""``derive_workload`` is memoized and its objective precomputed, with
results identical to the plain derivation it replaced.

``reference_derive_workload`` below is that plain derivation, verbatim:
no cache, and ``predict_overhead`` called per observed level inside the
objective. Every suite benchmark must derive to the same
``SyntheticWorkload``, field by field and bit for bit.
"""

from typing import Dict

import pytest

from repro.core.policies import Level
from repro.workloads.calibrate import calibrate
from repro.workloads.profiles import (
    _LEVEL_ORDER,
    BASE_PRESSURE,
    LEVEL_CATEGORIES,
    PARSEC_BENCHMARKS,
    PHORONIX_BENCHMARKS,
    SPLASH_BENCHMARKS,
    _stable_hash,
    derive_workload,
    predict_overhead,
)
from repro.workloads.synthetic import CategoryMix, SyntheticWorkload

SUITE = PARSEC_BENCHMARKS + SPLASH_BENCHMARKS + PHORONIX_BENCHMARKS


def reference_derive_workload(bench, cal, native_ms=40.0, seed=7):
    import numpy as np
    from scipy.optimize import minimize

    series = bench.full_series()
    observed_levels = sorted(bench.targets)
    t_m = cal.t_mon_ns / 1e9
    t_i = cal.t_ipmon_ns / 1e9

    x0 = []
    previous = series[Level.NO_IPMON]
    for lvl in _LEVEL_ORDER:
        delta = max(0.0, previous - series[lvl])
        previous = min(previous, series[lvl])
        x0.append(delta * max(1, bench.threads) / max(1e-9, t_m - t_i))
    leftover0 = max(0.0, series[Level.SOCKET_RW] - 1.0)
    x0.append(leftover0 / t_m)
    x0.append(min(bench.pressure_cap, leftover0))

    def unpack(theta):
        bundles = np.expm1(np.clip(theta[:5], 0.0, 20.0))
        mgmt = float(np.expm1(np.clip(theta[5], 0.0, 20.0)))
        pressure = float(np.clip(theta[6], 0.0, bench.pressure_cap))
        return bundles, mgmt, pressure

    def objective(theta):
        bundles, mgmt, pressure = unpack(theta)
        err = 0.0
        for lvl in observed_levels:
            target = max(1.0, bench.targets[lvl])
            pred = predict_overhead(lvl, bundles, mgmt, pressure, bench.threads, cal)
            err += ((pred - target) / target) ** 2
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


def fields(workload):
    """Every field, floats as their exact hex form."""
    def exact(value):
        return value.hex() if isinstance(value, float) else value

    return {
        "name": workload.name,
        "native_ms": exact(workload.native_ms),
        "rates": {key: exact(rate) for key, rate in workload.mix.rates.items()},
        "threads": workload.threads,
        "cache_sensitivity": exact(workload.cache_sensitivity),
        "seed": workload.seed,
    }


def test_suite_has_33_benchmarks():
    assert len(SUITE) == 33


def test_every_suite_benchmark_derives_as_the_reference():
    cal = calibrate()
    for bench in SUITE:
        got = derive_workload(bench, cal)
        want = reference_derive_workload(bench, cal)
        assert fields(got) == fields(want), bench.name
        # Rates keep their insertion order too (schedules iterate them).
        assert list(got.mix.rates) == list(want.mix.rates), bench.name


@pytest.mark.parametrize("native_ms, seed", [(5.0, 1), (5.0, 2), (40.0, 7)])
def test_arguments_are_part_of_the_key(native_ms, seed):
    cal = calibrate()
    bench = next(b for b in SUITE if b.name == "phpbench")
    got = derive_workload(bench, cal, native_ms=native_ms, seed=seed)
    want = reference_derive_workload(bench, cal, native_ms=native_ms, seed=seed)
    assert fields(got) == fields(want)


def test_each_call_returns_a_fresh_copy():
    cal = calibrate()
    bench = PHORONIX_BENCHMARKS[0]
    first = derive_workload(bench, cal)
    first.native_ms = -1.0
    first.mix.rates["base"] = -1.0
    second = derive_workload(bench, cal)
    assert second is not first and second.mix is not first.mix
    assert fields(second) == fields(reference_derive_workload(bench, cal))
