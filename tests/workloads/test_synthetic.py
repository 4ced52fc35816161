"""Synthetic workload generator tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.native import run_native
from repro.workloads.synthetic import (
    CALLS_PER_OP,
    CATEGORIES,
    CategoryMix,
    SyntheticWorkload,
    build_program,
)


class TestScheduling:
    def test_schedule_respects_rates(self):
        workload = SyntheticWorkload(
            "t", native_ms=100, mix=CategoryMix({"base": 1000, "file_ro": 2000})
        )
        schedule = workload.schedule()
        assert schedule.count("base") == 100
        assert schedule.count("file_ro") == 200

    def test_mgmt_ops_counted_as_call_pairs(self):
        workload = SyntheticWorkload("t", native_ms=100, mix=CategoryMix({"mgmt": 1000}))
        assert workload.schedule().count("mgmt") == 50  # 2 calls per op

    def test_schedule_deterministic_per_seed(self):
        mix = CategoryMix({"base": 500, "futex": 500})
        a = SyntheticWorkload("t", 50, mix, seed=3).schedule()
        b = SyntheticWorkload("t", 50, mix, seed=3).schedule()
        c = SyntheticWorkload("t", 50, mix, seed=4).schedule()
        assert a == b
        assert a != c  # different shuffle

    def test_memoized_schedule_follows_edits_and_is_a_fresh_list(self):
        workload = SyntheticWorkload("t", native_ms=100, mix=CategoryMix({"base": 1000}))
        first = workload.schedule()
        first.append("mgmt")
        assert workload.schedule().count("mgmt") == 0
        workload.mix.rates["mgmt"] = 1000
        workload.native_ms = 200
        assert workload.schedule().count("mgmt") == 100
        assert workload.schedule().count("base") == 200

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            CategoryMix({"bogus": 1.0})


class TestExecution:
    @settings(max_examples=8, deadline=None)
    @given(
        category=st.sampled_from([c for c in CATEGORIES]),
    )
    def test_every_category_runs_natively(self, category):
        workload = SyntheticWorkload(
            "cat-%s" % category,
            native_ms=2.0,
            mix=CategoryMix({category: 5000}),
        )
        native = run_native(build_program(workload))
        assert native.exit_code == 0
        expected_calls = int(
            5000 * 0.002 / CALLS_PER_OP[category] * CALLS_PER_OP[category]
        )
        assert native.syscalls >= expected_calls * 0.8

    def test_syscall_rate_close_to_requested(self):
        rate = 50_000
        workload = SyntheticWorkload(
            "rate", native_ms=20, mix=CategoryMix({"base": rate, "file_ro": rate})
        )
        native = run_native(build_program(workload))
        measured = native.syscall_rate_per_sec()
        # Setup calls and per-call kernel time distort slightly.
        assert 0.5 * 2 * rate <= measured <= 1.5 * 2 * rate

    def test_multithreaded_workload_completes(self):
        workload = SyntheticWorkload(
            "mt", native_ms=5, mix=CategoryMix({"futex": 20_000}), threads=4
        )
        native = run_native(build_program(workload))
        assert native.exit_code == 0

    def test_pure_compute_workload(self):
        workload = SyntheticWorkload("cpu", native_ms=10, mix=CategoryMix({}))
        native = run_native(build_program(workload))
        assert native.exit_code == 0
        assert native.wall_time_ns >= 10_000_000


class TestProfileDerivation:
    def test_derived_rates_nonnegative_and_finite(self):
        from repro.workloads.calibrate import calibrate
        from repro.workloads.profiles import (
            PARSEC_BENCHMARKS,
            PHORONIX_BENCHMARKS,
            SPLASH_BENCHMARKS,
            derive_workload,
        )

        cal = calibrate()
        for bench in PARSEC_BENCHMARKS + SPLASH_BENCHMARKS + PHORONIX_BENCHMARKS:
            workload = derive_workload(bench, cal)
            for category, rate in workload.mix.rates.items():
                assert rate >= 0, (bench.name, category)
                assert rate < 5e7
            assert 0 <= workload.cache_sensitivity <= 4

    def test_model_matches_paper_targets(self):
        """The analytic inversion reproduces each observed point within
        tolerance — before any simulation runs."""
        from repro.core.policies import Level
        from repro.workloads.calibrate import calibrate
        from repro.workloads.profiles import (
            PHORONIX_BENCHMARKS,
            _LEVEL_ORDER,
            derive_workload,
            predict_overhead,
        )

        cal = calibrate()
        for bench in PHORONIX_BENCHMARKS:
            workload = derive_workload(bench, cal)
            rates = workload.mix.rates
            bundles = [
                rates.get("base", 0),
                rates.get("file_ro", 0) + rates.get("futex", 0),
                rates.get("file_rw", 0),
                rates.get("sock_ro", 0),
                rates.get("sock_rw", 0),
            ]
            pressure = workload.cache_sensitivity * 0.035
            for level, target in bench.targets.items():
                predicted = predict_overhead(
                    level, bundles, rates.get("mgmt", 0), pressure, bench.threads, cal
                )
                assert predicted == pytest.approx(max(1.0, target), rel=0.15), (
                    bench.name,
                    level,
                    predicted,
                    target,
                )

    def test_calibration_magnitudes(self):
        from repro.workloads.calibrate import calibrate

        cal = calibrate()
        assert 1_000 < cal.t_mon_ns < 200_000  # microseconds-scale
        assert 100 < cal.t_ipmon_ns < 20_000  # sub-microsecond-ish
        assert cal.t_mon_ns > 5 * cal.t_ipmon_ns
