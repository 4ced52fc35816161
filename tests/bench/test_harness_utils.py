"""Benchmark-harness utility behaviour."""

from repro.bench.harness import bench_scale, timed_exhibit_run
from repro.bench.figure5 import replica_counts


class TestBenchScale:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == 1.0

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
        assert bench_scale() == 0.25

    def test_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "lots")
        assert bench_scale() == 1.0

    def test_floor_prevents_zero(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.000001")
        assert bench_scale() >= 0.05


class TestReplicaCounts:
    def test_full_range_by_default(self):
        assert replica_counts() == [2, 3, 4, 5, 6, 7]


def test_timed_exhibit_run_is_self_contained():
    first = timed_exhibit_run()
    second = timed_exhibit_run()
    assert first == second  # deterministic virtual time
    assert first > 0
