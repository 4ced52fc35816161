"""Span tracing: the zero-cost-when-disabled contract, choke-point span
coverage, and the typed simulator trace sink."""

import functools
from dataclasses import replace

import pytest

from repro.core import Level, ReMon, ReMonConfig
from repro.guest.program import Program
from repro.kernel import Kernel
from repro.obs import ObsConfig
from repro.sim import Simulator, Sleep, TraceEvent
from repro.workloads.calibrate import calibrate
from repro.workloads.profiles import PARSEC_BENCHMARKS, derive_workload
from repro.workloads.synthetic import build_program


def run_mvee(program, obs=None, level=Level.NONSOCKET_RW, replicas=2,
             max_events=None):
    kernel = Kernel()
    mvee = ReMon(kernel, program, ReMonConfig(replicas=replicas, level=level,
                                              obs=obs))
    if max_events is not None:
        mvee.obs.tracer.max_events = max_events
    result = mvee.run(max_steps=400_000_000)
    assert not result.diverged, result.divergence
    return mvee, result


def busy_program(calls=40):
    def main(ctx):
        libc = ctx.libc
        for _ in range(calls):
            _pid = yield ctx.sys.getpid()
        fd = yield from libc.open("/data/f")
        _ret, _data = yield from libc.read(fd, 8)
        yield from libc.close(fd)
        return 0

    return Program("busy", main, files={"/data/f": b"payload!"})


class TestZeroCostWhenDisabled:
    def test_metrics_only_obs_is_free_in_virtual_time(self):
        """The headline determinism contract: an ObsConfig() with spans
        and recorder off must not move the virtual clock at all."""
        _, base = run_mvee(busy_program())
        _, metrics = run_mvee(busy_program(), obs=ObsConfig())
        assert metrics.wall_time_ns == base.wall_time_ns
        assert metrics.stats == base.stats

    def test_stats_keys_unchanged_by_obs(self):
        _, base = run_mvee(busy_program())
        _, traced = run_mvee(
            busy_program(), obs=ObsConfig(spans=True, flight_recorder=True)
        )
        assert set(traced.stats) == set(base.stats)

    def test_spans_charge_a_bounded_deterministic_cost(self):
        _, base = run_mvee(busy_program())
        _, spans_a = run_mvee(busy_program(), obs=ObsConfig(spans=True))
        _, spans_b = run_mvee(busy_program(), obs=ObsConfig(spans=True))
        assert base.wall_time_ns < spans_a.wall_time_ns
        assert spans_a.wall_time_ns <= 1.10 * base.wall_time_ns
        # Deterministic: same config, same clock.
        assert spans_a.wall_time_ns == spans_b.wall_time_ns


#: A quarter of the derived workloads' 40 ms of native run time.
FIGURE3_NATIVE_MS = 10.0


@functools.lru_cache(maxsize=None)
def parsec_workload(name):
    profile = next(b for b in PARSEC_BENCHMARKS if b.name == name)
    return replace(derive_workload(profile, calibrate()), native_ms=FIGURE3_NATIVE_MS)


@pytest.mark.parametrize("level", [Level.NO_IPMON, Level.NONSOCKET_RW],
                         ids=lambda level: level.name)
@pytest.mark.parametrize("bench", ["blackscholes", "dedup"])
def test_obs_overhead_on_figure3_workloads(bench, level):
    """The same contract on two Figure-3 workloads, a light one and the
    most syscall-heavy one: metrics-only is free, spans and spans +
    flight recorder are deterministic and cost under 10 %, and the wait
    histograms fill.

    Spans need not lengthen a run: their small charges shift thread
    interleavings, and some runs end a little earlier (dedup at 5 ms
    reads spans/base 0.998), so only the upper bound is asserted.
    """
    workload = parsec_workload(bench)

    def run(obs):
        return run_mvee(build_program(workload), obs=obs, level=level)

    _, base = run(None)
    metrics_mvee, metrics = run(ObsConfig())
    spans_mvee, spans = run(ObsConfig(spans=True))
    _, spans_again = run(ObsConfig(spans=True))
    _, full = run(ObsConfig(spans=True, flight_recorder=True))
    _, full_again = run(ObsConfig(spans=True, flight_recorder=True))
    assert metrics.wall_time_ns == base.wall_time_ns
    assert metrics.stats == base.stats
    for first, again in ((spans, spans_again), (full, full_again)):
        assert first.wall_time_ns == again.wall_time_ns
        assert first.stats == again.stats
    assert spans.wall_time_ns <= 1.10 * base.wall_time_ns
    assert full.wall_time_ns <= 1.10 * base.wall_time_ns
    hist = metrics_mvee.obs.registry.histograms["rendezvous_wait_ns"]
    assert hist.count > 0
    assert hist.percentile(50) <= hist.percentile(99)
    assert spans_mvee.obs.tracer.events


class TestSpanCoverage:
    def test_choke_points_emit_spans_with_sane_timestamps(self):
        mvee, result = run_mvee(busy_program(), obs=ObsConfig(spans=True))
        events = mvee.obs.tracer.events
        assert events and mvee.obs.tracer.dropped == 0
        components = {event.component for event in events}
        assert {"kernel", "ghumvee", "ipmon"} <= components
        for event in events:
            assert 0 <= event.time_ns <= result.wall_time_ns
            if event.kind == "span":
                assert event.dur_ns >= 0
        rendezvous = [e for e in events
                      if e.component == "ghumvee" and e.name == "rendezvous"]
        assert rendezvous and all(e.attrs["syscall"] for e in rendezvous)

    def test_event_buffer_is_bounded(self):
        mvee, _ = run_mvee(busy_program(), obs=ObsConfig(spans=True),
                           max_events=5)
        assert len(mvee.obs.tracer.events) == 5
        assert mvee.obs.tracer.dropped > 0

    def test_wait_histograms_populate_without_spans(self):
        mvee, _ = run_mvee(busy_program(), obs=ObsConfig())
        hist = mvee.obs.registry.histograms["rendezvous_wait_ns"]
        assert hist.count > 0
        assert hist.percentile(50) <= hist.percentile(99)


class TestSimulatorTraceSink:
    @staticmethod
    def _failing_task():
        yield Sleep(10)
        raise RuntimeError("boom")

    def test_typed_sink_receives_trace_events(self):
        received = []

        class Sink:
            def emit(self, event):
                received.append(event)

        sim = Simulator(trace=Sink())
        sim.spawn(self._failing_task(), "worker")
        sim.run()
        assert len(received) == 1
        event = received[0]
        assert isinstance(event, TraceEvent)
        assert (event.component, event.name) == ("sim", "task-failed")
        assert event.attrs["task"] == "worker"
        assert "boom" in event.attrs["failure"]

    def test_sink_without_emit_is_rejected(self):
        with pytest.raises(TypeError, match="emit"):
            Simulator(trace=lambda t, msg: None)

    def test_trace_event_formats_and_serializes(self):
        event = TraceEvent(42, "span", "kernel", "syscall", dur_ns=7,
                           attrs={"vtid": 0})
        assert event.message() == "kernel.syscall dur=7ns vtid=0"
        assert event.to_dict() == {
            "t": 42, "kind": "span", "component": "kernel",
            "name": "syscall", "dur_ns": 7, "attrs": {"vtid": 0},
        }

    def test_finalize_is_idempotent(self):
        mvee, result = run_mvee(busy_program(), obs=ObsConfig(spans=True))
        again = mvee.finalize()
        assert again.stats == result.stats
        assert again.wall_time_ns == result.wall_time_ns
