"""Tier-1 obs smoke: a traced run auto-exports its trace and Prometheus
files at finalize, and both parse."""

import json

from repro.core import Level, ReMon, ReMonConfig
from repro.guest.program import Program
from repro.kernel import Kernel
from repro.obs import ObsConfig


def traced_program():
    def main(ctx):
        libc = ctx.libc
        for _ in range(20):
            _pid = yield ctx.sys.getpid()
        fd = yield from libc.open("/data/f")
        _ret, _data = yield from libc.read(fd, 4)
        yield from libc.close(fd)
        return 0

    return Program("smoke", main, files={"/data/f": b"data"})


def test_traced_run_exports_parse(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    prom_path = tmp_path / "metrics.prom"
    obs = ObsConfig(
        spans=True,
        trace_path=str(trace_path),
        prometheus_path=str(prom_path),
    )
    kernel = Kernel()
    mvee = ReMon(kernel, traced_program(),
                 ReMonConfig(level=Level.NONSOCKET_RW, obs=obs))
    result = mvee.run(max_steps=20_000_000)
    assert not result.diverged, result.divergence

    events = [json.loads(line)
              for line in trace_path.read_text().splitlines()]
    assert events and len(events) == len(mvee.obs.tracer.events)
    assert all(0 <= event["t"] <= result.wall_time_ns for event in events)
    assert {"kernel", "ghumvee"} <= {event["component"] for event in events}

    prom = prom_path.read_text()
    assert "# TYPE repro_rendezvous_wait_ns histogram" in prom
    assert 'repro_rendezvous_wait_ns_bucket{le="+Inf"}' in prom
    assert "repro_stat_monitored_calls" in prom
    # Legacy stats still present and exported as gauges.
    assert result.stats["monitored_calls"] > 0


def test_obs_defaults_are_inert():
    kernel = Kernel()
    mvee = ReMon(kernel, traced_program(),
                 ReMonConfig(level=Level.NONSOCKET_RW))
    result = mvee.run(max_steps=20_000_000)
    assert not result.diverged
    assert not mvee.obs.active
    assert mvee.obs.tracer.events == []
    assert mvee.obs.recorder is None
    assert result.postmortem is None
