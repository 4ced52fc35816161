"""The divergence flight recorder: bounded rings, and postmortems that
name the diverging replica, syscall, and mismatched argument."""

import json

from repro.core import DegradationPolicy, Level, ReMon, ReMonConfig
from repro.faults import CrashFault, FaultInjector, FaultPlan
from repro.guest.program import Program
from repro.kernel import Kernel
from repro.obs import FlightRecorder, ObsConfig, write_postmortem


def run_seeded_divergence(obs_cfg=None):
    """Replica 1 opens a different path than replica 0, so the GHUMVEE
    rendezvous argument comparison catches it on ``open``. Returns the
    diverged result and its MVEE."""

    def main(ctx):
        path = "/data/a" if ctx.process.replica_index == 0 else "/data/b"
        fd = yield from ctx.libc.open(path)
        del fd
        return 0

    if obs_cfg is None:
        obs_cfg = ObsConfig(spans=True, flight_recorder=True, ring_size=32)
    program = Program("seeded-divergence", main,
                      files={"/data/a": b"x", "/data/b": b"y"})
    mvee = ReMon(Kernel(), program, ReMonConfig(obs=obs_cfg))
    result = mvee.run(max_steps=20_000_000)
    assert result.diverged, "seeded divergence did not trigger"
    return result, mvee


class TestRingBounds:
    def test_rings_are_bounded_per_replica(self):
        recorder = FlightRecorder(ring_size=4)
        for index in range(10):
            recorder.record(0, index, "syscall", "getpid", vtid=0)
        recorder.record(1, 99, "syscall", "open", vtid=0)
        tails = recorder.tails()
        assert [event["t"] for event in tails[0]] == [6, 7, 8, 9]
        assert len(tails[1]) == 1
        assert recorder.recorded == 11
        assert recorder.dropped == 6

    def test_tails_snapshot_is_detached(self):
        recorder = FlightRecorder(ring_size=4)
        recorder.record(0, 1, "syscall", "read")
        tails = recorder.tails()
        recorder.record(0, 2, "syscall", "write")
        assert len(tails[0]) == 1


class TestSeededDivergencePostmortem:
    def test_postmortem_names_replica_syscall_and_argument(self):
        """The acceptance scenario: replica 1 opens /data/b where the
        master opened /data/a; the postmortem must say exactly that."""
        result, _mvee = run_seeded_divergence()
        postmortem = result.postmortem
        assert postmortem is not None
        assert postmortem.reason == "divergence"
        assert postmortem.replica == 1
        assert postmortem.syscall == "open"
        assert postmortem.detected_by == "ghumvee"
        assert "arg 0 differs in replica 1" in postmortem.detail
        assert "/data/b" in postmortem.detail and "/data/a" in postmortem.detail
        assert len(postmortem.replica_args) == 2

    def test_postmortem_tails_cover_both_replicas(self):
        result, mvee = run_seeded_divergence()
        postmortem = result.postmortem
        assert set(postmortem.tails) == {0, 1}
        for tail in postmortem.tails.values():
            assert 0 < len(tail) <= mvee.obs.config.ring_size
            assert all(event["kind"] in ("syscall", "rendezvous", "fault")
                       for event in tail)
        # The diverging call itself is the last thing replica 1 saw.
        assert postmortem.tails[1][-1]["name"] == "open"

    def test_postmortem_carries_attribution_and_backoff(self):
        result, _mvee = run_seeded_divergence()
        postmortem = result.postmortem
        assert postmortem.attribution["replica"] == 1
        assert postmortem.attribution["master_index"] == 0
        assert "rendezvous_backoff_retries" in postmortem.backoff
        assert "rb_backoff_retries" in postmortem.backoff

    def test_postmortem_serializes_both_ways(self, tmp_path):
        result, _mvee = run_seeded_divergence()
        postmortem = result.postmortem
        encoded = json.dumps(postmortem.to_json())
        decoded = json.loads(encoded)
        assert decoded["replica"] == 1 and decoded["syscall"] == "open"
        path = tmp_path / "postmortem.json"
        write_postmortem(str(path), postmortem)
        written = json.loads(path.read_text())
        assert written["replica"] == 1 and written["syscall"] == "open"
        assert "arg 0 differs in replica 1" in written["detail"]
        assert written["tails"]["0"] and written["tails"]["1"]
        text = postmortem.to_text()
        assert "diverging replica: 1" in text
        assert "replica 1 tail" in text

    def test_tiny_ring_still_keeps_the_fatal_call(self):
        result, _mvee = run_seeded_divergence(
            ObsConfig(flight_recorder=True, ring_size=2)
        )
        postmortem = result.postmortem
        assert all(len(tail) <= 2 for tail in postmortem.tails.values())
        assert postmortem.tails[1][-1]["name"] == "open"


class TestQuarantinePostmortem:
    def test_quarantine_produces_attributed_postmortem(self):
        def main(ctx):
            for _ in range(40):
                _pid = yield ctx.sys.getpid()
            return 0

        kernel = Kernel()
        plan = FaultPlan(faults=[CrashFault(replica=1, after_syscalls=10)])
        FaultInjector(plan).install(kernel)
        mvee = ReMon(
            kernel,
            Program("crashy", main),
            ReMonConfig(
                replicas=3,
                level=Level.NONSOCKET_RW,
                degradation=DegradationPolicy(min_quorum=2),
                obs=ObsConfig(flight_recorder=True),
            ),
        )
        result = mvee.run(max_steps=80_000_000)
        assert not result.diverged, result.divergence
        assert result.quarantined_replicas == [1]
        postmortem = result.postmortem
        assert postmortem is not None
        assert postmortem.reason == "quarantine"
        assert postmortem.replica == 1
        assert postmortem.attribution["quarantined"] == [1]
        # The injected crash itself is on the quarantined replica's tail.
        assert any(event["kind"] == "fault"
                   for event in postmortem.tails[1])
