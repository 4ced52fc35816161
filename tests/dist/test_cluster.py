"""End-to-end distributed MVEE tests: completion, adoption, determinism,
and both divergence-detection lanes (async digest + lockstep)."""

from __future__ import annotations

import pytest

from repro.core import Level, ReMonConfig
from repro.dist import DistConfig, DistMvee, run_distributed
from repro.guest.program import Program
from repro.kernel import constants as C
from repro.workloads.synthetic import CategoryMix, SyntheticWorkload, build_program

MAX_STEPS = 80_000_000


def dist_config(**kwargs):
    return ReMonConfig(
        replicas=kwargs.pop("replicas", 3),
        level=kwargs.pop("level", Level.NONSOCKET_RW),
        dist=DistConfig(**kwargs.pop("dist_kwargs", {})),
        **kwargs,
    )


def run_tuned(program, config, codec=None, jitter_ns=0):
    """``run_distributed`` with the transport's mirror codec and the
    network's link jitter set before the run."""
    mvee = DistMvee(program, config)
    mvee.transport.codec = codec
    mvee.network.jitter_ns = jitter_ns
    return mvee.run(max_steps=MAX_STEPS)


def mixed_program(exit_code=5):
    """Local file I/O + replicated clock reads + monitored open."""

    def main(ctx):
        libc = ctx.libc
        for _ in range(10):
            _pid = yield ctx.sys.getpid()
            _now = yield from libc.clock_gettime()
        fd = yield from libc.open("/data/input.txt", C.O_RDONLY)
        assert fd >= 0, fd
        ret, data = yield from libc.read(fd, 64)
        assert data == b"same bytes on every node"
        yield from libc.close(fd)
        out = yield from libc.open("/tmp/out.txt", C.O_WRONLY | C.O_CREAT)
        ret = yield from libc.write(out, b"distributed")
        assert ret == len(b"distributed")
        yield from libc.close(out)
        return exit_code

    return Program(
        "mixed", main, files={"/data/input.txt": b"same bytes on every node"}
    )


class TestCompletion:
    def test_three_nodes_complete_identically(self):
        result = run_distributed(mixed_program(), dist_config(),
                                 max_steps=MAX_STEPS)
        assert not result.diverged, result.divergence
        assert result.exit_codes == [5, 5, 5]
        assert result.shutdown_reason == "all replicas exited"
        assert result.stats["dist_nodes"] == 3
        # Every lane saw traffic: local file I/O, replicated clock
        # reads, and monitored (rendezvous) calls.
        assert result.stats["dist_local_calls"] > 0
        assert result.stats["dist_replicated_calls"] > 0
        assert result.stats["dist_rendezvous_calls"] > 0
        assert result.stats["dist_async_mismatches"] == 0

    def test_followers_adopt_leader_results(self):
        result = run_distributed(mixed_program(), dist_config(),
                                 max_steps=MAX_STEPS)
        # Two followers adopt each of the leader's replicated results.
        assert result.stats["dist_adopted_results"] == (
            2 * result.stats["dist_replicated_calls"]
        )

    def test_each_node_wrote_its_own_filesystem(self):
        mvee = DistMvee(mixed_program(), dist_config())
        result = mvee.run(max_steps=MAX_STEPS)
        assert not result.diverged
        for node in mvee.nodes:
            vfs_node, err = node.kernel.fs.resolve("/tmp/out.txt")
            assert err == 0
            assert bytes(vfs_node.data) == b"distributed"

    def test_solo_node_runs_without_monitor_traffic(self):
        result = run_distributed(
            mixed_program(), dist_config(replicas=1), max_steps=MAX_STEPS
        )
        assert not result.diverged
        assert result.exit_codes == [5]
        assert result.stats["dist_messages"] == 0

    def test_two_node_cluster(self):
        result = run_distributed(
            mixed_program(), dist_config(replicas=2), max_steps=MAX_STEPS
        )
        assert not result.diverged
        assert result.exit_codes == [5, 5]

    def test_wall_time_exceeds_single_machine_compute(self):
        result = run_distributed(mixed_program(), dist_config(),
                                 max_steps=MAX_STEPS)
        # Rendezvous rounds pay cross-node round trips.
        assert result.wall_time_ns > 2 * 100_000


class TestDeterminism:
    def test_identical_runs_are_bit_identical(self):
        a = run_tuned(mixed_program(), dist_config(), jitter_ns=20_000)
        b = run_tuned(mixed_program(), dist_config(), jitter_ns=20_000)
        assert a.wall_time_ns == b.wall_time_ns
        assert a.stats == b.stats
        assert a.exit_codes == b.exit_codes

    def test_latency_slows_the_cluster(self):
        fast = run_distributed(mixed_program(), dist_config(
            dist_kwargs={"link_latency_ns": 20_000}), max_steps=MAX_STEPS)
        slow = run_distributed(mixed_program(), dist_config(
            dist_kwargs={"link_latency_ns": 2_000_000}), max_steps=MAX_STEPS)
        assert slow.wall_time_ns > fast.wall_time_ns


class TestDivergenceDetection:
    def test_async_digest_lane_catches_local_divergence(self):
        """A compromised follower writes different bytes to a local file:
        caught lazily by the digest cross-check, not a rendezvous."""

        def main(ctx):
            libc = ctx.libc
            evil = ctx.process.name.endswith(".n1")
            out = yield from libc.open("/tmp/log.txt", C.O_WRONLY | C.O_CREAT)
            yield from libc.write(out, b"EVIL BYTES" if evil else b"good data!")
            yield from libc.close(out)
            for _ in range(40):
                yield ctx.sys.getpid()
            return 0

        result = run_distributed(Program("async-div", main), dist_config(),
                                 max_steps=MAX_STEPS)
        assert result.diverged
        assert result.divergence.detected_by == "dist-async"
        assert result.stats["dist_async_mismatches"] >= 1

    def test_lockstep_lane_catches_monitored_divergence(self):
        """Divergent *monitored* arguments stall the call itself: the
        rendezvous digest vote fails before anyone executes."""

        def main(ctx):
            libc = ctx.libc
            evil = ctx.process.name.endswith(".n2")
            path = "/tmp/exfil" if evil else "/tmp/legit"
            fd = yield from libc.open(path, C.O_WRONLY | C.O_CREAT)
            yield from libc.close(fd)
            return 0

        result = run_distributed(
            Program("lockstep-div", main),
            dist_config(level=Level.BASE),
            max_steps=MAX_STEPS,
        )
        assert result.diverged
        assert result.divergence.detected_by == "dist-lockstep"
        # The diverging call was never released on any node.
        assert "divergence" in result.shutdown_reason

    def test_clean_program_raises_no_false_positives_at_every_level(self):
        for level in (Level.NO_IPMON, Level.BASE, Level.NONSOCKET_RW,
                      Level.SOCKET_RW):
            result = run_distributed(mixed_program(), dist_config(level=level),
                                     max_steps=MAX_STEPS)
            assert not result.diverged, (level, result.divergence)


#: The off-by-default fast path: sharded rendezvous (a DistConfig
#: knob) plus dict-coded mirrors (the transport's codec).
FAST_PATH = {"shard_rendezvous": True}
FAST_CODEC = "dict"


class TestFastPath:
    def test_clean_program_completes_with_fast_path(self):
        result = run_tuned(
            mixed_program(), dist_config(dist_kwargs=dict(FAST_PATH)),
            codec=FAST_CODEC,
        )
        assert not result.diverged, result.divergence
        assert result.exit_codes == [5, 5, 5]
        assert result.stats["dist_wire_errors"] == 0
        # The codec actually touched mirror traffic, and rounds were
        # owned by more than one shard.
        assert result.stats["dist_payload_raw_bytes"] > 0
        assert result.stats["dist_shards"] > 1

    def test_fast_path_matches_baseline_semantics(self):
        base = run_distributed(mixed_program(), dist_config(),
                               max_steps=MAX_STEPS)
        fast = run_tuned(
            mixed_program(), dist_config(dist_kwargs=dict(FAST_PATH)),
            codec=FAST_CODEC,
        )
        # Same outcome and identical lane traffic — the fast path only
        # changes who owns each round and how bytes travel.
        assert fast.exit_codes == base.exit_codes
        for key in ("dist_local_calls", "dist_replicated_calls",
                    "dist_rendezvous_calls", "dist_rendezvous_completed",
                    "dist_async_mismatches"):
            assert fast.stats[key] == base.stats[key], key
        assert fast.stats["dist_wire_bytes"] <= base.stats["dist_wire_bytes"]

    def test_fast_path_is_deterministic(self):
        a, b = (
            run_tuned(mixed_program(),
                      dist_config(dist_kwargs=dict(FAST_PATH)),
                      codec=FAST_CODEC, jitter_ns=20_000)
            for _ in range(2)
        )
        assert a.wall_time_ns == b.wall_time_ns
        assert a.stats == b.stats
        assert a.exit_codes == b.exit_codes

    def test_shard_cap_limits_owner_set(self):
        result = run_distributed(
            mixed_program(),
            dist_config(dist_kwargs={"shard_rendezvous": True,
                                     "rendezvous_shards": 2}),
            max_steps=MAX_STEPS,
        )
        assert not result.diverged, result.divergence
        assert 1 < result.stats["dist_shards"] <= 2

    def test_async_lane_still_catches_divergence(self):
        def main(ctx):
            libc = ctx.libc
            evil = ctx.process.name.endswith(".n1")
            out = yield from libc.open("/tmp/log.txt", C.O_WRONLY | C.O_CREAT)
            yield from libc.write(out, b"EVIL BYTES" if evil else b"good data!")
            yield from libc.close(out)
            for _ in range(40):
                yield ctx.sys.getpid()
            return 0

        result = run_tuned(
            Program("async-div-fast", main),
            dist_config(dist_kwargs=dict(FAST_PATH)),
            codec=FAST_CODEC,
        )
        assert result.diverged
        assert result.divergence.detected_by == "dist-async"

    def test_lockstep_lane_still_catches_divergence(self):
        def main(ctx):
            libc = ctx.libc
            evil = ctx.process.name.endswith(".n2")
            path = "/tmp/exfil" if evil else "/tmp/legit"
            fd = yield from libc.open(path, C.O_WRONLY | C.O_CREAT)
            yield from libc.close(fd)
            return 0

        result = run_tuned(
            Program("lockstep-div-fast", main),
            dist_config(level=Level.BASE, dist_kwargs=dict(FAST_PATH)),
            codec=FAST_CODEC,
        )
        assert result.diverged
        assert result.divergence.detected_by == "dist-lockstep"
        assert "divergence" in result.shutdown_reason


class TestConfig:
    def test_bad_dist_config_rejected(self):
        from repro.errors import MonitorError

        with pytest.raises(MonitorError):
            DistMvee(mixed_program(), ReMonConfig(replicas=3, dist="nope"))

    def test_relaxation_reduces_rendezvous_rounds(self):
        strict = run_distributed(mixed_program(),
                                 dist_config(level=Level.NO_IPMON),
                                 max_steps=MAX_STEPS)
        relaxed = run_distributed(mixed_program(),
                                  dist_config(level=Level.NONSOCKET_RW),
                                  max_steps=MAX_STEPS)
        assert (strict.stats["dist_rendezvous_calls"]
                > relaxed.stats["dist_rendezvous_calls"])
        assert strict.wall_time_ns > relaxed.wall_time_ns

        # A server-ish mix with socket traffic, over 200 us links: each
        # relaxation step drains the lockstep lane, and full lockstep
        # (two link round trips per monitored call) costs more than
        # twice the fully relaxed run.
        rate = 260_000.0
        workload = SyntheticWorkload(
            name="relax", native_ms=1.0, threads=2,
            mix=CategoryMix({"base": rate * 0.25, "file_ro": rate * 0.45,
                             "sock_ro": rate * 0.1, "sock_rw": rate * 0.1,
                             "mgmt": rate * 0.1}),
        )
        runs = [
            run_distributed(build_program(workload), dist_config(
                level=level, dist_kwargs={"link_latency_ns": 200_000}),
                max_steps=MAX_STEPS)
            for level in (Level.NO_IPMON, Level.NONSOCKET_RW, Level.SOCKET_RW)
        ]
        assert not any(run.diverged for run in runs)
        calls = [run.stats["dist_rendezvous_calls"] for run in runs]
        assert calls[0] > calls[1] > calls[2]
        assert runs[0].wall_time_ns > 2 * runs[2].wall_time_ns
