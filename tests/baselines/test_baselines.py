"""Tests for the native, GHUMVEE-standalone and VARAN baselines."""

from repro.baselines import Varan, VaranConfig, run_native
from repro.core import Level, ReMon, ReMonConfig
from repro.guest.program import Compute, Program
from repro.kernel import Kernel
from repro.kernel import constants as C


def make_io_program(iterations=20):
    def main(ctx):
        libc = ctx.libc
        fd = yield from libc.open("/data/file.bin")
        assert fd >= 0
        for _ in range(iterations):
            yield Compute(10_000)
            ret, _data = yield from libc.pread(fd, 512, 0)
            assert ret == 512
        yield from libc.close(fd)
        return 0

    return Program("io-loop", main, files={"/data/file.bin": bytes(4096)})


def ghumvee_standalone_config():
    """The pure CP-monitor baseline: ReMon with IP-MON disabled."""
    return ReMonConfig(level=Level.NO_IPMON)


def test_native_reports_time_and_syscalls():
    result = run_native(make_io_program())
    assert result.exit_code == 0
    assert result.wall_time_ns > 20 * 10_000
    assert result.syscalls >= 22  # open + 20 preads + close (+ mmaps)
    assert result.syscall_rate_per_sec() > 0


def test_ghumvee_standalone_monitors_everything():
    kernel = Kernel()
    mvee = ReMon(kernel, make_io_program(), ghumvee_standalone_config())
    result = mvee.run(max_steps=5_000_000)
    assert not result.diverged
    assert result.unmonitored_calls == 0
    assert result.monitored_calls > 20


def test_varan_runs_replicas_and_master_runs_ahead():
    kernel = Kernel()
    varan = Varan(kernel, make_io_program(), VaranConfig(replicas=2))
    result = varan.run(max_steps=5_000_000)
    assert result.divergence is None, result.divergence
    assert result.exit_codes == [0, 0]
    assert varan.stats["events"] > 20
    assert varan.stats["max_runahead"] >= 1


def test_varan_faster_than_ghumvee_standalone():
    program = make_io_program(iterations=50)

    kernel_v = Kernel()
    varan = Varan(kernel_v, program, VaranConfig(replicas=2))
    varan_result = varan.run(max_steps=10_000_000)

    kernel_g = Kernel()
    mvee = ReMon(kernel_g, program, ghumvee_standalone_config())
    ghumvee_result = mvee.run(max_steps=10_000_000)

    assert varan_result.divergence is None
    assert not ghumvee_result.diverged
    assert varan_result.wall_time_ns < ghumvee_result.wall_time_ns


def test_remon_between_native_and_cp_only():
    program = make_io_program(iterations=50)
    native = run_native(program)

    kernel_r = Kernel()
    remon = ReMon(kernel_r, program)
    remon_result = remon.run(max_steps=10_000_000)

    kernel_g = Kernel()
    cp = ReMon(kernel_g, program, ghumvee_standalone_config())
    cp_result = cp.run(max_steps=10_000_000)

    assert not remon_result.diverged and not cp_result.diverged
    assert native.wall_time_ns < remon_result.wall_time_ns < cp_result.wall_time_ns


def test_varan_detects_sequence_divergence_late():
    """A replica that issues a different syscall is caught only when the
    slave consumes the log entry — not at lockstep time."""

    def main(ctx):
        # Replicas disagree: replica 0 calls getpid, replica 1 getuid.
        if ctx.process.replica_index == 0:
            yield ctx.sys.getpid()
        else:
            yield ctx.sys.getuid()
        yield Compute(1000)
        return 0

    kernel = Kernel()
    varan = Varan(kernel, Program("seq-div", main), VaranConfig(replicas=2))
    result = varan.run(max_steps=5_000_000)
    assert result.divergence is not None
    assert result.divergence.detected_by == "varan"
