"""Behavioural MVEE tests: the §2-§3 mechanisms observed end-to-end."""

import pytest

from repro.core import Level, ReMon, ReMonConfig
from repro.guest.program import Compute, Program
from repro.kernel import Kernel
from repro.kernel import constants as C
from repro.kernel import errno_codes as E
from repro.kernel.structs import pack_iovec


def run_mvee(program, level=Level.NONSOCKET_RW, replicas=2, kernel=None, **cfg):
    kernel = kernel or Kernel()
    mvee = ReMon(kernel, program, ReMonConfig(replicas=replicas, level=level, **cfg))
    result = mvee.run(max_steps=20_000_000)
    return kernel, mvee, result


class TestInputConsistency:
    def test_slaves_receive_masters_read_data(self):
        """§2.1: all replicas receive consistent input."""
        captured = {}

        def main(ctx):
            libc = ctx.libc
            fd = yield from libc.open("/dev/urandom")
            ret, data = yield from libc.read(fd, 32)
            captured[ctx.process.replica_index] = data
            return 0

        _k, _m, result = run_mvee(Program("urandom", main))
        assert not result.diverged
        assert captured[0] == captured[1]
        assert len(captured[0]) == 32

    def test_getrandom_replicated(self):
        captured = {}

        def main(ctx):
            buf = yield from ctx.libc.malloc(16)
            ret = yield ctx.sys.getrandom(buf, 16, 0)
            assert ret == 16
            captured[ctx.process.replica_index] = ctx.mem.read(buf, 16)
            return 0

        _k, _m, result = run_mvee(Program("grnd", main))
        assert not result.diverged
        assert captured[0] == captured[1]

    def test_external_output_happens_once(self):
        """§2.1 transparency: observable I/O executes only once."""
        kernel = Kernel()

        def main(ctx):
            fd = yield from ctx.libc.open("/tmp/out", C.O_WRONLY | C.O_CREAT)
            yield from ctx.libc.write(fd, b"exactly-once")
            return 0

        _k, _m, result = run_mvee(Program("once", main), kernel=kernel, replicas=3)
        assert not result.diverged
        node, err = kernel.fs.resolve("/tmp/out")
        assert err == 0
        assert bytes(node.data) == b"exactly-once"


class TestShadowDescriptors:
    def test_slave_fd_numbers_match_master(self):
        numbers = {}

        def main(ctx):
            libc = ctx.libc
            a = yield from libc.open("/data/f")
            rfd, wfd = yield from libc.pipe()
            sock = yield from libc.socket()
            numbers.setdefault(ctx.process.replica_index, []).extend(
                [a, rfd, wfd, sock]
            )
            return 0

        _k, _m, result = run_mvee(Program("fds", main, files={"/data/f": b"x"}))
        assert not result.diverged
        assert numbers[0] == numbers[1]

    def test_slave_close_and_reopen_keeps_alignment(self):
        numbers = {}

        def main(ctx):
            libc = ctx.libc
            a = yield from libc.open("/data/f")
            yield from libc.close(a)
            b = yield from libc.open("/data/f")
            numbers.setdefault(ctx.process.replica_index, []).extend([a, b])
            return 0

        _k, _m, result = run_mvee(Program("fds2", main, files={"/data/f": b"x"}))
        assert not result.diverged
        assert numbers[0] == numbers[1]
        assert numbers[0][0] == numbers[0][1]  # number reused


class TestDivergenceDetection:
    def test_exit_code_mismatch_is_divergence(self):
        def main(ctx):
            yield Compute(1000)
            return 0 if ctx.process.replica_index == 0 else 1

        _k, _m, result = run_mvee(Program("exitdiv", main))
        assert result.diverged
        assert result.divergence.syscall == "exit_group"

    def test_mmap_failure_asymmetry_detected(self):
        """ALLEXEC calls must agree on success vs failure."""

        def main(ctx):
            # Replica 1 asks for an absurd length so its mmap fails.
            length = 4096 if ctx.process.replica_index == 0 else 0
            ret = yield ctx.sys.mmap(
                0, length, C.PROT_READ, C.MAP_PRIVATE | C.MAP_ANONYMOUS, -1, 0
            )
            yield Compute(1000)
            return 0

        _k, _m, result = run_mvee(Program("mmapdiv", main))
        assert result.diverged

    def test_detection_report_carries_context(self):
        def main(ctx):
            path = "/data/a" if ctx.process.replica_index == 0 else "/data/b"
            fd = yield from ctx.libc.open(path)
            return 0

        _k, _m, result = run_mvee(
            Program("ctx", main, files={"/data/a": b"x", "/data/b": b"y"})
        )
        assert result.diverged
        report = result.divergence
        assert report.syscall == "open"
        assert report.detected_by == "ghumvee"
        assert report.time_ns > 0
        assert "replica 1" in report.detail or "arg" in report.detail


class TestSignalsUnderMvee:
    @staticmethod
    def _inject_external_signal(kernel, mvee, signo, at_ns):
        """Deliver a signal to the master replica from 'outside' (as a
        kill(1) from another process would)."""

        def fire():
            master = mvee.group.master()
            if not master.exited:
                kernel.send_signal_to_process(master, signo)

        kernel.sim.call_at(at_ns, fire)

    def test_async_signal_delivered_to_all_replicas(self):
        """§2.2: deferred delivery at an equivalent state, every replica
        runs its handler."""
        hits = []

        def main(ctx):
            def handler(hctx, signo):
                hits.append(hctx.process.replica_index)

            yield ctx.sys.rt_sigaction(C.SIGUSR1, handler)
            for _ in range(8):
                yield Compute(50_000)
                _pid = yield ctx.sys.getpid()
                yield from ctx.libc.stat("/data/f")
            yield Compute(1000)
            return 0

        kernel = Kernel()
        mvee = ReMon(
            kernel,
            Program("sig-all", main, files={"/data/f": b"x"}),
            ReMonConfig(replicas=2, level=Level.NO_IPMON),
        )
        self._inject_external_signal(kernel, mvee, C.SIGUSR1, 100_000)
        result = mvee.run(max_steps=20_000_000)
        assert not result.diverged, result.divergence
        assert sorted(hits) == [0, 1]
        assert result.deferred_signals >= 1
        assert mvee.ghumvee.stats["signals_delivered"] >= 1

    def test_signals_pending_flag_forwards_unmonitored_calls(self):
        """§3.8: while signals are pending, IP-MON forwards calls so
        GHUMVEE can deliver at a rendezvous; the flag is then cleared."""
        hits = []

        def main(ctx):
            def handler(hctx, signo):
                hits.append(hctx.process.replica_index)

            yield ctx.sys.rt_sigaction(C.SIGUSR2, handler)
            for _ in range(10):
                _pid = yield ctx.sys.getpid()  # unmonitored at BASE
                yield Compute(50_000)
            return 0

        kernel = Kernel()
        mvee = ReMon(
            kernel, Program("sig-flag", main), ReMonConfig(replicas=2, level=Level.BASE)
        )
        self._inject_external_signal(kernel, mvee, C.SIGUSR2, 120_000)
        result = mvee.run(max_steps=20_000_000)
        assert not result.diverged, result.divergence
        assert sorted(hits) == [0, 1]
        assert result.stats.get("ipmon_forwarded_signals", 0) >= 1
        assert not mvee.ipmon.signals_pending()


def _read_chunk(ctx, how, fd, offset, size=2048):
    """Coroutine: one read-family call of up to ``size`` bytes."""
    buf = yield from ctx.libc.scratch(2 * size)
    if how == "read":
        ret = yield ctx.sys.read(fd, buf, size)
    elif how == "pread64":
        ret = yield ctx.sys.pread64(fd, buf, size, offset)
    else:
        # Two iovecs, the second one not adjacent to the first.
        half = size // 2
        iov = yield from ctx.libc.push_bytes(
            pack_iovec(buf, half) + pack_iovec(buf + size, size - half)
        )
        if how == "readv":
            ret = yield ctx.sys.readv(fd, iov, 2)
        else:
            ret = yield ctx.sys.preadv(fd, iov, 2, offset)
        if ret > 0:
            head = ctx.mem.read(buf, min(ret, half))
            tail = ctx.mem.read(buf + size, ret - half) if ret > half else b""
            return ret, head + tail
    return ret, ctx.mem.read(buf, ret) if ret > 0 else b""


class TestProcMapsFiltering:
    @pytest.mark.parametrize("how", ["read", "pread64", "readv", "preadv"])
    def test_replicas_cannot_see_ipmon_mappings(self, how):
        seen = {}

        def main(ctx):
            libc = ctx.libc
            fd = yield from libc.open("/proc/self/maps")
            content = bytearray()
            while True:
                ret, chunk = yield from _read_chunk(ctx, how, fd, len(content))
                if ret <= 0:
                    break
                content += chunk
            seen[ctx.process.replica_index] = bytes(content)
            return 0

        _k, mvee, result = run_mvee(Program("maps", main))
        assert not result.diverged
        for index, content in seen.items():
            assert b"ipmon-rb" not in content, index
            assert b"ipmon-filemap" not in content, index
            assert b"text:" in content
        # Both replicas read the same (master's, filtered) content.
        assert seen[0] == seen[1]
        # ... even though the mapping genuinely exists.
        master = mvee.group.master()
        assert any(m.name == "[ipmon-rb]" for m in master.space.mappings())


class TestVectoredReads:
    """readv/preadv results reach every replica, on GHUMVEE's path
    (NO_IPMON) and on IP-MON's (NONSOCKET_RO)."""

    @pytest.mark.parametrize("level", [Level.NO_IPMON, Level.NONSOCKET_RO],
                             ids=lambda level: level.name)
    @pytest.mark.parametrize("name", ["readv", "preadv"])
    def test_both_replicas_read_the_file(self, name, level):
        seen = {}

        def main(ctx):
            libc = ctx.libc
            fd = yield from libc.open("/data/f")
            a = yield from libc.malloc(4)
            b = yield from libc.malloc(16)
            iov = yield from libc.push_bytes(pack_iovec(a, 4) + pack_iovec(b, 16))
            if name == "readv":
                ret = yield ctx.sys.readv(fd, iov, 2)
            else:
                ret = yield ctx.sys.preadv(fd, iov, 2, 2)
            seen[ctx.process.replica_index] = (
                ret, ctx.mem.read(a, 4) + ctx.mem.read(b, max(0, ret - 4))
            )
            return 0

        data = b"0123456789ABCDEF"
        _k, _m, result = run_mvee(
            Program(name, main, files={"/data/f": data}), level=level
        )
        expected = data if name == "readv" else data[2:]
        assert result.exit_codes == [0, 0] and not result.diverged
        assert seen == {0: (len(expected), expected), 1: (len(expected), expected)}


class TestMonitoredIoctl:
    def test_fionread_count_reaches_the_slave(self):
        """A monitored FIONREAD (NO_IPMON) copies the master's count
        into every replica, as IP-MON's unmonitored path does."""
        seen = {}

        def main(ctx):
            fd = yield from ctx.libc.open("/data/f")
            buf = yield from ctx.libc.malloc(8)
            ctx.mem.write(buf, b"\xff" * 4)
            ret = yield ctx.sys.ioctl(fd, 0x541B, buf)
            seen[ctx.process.replica_index] = (ret, ctx.mem.read(buf, 4))
            return 0

        _k, mvee, result = run_mvee(
            Program("fionread", main, files={"/data/f": b"0123456789"}),
            level=Level.NO_IPMON,
        )
        assert not result.diverged
        assert seen[0] == seen[1] == (0, (10).to_bytes(4, "little"))
        assert mvee.ghumvee.stats["bytes_replicated"] == 4


class TestSharedMemoryRestriction:
    def test_app_shmget_denied_consistently(self):
        """§2.1: requests to set up shared memory are rejected; programs
        fall back."""
        rets = {}

        def main(ctx):
            ret = yield ctx.sys.shmget(C.IPC_PRIVATE, 4096, C.IPC_CREAT)
            rets[ctx.process.replica_index] = ret
            # Fall back to private memory like real programs do.
            addr = yield ctx.sys.mmap(
                0, 4096, C.PROT_READ | C.PROT_WRITE,
                C.MAP_PRIVATE | C.MAP_ANONYMOUS, -1, 0,
            )
            assert addr > 0
            return 0

        _k, mvee, result = run_mvee(Program("shmdeny", main))
        assert not result.diverged
        assert rets[0] == rets[1] == -E.EACCES
        assert mvee.ghumvee.stats["shm_denied"] >= 1

    def test_shm_allowed_when_configured(self):
        def main(ctx):
            ret = yield ctx.sys.shmget(C.IPC_PRIVATE, 4096, C.IPC_CREAT)
            assert ret > 0, ret
            return 0

        _k, _m, result = run_mvee(
            Program("shmok", main), allow_shared_memory=True
        )
        assert not result.diverged


class TestEpollUnderMvee:
    def test_epoll_data_translated_per_replica(self):
        """§3.9: each replica gets *its own* pointer back, not the
        master's."""
        got = {}

        def main(ctx):
            libc = ctx.libc
            rfd, wfd = yield from libc.pipe()
            epfd = yield from libc.epoll_create()
            my_tag = ctx.process.space.brk_base + 0x42  # replica-specific
            yield from libc.epoll_ctl(epfd, C.EPOLL_CTL_ADD, rfd, C.EPOLLIN, data=my_tag)
            yield from libc.write(wfd, b"!")
            ret, events = yield from libc.epoll_wait(epfd, timeout_ms=100)
            assert ret == 1
            got[ctx.process.replica_index] = (events[0][1], my_tag)
            return 0

        for level in (Level.NO_IPMON, Level.SOCKET_RW):
            got.clear()
            _k, _m, result = run_mvee(Program("epoll-tags", main), level=level)
            assert not result.diverged, (level, result.divergence)
            for index, (returned, expected) in got.items():
                assert returned == expected, (level, index)
            # The tags genuinely differ between replicas (ASLR).
            assert got[0][1] != got[1][1]


class TestRbOverflow:
    def test_small_rb_triggers_ghumvee_resets(self):
        """§3.2: when the linear RB fills, GHUMVEE arbitrates a reset."""

        def main(ctx):
            libc = ctx.libc
            fd = yield from libc.open("/data/big")
            for _ in range(50):
                ret, _ = yield from libc.pread(fd, 2048, 0)
                assert ret == 2048
            return 0

        _k, _m, result = run_mvee(
            Program("overflow", main, files={"/data/big": bytes(4096)}),
            rb_size=1 << 16,
        )
        assert not result.diverged
        assert result.rb_resets >= 1

    def test_oversized_record_forwarded_to_monitor(self):
        """CALCSIZE: data bigger than the RB goes to GHUMVEE (§3.3)."""

        def main(ctx):
            libc = ctx.libc
            fd = yield from libc.open("/data/big")
            buf = yield from libc.malloc(1 << 16)
            ret = yield ctx.sys.pread64(fd, buf, 1 << 16, 0)
            assert ret == 4096
            return 0

        _k, _m, result = run_mvee(
            Program("toolarge", main, files={"/data/big": bytes(4096)}),
            rb_size=1 << 15,
        )
        assert not result.diverged
        assert result.stats.get("ipmon_forwarded_size", 0) >= 1


class TestRunAhead:
    def test_master_finishes_before_slaves_on_unmonitored_calls(self):
        finish = {}

        def main(ctx):
            libc = ctx.libc
            fd = yield from libc.open("/data/f")
            for _ in range(30):
                yield from libc.pread(fd, 256, 0)
            finish[ctx.process.replica_index] = ctx.kernel.sim.now
            return 0

        _k, _m, result = run_mvee(Program("ahead", main, files={"/data/f": bytes(512)}))
        assert not result.diverged
        assert finish[0] <= finish[1]
