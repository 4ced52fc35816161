"""Guest runtime edge cases."""

import pytest

from repro.errors import GuestFault
from repro.guest import GuestRuntime
from repro.guest.program import Compute, Program, SyscallProxy
from repro.kernel import Kernel
from repro.kernel import constants as C
from tests.conftest import run_guest


class TestThreadLifecycle:
    def test_worker_exit_does_not_kill_process(self):
        def main(ctx):
            def worker(cctx, arg):
                def body():
                    yield Compute(1000)

                return body()

            yield ctx.spawn_thread(worker, None)
            yield from ctx.libc.nanosleep(1_000_000)
            return 0

        _k, process, code = run_guest(Program("worker-exit", main))
        assert code == 0

    def test_explicit_exit_syscall_code(self):
        def main(ctx):
            yield Compute(100)
            yield ctx.sys.exit_group(42)
            return 0  # unreachable

        _k, _p, code = run_guest(Program("exit42", main))
        assert code == 42

    def test_main_return_value_becomes_exit_code(self):
        def main(ctx):
            yield Compute(100)
            return 5

        _k, _p, code = run_guest(Program("ret5", main))
        assert code == 5

    def test_exit_group_interrupts_sibling_threads(self):
        def main(ctx):
            def stuck(cctx, arg):
                def body():
                    yield from cctx.libc.nanosleep(60_000_000_000)  # a minute

                return body()

            yield ctx.spawn_thread(stuck, None)
            yield Compute(10_000)
            yield ctx.sys.exit_group(3)
            return 0

        kernel = Kernel()
        exit_time = {}
        program = Program("killall", main)
        program.install_files(kernel)
        process = kernel.create_process("killall")
        process.exit_event.add_listener(
            lambda _v: exit_time.setdefault("t", kernel.sim.now)
        )
        GuestRuntime(kernel, process, program).start()
        kernel.sim.run()
        assert process.exit_code == 3
        # The process died long before the sleeping thread's minute.
        assert exit_time["t"] < 1_000_000_000

    def test_process_exit_closes_descriptors(self):
        kernel = Kernel()

        def main(ctx):
            fd = yield from ctx.libc.open("/data/f")
            assert fd >= 0
            return 0

        _k, process, code = run_guest(
            Program("fd-close", main, files={"/data/f": b"x"}), kernel=kernel
        )
        assert code == 0
        assert len(process.fdtable) == 0

    def test_clone_without_thread_flag_enosys(self):
        def main(ctx):
            from repro.kernel.syscalls import SyscallRequest

            ret = yield SyscallRequest("clone", (0, None, None))  # fork-like
            assert ret == -38  # ENOSYS: fork is out of scope
            return 0

        _k, _p, code = run_guest(Program("fork", main))
        assert code == 0


class TestFaultHandling:
    def test_unknown_yield_item_is_guest_fault(self):
        def main(ctx):
            yield object()

        kernel = Kernel()
        process = kernel.create_process("bad")
        _t, task = GuestRuntime(kernel, process, Program("bad", main)).start()
        kernel.sim.run()
        assert isinstance(task.failure, GuestFault)

    def test_handled_sigsegv_rethrows_fault_into_guest(self):
        recovered = {}

        def main(ctx):
            def handler(hctx, signo):
                recovered["signal"] = signo

            yield ctx.sys.rt_sigaction(C.SIGSEGV, handler)
            try:
                ctx.mem.read(0xBAD0000, 4)
            except Exception:
                recovered["caught"] = True
            yield Compute(100)
            return 0

        _k, _p, code = run_guest(Program("recover", main))
        assert code == 0
        assert recovered.get("caught")

    def test_fault_inside_syscall_returns_efault(self):
        def main(ctx):
            fd = yield from ctx.libc.open("/data/f")
            ret = yield ctx.sys.read(fd, 0xDEAD0000, 4)
            assert ret == -14, ret  # EFAULT, no signal
            yield Compute(100)
            return 0

        _k, _p, code = run_guest(Program("efault", main, files={"/data/f": b"abcd"}))
        assert code == 0


class TestComputeAccounting:
    def test_compute_factor_scales_time(self):
        kernel = Kernel()

        def main(ctx):
            yield Compute(1_000_000)
            return 0

        program = Program("pressured", main)
        process = kernel.create_process("p")
        process.compute_factor = 2.0
        _t, task = GuestRuntime(kernel, process, program).start()
        kernel.sim.run()
        assert kernel.sim.now >= 2_000_000

    def test_utime_accumulates(self):
        def main(ctx):
            yield Compute(7_000_000)
            return 0

        _k, process, code = run_guest(Program("utime", main))
        assert process.utime_ns >= 7_000_000

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Compute(-1)


class TestSyscallProxy:
    def test_builders_are_cached_and_build_fresh_requests(self):
        proxy = SyscallProxy()
        first = proxy.proxy_cache_probe(3, b"x")
        assert (first.name, first.args) == ("proxy_cache_probe", (3, b"x"))
        assert "proxy_cache_probe" in vars(SyscallProxy)
        builder = proxy.proxy_cache_probe
        assert builder is SyscallProxy().proxy_cache_probe
        assert builder.__name__ == "proxy_cache_probe"
        second = builder(4)
        assert second is not first
        assert (second.name, second.args) == ("proxy_cache_probe", (4,))

    def test_dunder_lookups_are_not_cached(self):
        SyscallProxy().__proxy_probe__
        assert "__proxy_probe__" not in vars(SyscallProxy)
