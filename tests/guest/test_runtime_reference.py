"""The guest runtime's item dispatch against its plain reference.

:class:`ReferenceRuntime` keeps the dispatch the runtime had before
``Compute`` and ``SyscallRequest`` were handled inline: a ``_do_item``
generator per item, an ``isinstance`` chain, a ``deliverable_signal()``
call before every item, and a separate pump for signal handler bodies. Each program below runs
once under each runtime, natively and under ReMon, and every observable
must match: what the guest saw and when, exit codes, CPU accounting,
syscall counts, the virtual clock and the engine's step count.
"""

import types
from typing import Optional

import pytest

from repro.core import Level, ReMon, ReMonConfig
from repro.errors import GuestFault
from repro.guest import GuestRuntime
from repro.guest.program import Compute, Program
from repro.kernel import Kernel
from repro.kernel import constants as C
from repro.kernel.exits import ProcessExitRequest
from repro.kernel.memory import MemoryFault
from repro.kernel.syscalls import SyscallRequest
from repro.sim import Effect, Sleep

BAD_ADDR = 0xBAD0000


class ReferenceRuntime(GuestRuntime):
    """The runtime's ``_drive``/``_drive_handler``/``_do_item`` as they
    were, verbatim, behind the current ``_drive`` signature."""

    def _drive(self, thread, gen, in_handler=False):
        # The runtime pumps handler bodies with ``_drive(...,
        # in_handler=True)``; the reference used its own handler pump.
        if in_handler:
            return self._drive_handler(thread, gen)
        return self._drive_guest(thread, gen)

    def _drive_guest(self, thread, gen):
        to_send = None
        throw: Optional[BaseException] = None
        while True:
            if self.process.exited:
                raise ProcessExitRequest(self.process.exit_code or 0)
            pending = thread.deliverable_signal()
            if pending is not None:
                yield from self._deliver_signal(thread, pending)
            try:
                if throw is not None:
                    exc, throw = throw, None
                    item = gen.throw(exc)
                else:
                    item = gen.send(to_send)
            except StopIteration as stop:
                return stop.value
            try:
                to_send = yield from self._do_item(thread, item)
            except MemoryFault as fault:
                yield from self._synchronous_signal(thread, C.SIGSEGV)
                throw = fault
                to_send = None

    def _drive_handler(self, thread, gen):
        to_send = None
        while True:
            try:
                item = gen.send(to_send)
            except StopIteration:
                return
            to_send = yield from self._do_item(thread, item)

    def _do_item(self, thread, item):
        if isinstance(item, Compute):
            factor = getattr(self.process, "compute_factor", 1.0)
            ns = int(item.ns * factor)
            yield Sleep(ns, cpu=True)
            thread.utime_ns += ns
            self.process.utime_ns += ns
            return None
        if isinstance(item, SyscallRequest):
            result = yield from self.kernel.syscall_path(thread, item)
            return result
        if isinstance(item, types.GeneratorType):
            result = yield from self._drive(thread, item)
            return result
        if isinstance(item, Effect):
            result = yield item
            return result
        raise GuestFault("guest %s yielded unknown item %r" % (thread.name, item))


class Burst(Compute):
    """A Compute subclass: dispatched through the fallback path."""

    __slots__ = ()


def _log(ctx, log, *what):
    log.append((ctx.kernel.sim.now, getattr(ctx.process, "replica_index", None), what))


def mixed_program(log):
    """All four item kinds, nested two deep, plus a Compute subclass
    and a signal handler that itself yields items (a subclass and a raw
    effect among them)."""

    def helper(ctx, depth):
        yield Compute(700)
        pid = yield ctx.sys.getpid()
        waited = yield Sleep(300)
        _log(ctx, log, "helper", depth, pid > 0, waited)
        if depth:
            inner = yield helper(ctx, depth - 1)
            _log(ctx, log, "inner", inner)
        return depth * 10

    def main(ctx):
        def on_usr1(hctx, signo):
            _log(hctx, log, "signal", signo)
            yield Compute(250)
            yield Burst(120)
            waited = yield Sleep(40)
            _log(hctx, log, "handler-effect", waited)
            yield hctx.sys.getpid()

        yield ctx.sys.rt_sigaction(C.SIGUSR1, on_usr1)
        for round_ in range(3):
            yield Compute(1_000 + round_)
            yield Burst(400)
            value = yield helper(ctx, 2)
            _log(ctx, log, "helper-returned", value)
            raw = yield Sleep(150)
            _log(ctx, log, "raw-effect", raw)
            fd = yield from ctx.libc.open("/data/f")
            got = yield from ctx.libc.read(fd, 4)
            yield from ctx.libc.close(fd)
            _log(ctx, log, "read", got)
            if round_ == 1:
                pid = yield ctx.sys.getpid()
                yield ctx.sys.kill(pid, C.SIGUSR1)
        return 0

    return Program("mixed", main, files={"/data/f": b"abcd"})


def handled_fault_program(log):
    """A MemoryFault raised inside a nested guest generator: the SIGSEGV
    handler runs (yielding items of its own), then the fault is thrown
    into the outer generator, which recovers."""

    def faulty(ctx):
        yield Compute(500)
        ctx.mem.read(BAD_ADDR, 4)
        yield Compute(1)  # never reached

    def main(ctx):
        def on_segv(hctx, signo):
            _log(hctx, log, "segv", signo)
            yield Compute(300)
            yield hctx.sys.getpid()

        yield ctx.sys.rt_sigaction(C.SIGSEGV, on_segv)
        for _ in range(2):
            try:
                yield faulty(ctx)
            except MemoryFault as fault:
                _log(ctx, log, "recovered", str(fault))
            yield Compute(900)
            yield ctx.sys.getpid()
        return 0

    return Program("handled-fault", main)


def nested_fatal_fault_program(log):
    """No handler: a fault inside a nested generator is a fatal SIGSEGV."""

    def faulty(ctx):
        yield ctx.sys.getpid()
        ctx.mem.read(BAD_ADDR, 4)

    def main(ctx):
        yield Compute(100)
        _log(ctx, log, "before")
        yield faulty(ctx)
        _log(ctx, log, "after")  # never reached
        return 0

    return Program("nested-fatal", main)


def top_level_fault_program(log):
    """A fault raised by the thread's own body, outside any item."""

    def main(ctx):
        yield Compute(100)
        yield ctx.sys.getpid()
        _log(ctx, log, "before")
        ctx.mem.read(BAD_ADDR, 4)
        yield Compute(1)
        return 0

    return Program("top-fatal", main)


PROGRAMS = {
    "mixed": mixed_program,
    "handled-fault": handled_fault_program,
    "nested-fatal": nested_fatal_fault_program,
    "top-fatal": top_level_fault_program,
}


def _native(make_program, runtime_cls):
    log = []
    program = make_program(log)
    kernel = Kernel()
    program.install_files(kernel)
    process = kernel.create_process(program.name)
    runtime = runtime_cls(kernel, process, program)
    thread, task = runtime.start()
    kernel.sim.run(max_steps=1_000_000)
    return {
        "log": log,
        "exit": process.exit_code,
        "failure": repr(task.failure),
        "utime": (process.utime_ns, thread.utime_ns),
        "syscalls": dict(kernel.syscall_counts_by_name),
        "now": kernel.sim.now,
        "steps": kernel.sim.steps,
    }


def _remon(make_program, runtime_cls, monkeypatch):
    import repro.core.remon as remon_module

    monkeypatch.setattr(remon_module, "GuestRuntime", runtime_cls)
    log = []
    program = make_program(log)
    kernel = Kernel()
    mvee = ReMon(kernel, program, ReMonConfig(replicas=2, level=Level.NONSOCKET_RW))
    result = mvee.run(max_steps=1_000_000)
    return {
        "log": log,
        "exit": result.exit_codes,
        "diverged": repr(result.divergence),
        "now": result.wall_time_ns,
        "stats": result.stats,
        "utime": [p.utime_ns for p in mvee.group.processes],
        "steps": kernel.sim.steps,
    }


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_native_run_matches_reference(name):
    got = _native(PROGRAMS[name], GuestRuntime)
    want = _native(PROGRAMS[name], ReferenceRuntime)
    assert got == want
    assert got["log"]


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_remon_run_matches_reference(name, monkeypatch):
    got = _remon(PROGRAMS[name], GuestRuntime, monkeypatch)
    want = _remon(PROGRAMS[name], ReferenceRuntime, monkeypatch)
    assert got == want
    assert got["log"]


def test_programs_reach_the_paths_they_name(monkeypatch):
    """Guards the comparison above against vacuous programs."""
    mixed = _native(mixed_program, GuestRuntime)
    events = [entry[2][0] for entry in mixed["log"]]
    assert {"helper", "inner", "raw-effect", "signal", "handler-effect", "read"} <= set(
        events
    )
    assert mixed["exit"] == 0
    replicated = _remon(mixed_program, GuestRuntime, monkeypatch)
    assert replicated["exit"] == [0, 0]
    assert [entry[2][0] for entry in replicated["log"]].count("signal") == 2
    handled = _native(handled_fault_program, GuestRuntime)
    assert [e[2][0] for e in handled["log"]].count("recovered") == 2
    assert handled["exit"] == 0
    for name in ("nested-fatal", "top-fatal"):
        fatal = _native(PROGRAMS[name], GuestRuntime)
        assert fatal["exit"] == 128 + C.SIGSEGV
        assert [e[2][0] for e in fatal["log"]] == ["before"]


def test_unknown_item_still_faults_the_guest():
    def main(ctx):
        yield Compute(10)
        yield object()

    kernel = Kernel()
    process = kernel.create_process("bad")
    _t, task = GuestRuntime(kernel, process, Program("bad", main)).start()
    kernel.sim.run()
    assert isinstance(task.failure, GuestFault)
