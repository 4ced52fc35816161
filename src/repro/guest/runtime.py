"""The guest runtime: drives guest generators as simulator tasks.

This is the moral equivalent of the C runtime and kernel thread-exit
paths: it creates threads, pumps their bodies, delivers signals at safe
points (between work items, and when blocking calls return -EINTR), and
tears processes down on exit.
"""

from __future__ import annotations

import types
from typing import Callable, Optional

from repro.errors import GuestFault
from repro.guest.program import Compute, GuestContext, Program
from repro.kernel import constants as C
from repro.kernel.exits import ProcessExitRequest, ThreadExitRequest
from repro.kernel.memory import MemoryFault
from repro.kernel.syscalls import SyscallRequest
from repro.sim import Effect, Sleep


class GuestRuntime:
    """Loads a :class:`Program` into a process and runs its threads."""

    def __init__(self, kernel, process, program: Program, layout=None):
        self.kernel = kernel
        self.process = process
        self.program = program
        self.layout = layout
        process.runtime = self
        if kernel.thread_spawner is None:
            kernel.thread_spawner = _kernel_thread_spawner
        self._setup_address_space()

    def _setup_address_space(self) -> None:
        space = self.process.space
        layout = self.layout
        code_base = layout.code_base if layout else 0x400000
        code_size = layout.code_size if layout else 0x200000
        space.map(code_base, code_size, C.PROT_READ | C.PROT_EXEC,
                  name="text:%s" % self.program.name, fixed=True)
        data_base = code_base + code_size
        space.map(data_base, 0x100000, C.PROT_READ | C.PROT_WRITE,
                  name="data:%s" % self.program.name, fixed=True)

    # ------------------------------------------------------------------
    # Thread creation
    # ------------------------------------------------------------------
    def start(self):
        """Create and start the main thread. Returns (thread, task)."""
        thread = self.kernel.create_thread(self.process, name="%s.main" % self.process.name)
        ctx = self._make_ctx(thread)
        body = self.program.main(ctx)
        return thread, self._launch(thread, body, is_main=True)

    def spawn_guest_thread(self, entry: Callable, arg=None):
        """Used by sys_clone: start a new thread running entry(ctx, arg)."""
        thread = self.kernel.create_thread(self.process)
        ctx = self._make_ctx(thread)
        body = entry(ctx, arg)
        self._launch(thread, body, is_main=False)
        return thread

    def _make_ctx(self, thread) -> GuestContext:
        ctx = GuestContext(self.kernel, self.process, thread, self.program, self.layout)
        thread.guest_ctx = ctx
        hook = self.process.ctx_hook
        if hook is not None:
            hook(ctx)
        return ctx

    def _launch(self, thread, body, is_main: bool):
        task = self.kernel.sim.spawn(
            self._thread_main(thread, body, is_main), name=thread.name
        )
        thread.task = task
        return task

    # ------------------------------------------------------------------
    # The runner
    # ------------------------------------------------------------------
    def _thread_main(self, thread, body, is_main: bool):
        exit_code = 0
        try:
            result = yield from self._drive(thread, body)
            exit_code = result if isinstance(result, int) else 0
            # Falling off the end of main == exit_group(status); other
            # threads just exit. Route through the syscall layer so the
            # MVEE observes the exit.
            name = "exit_group" if is_main else "exit"
            yield from self.kernel.syscall_path(
                thread, SyscallRequest(name, (exit_code,))
            )
        except ThreadExitRequest as request:
            exit_code = request.code
        except ProcessExitRequest as request:
            exit_code = request.code
            self.kernel.terminate_process(self.process, request.code, request.signal)
        except MemoryFault:
            # An unhandled fault outside a syscall: fatal SIGSEGV.
            self._fatal_signal(thread, C.SIGSEGV)
            exit_code = 128 + C.SIGSEGV
        finally:
            self._thread_teardown(thread, exit_code)
        return exit_code

    def _thread_teardown(self, thread, code: int) -> None:
        thread.exited = True
        self.kernel.sim.fire(thread.exit_event, code)
        process = self.process
        if not process.live_threads() and not process.exited:
            self.kernel.terminate_process(process, code)
        if process.exited and not process.live_threads():
            process.fdtable.close_all()

    def _fatal_signal(self, thread, signo: int) -> None:
        tracer = thread.tracer
        if tracer is not None:
            tracer.report_fatal_signal(thread, signo)
        self.kernel.terminate_process(self.process, 128 + signo, signo)

    def _drive(self, thread, gen, in_handler: bool = False):
        """Pump one guest generator; returns its StopIteration value.

        ``Compute`` and ``SyscallRequest``, nearly every item a guest
        yields, are dispatched inline (an exact class match costs no
        ``isinstance`` call); nested generators, raw effects and unknown
        items go through :meth:`_do_item`. The signal check reads the
        pending queue first, so a thread with nothing pending pays no
        call for it.

        A signal handler body (``in_handler=True``) is pumped the same way
        but takes no nested asynchronous signal and no exit check, and a
        ``MemoryFault`` in it propagates.
        """
        process = self.process
        kernel = self.kernel
        to_send = None
        throw: Optional[BaseException] = None
        while True:
            if not in_handler:
                if process.exited:
                    raise ProcessExitRequest(process.exit_code or 0)
                if thread.pending:
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
                cls = item.__class__
                if cls is SyscallRequest or (
                    cls is not Compute and isinstance(item, SyscallRequest)
                ):
                    to_send = yield from kernel.syscall_path(thread, item)
                elif cls is Compute or isinstance(item, Compute):
                    ns = int(item.ns * process.compute_factor)
                    yield Sleep(ns, cpu=True)
                    thread.utime_ns += ns
                    process.utime_ns += ns
                    to_send = None
                else:
                    to_send = yield from self._do_item(thread, item)
            except MemoryFault as fault:
                if in_handler:
                    raise
                # A fault in guest code (not in a syscall): SIGSEGV. If
                # handled, the handler runs, then the faulting operation
                # is *not* restarted — the fault is re-raised into the
                # guest, which may catch it for recovery tests.
                yield from self._synchronous_signal(thread, C.SIGSEGV)
                throw = fault
                to_send = None

    def _do_item(self, thread, item):
        if isinstance(item, types.GeneratorType):
            # Allow guests to delegate to sub-coroutines they built with
            # helper functions (e.g. ctx.sync_point wrapped by libc).
            result = yield from self._drive(thread, item)
            return result
        if isinstance(item, Effect):
            # Raw simulator effects bubble up from runtime-provided
            # coroutines running in guest context (the record/replay
            # agent's waits, for instance).
            result = yield item
            return result
        raise GuestFault("guest %s yielded unknown item %r" % (thread.name, item))

    # ------------------------------------------------------------------
    # Signal delivery
    # ------------------------------------------------------------------
    def _deliver_signal(self, thread, pending) -> None:
        thread.take_signal(pending)
        signo = pending.signo
        action = self.process.action_for(signo)
        handler = action.handler
        if handler == C.SIG_IGN:
            return
        if handler == C.SIG_DFL:
            if signo in C.FATAL_BY_DEFAULT:
                self._fatal_signal(thread, signo)
                raise ProcessExitRequest(128 + signo, signo)
            return  # default-ignore (SIGCHLD, SIGCONT, ...)
        ctx = thread.guest_ctx
        result = handler(ctx, signo)
        if isinstance(result, types.GeneratorType):
            yield from self._drive(thread, result, in_handler=True)
        return

    def _synchronous_signal(self, thread, signo: int):
        """Deliver a synchronous signal right now (SIGSEGV et al.)."""
        action = self.process.action_for(signo)
        if action.handler in (C.SIG_DFL, C.SIG_IGN):
            self._fatal_signal(thread, signo)
            raise ProcessExitRequest(128 + signo, signo)
        ctx = thread.guest_ctx
        result = action.handler(ctx, signo)
        if isinstance(result, types.GeneratorType):
            yield from self._drive(thread, result, in_handler=True)


def _kernel_thread_spawner(process, entry, arg):
    """Kernel callback: sys_clone lands here."""
    runtime = process.runtime
    if runtime is None:
        raise GuestFault("clone() in a process without a runtime")
    return runtime.spawn_guest_thread(entry, arg)
