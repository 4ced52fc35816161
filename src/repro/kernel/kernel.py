"""The simulated kernel: syscall dispatch, signals, procfs, accounting."""

from __future__ import annotations

import itertools
import types
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.costs.model import CostModel
from repro.kernel import constants as C
from repro.kernel import errno_codes as E
from repro.kernel import calls  # noqa: F401 - registers all syscall handlers
from repro.kernel.futex import FutexManager
from repro.kernel.memory import AddressSpace, MemoryFault
from repro.kernel.process import PendingSignal, Process, Thread
from repro.kernel.shm import ShmManager
from repro.kernel.sockets import Network
from repro.kernel.syscalls import SYSCALL_DISPATCH, SyscallRequest
from repro.kernel.vfs import Filesystem, SyntheticFile
from repro.sim import Event, Simulator, Sleep

#: Virtual epoch for CLOCK_REALTIME: 2026-01-01T00:00:00Z in ns.
REALTIME_EPOCH_NS = 1_767_225_600 * 1_000_000_000

DEFAULT_MMAP_BASE = 0x7F0000000000
DEFAULT_BRK_BASE = 0x000055AA00000000




@dataclass
class KernelConfig:
    """Machine-wide configuration."""

    cores: int = 16
    memory_bytes: int = 64 << 30
    costs: CostModel = field(default_factory=CostModel)
    network_latency_ns: int = 100_000  # one-way; ~0.1 ms gigabit LAN
    loopback_latency_ns: int = 5_000
    network_bandwidth_bps: Optional[float] = None  # None = infinite
    network_jitter_ns: int = 0
    random_seed: int = 0x5EED


class Kernel:
    """Owns every simulated process and dispatches their system calls."""

    #: Attached by other layers (None until they are): ReMon's IK-B,
    #: and a fleet's admission control, which ``listen`` attaches.
    ikb = None
    admission_control = None

    def __init__(self, sim: Optional[Simulator] = None, config: Optional[KernelConfig] = None,
                 network: Optional[Network] = None):
        self.config = config or KernelConfig()
        self.sim = sim or Simulator(cores=self.config.cores)
        self.fs = Filesystem()
        # A Network may be shared between kernels (repro.dist gives every
        # simulated node its own kernel on one switch).
        self.network = network or Network(
            latency_ns=self.config.network_latency_ns,
            loopback_latency_ns=self.config.loopback_latency_ns,
            bandwidth_bps=self.config.network_bandwidth_bps,
            jitter_ns=self.config.network_jitter_ns,
            jitter_seed=self.config.random_seed,
        )
        self.futexes = FutexManager()
        self.shm = ShmManager()
        self.processes: Dict[int, Process] = {}
        self.threads: Dict[int, Thread] = {}
        self._ids = itertools.count(1000)
        self._rng_state = self.config.random_seed or 1
        #: Interposition points, tried in order, before ptrace and the
        #: real handler. ReMon's IK-B broker installs itself here.
        self.syscall_hooks: List = []
        #: Callback installed by the guest runtime: (process, entry, arg)
        #: -> new Thread. Used by sys_clone.
        self.thread_spawner: Optional[Callable] = None
        #: Observers notified on fd lifecycle events (GHUMVEE file map).
        self.fd_listeners: List = []
        #: Optional repro.faults.FaultInjector, consulted at dispatch
        #: (crashes, stalls) and raw invocation (transient errors).
        self.fault_injector = None
        #: Optional callback ``(process) -> None`` run by
        #: terminate_process the moment ``process.exited`` flips, before
        #: any exit_event listener. repro.dist installs its membership
        #: bump here (duck-typed: the kernel never imports repro.dist).
        self.on_terminate: Optional[Callable] = None
        self.syscall_counter = 0
        self.syscall_counts_by_name: Dict[str, int] = {}
        #: Optional repro.obs.Obs hub (attach_obs); instrumentation in
        #: syscall_path is skipped entirely while this is None or the
        #: hub has no virtual-cost-bearing instrument enabled.
        self.obs = None
        #: ``obs`` while it has a virtual-cost-bearing instrument on,
        #: else None: the one check syscall_path makes per call.
        self._obs_active = None
        self._obs_dispatch_ns = 0
        self._obs_syscall_hist = None
        self._rebuild_entry_sleep()

    def _rebuild_entry_sleep(self) -> None:
        """Rebuild the one ``Sleep`` every syscall entry yields.

        Effects are immutable values read once when yielded, so all
        entries share one instance; anything that changes the entry
        cost (``attach_obs``) must call this again.
        """
        self._entry_sleep = Sleep(
            self.config.costs.syscall_base_ns + self._obs_dispatch_ns, cpu=True
        )

    def attach_obs(self, obs) -> None:
        """Wire a repro.obs hub into syscall dispatch."""
        self.obs = obs
        self._obs_active = obs if obs is not None and obs.active else None
        if obs is None:
            self._obs_dispatch_ns = 0
            self._obs_syscall_hist = None
        else:
            obs.bind_costs(self.config.costs)
            self._obs_dispatch_ns = obs.dispatch_cost_ns
            self._obs_syscall_hist = (
                obs.registry.histogram("kernel_syscall_ns")
                if obs.active else None
            )
        self._rebuild_entry_sleep()

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------
    def create_process(
        self,
        name: str,
        mmap_base: int = DEFAULT_MMAP_BASE,
        brk_base: int = DEFAULT_BRK_BASE,
        host_ip: str = "10.0.0.1",
    ) -> Process:
        pid = next(self._ids)
        space = AddressSpace(mmap_base, brk_base, name="as:%s" % name)
        process = Process(self, pid, name, space)
        process.host_ip = host_ip
        process.start_time_ns = self.sim.now
        self.processes[pid] = process
        self._install_stdio(process)
        return process

    def _install_stdio(self, process: Process) -> None:
        from repro.kernel.vfs import CharDevice, ConsoleFile, OpenFileDescription

        stdin = CharDevice("stdin", "null")
        console = ConsoleFile(process.name)
        process.fdtable.install(0, OpenFileDescription(stdin, C.O_RDONLY))
        process.fdtable.install(1, OpenFileDescription(console, C.O_WRONLY))
        process.fdtable.install(2, OpenFileDescription(console, C.O_WRONLY))
        process.console = console

    def create_thread(self, process: Process, name: str = "") -> Thread:
        tid = next(self._ids)
        thread = Thread(process, tid, name)
        # Virtual tid: position in the process's spawn order. Replicas of
        # the same program assign identical vtids (thread creation is a
        # monitored, lockstepped call), which is how the MVEE pairs
        # threads across replicas.
        thread.vtid = len(process.threads)
        thread.tracer = process.tracer
        process.threads[tid] = thread
        self.threads[tid] = thread
        return thread

    def process_by_pid(self, pid: int) -> Optional[Process]:
        return self.processes.get(pid)

    def thread_by_tid(self, tid: int) -> Optional[Thread]:
        return self.threads.get(tid)

    def terminate_process(self, process: Process, code: int, signo: int = 0) -> None:
        """Mark a process dead and interrupt all of its threads."""
        if process.exited:
            return
        process.exited = True
        process.exit_code = code if signo == 0 else 128 + signo
        if self.on_terminate is not None:
            self.on_terminate(process)
        for thread in process.live_threads():
            thread.interrupt(self.sim)
        self.sim.fire(process.exit_event, process.exit_code)
        for thread in list(process.threads.values()):
            tracer = thread.tracer
            if tracer is not None:
                tracer.report_thread_gone(thread, code, signo)

    # ------------------------------------------------------------------
    # Syscall dispatch
    # ------------------------------------------------------------------
    def syscall_path(self, thread: Thread, req: SyscallRequest):
        """The full kernel entry path for one system call (coroutine)."""
        thread.syscall_count += 1
        self.syscall_counter += 1
        self.syscall_counts_by_name[req.name] = (
            self.syscall_counts_by_name.get(req.name, 0) + 1
        )
        thread.current_syscall = req
        obs = self._obs_active
        span = None
        dispatch_start = 0
        if obs is not None:
            dispatch_start = self.sim.now
            replica = thread.process.replica_index
            if obs.recorder is not None and replica is not None:
                obs.recorder.record(replica, dispatch_start, "syscall",
                                    req.name, vtid=thread.vtid)
            if obs.tracer.enabled:
                span = obs.tracer.begin("kernel", "syscall", syscall=req.name,
                                        vtid=thread.vtid, replica=replica)
        try:
            yield self._entry_sleep
            injector = self.fault_injector
            if injector is not None:
                action = injector.on_syscall_entry(thread, req)
                if action is not None:
                    kind, value = action
                    if kind == "crash":
                        return -E.EINTR
                    if kind == "stall":
                        yield Sleep(value, cpu=False)
                        if thread.process.exited:
                            return -E.EINTR
            for hook in self.syscall_hooks:
                interception = hook.intercept(thread, req)
                if interception is not None:
                    result = yield from interception
                    return result
            result = yield from self.traced_invoke(thread, req)
            return result
        finally:
            thread.current_syscall = None
            if span is not None:
                span.finish()
            if self._obs_syscall_hist is not None:
                self._obs_syscall_hist.observe(self.sim.now - dispatch_start)

    def traced_invoke(self, thread: Thread, req: SyscallRequest):
        """Invoke with ptrace interposition if the thread is traced."""
        tracer = thread.tracer
        if tracer is not None and tracer.traces_syscalls(thread):
            yield from tracer.report_syscall_entry(thread, req)
            req = thread.current_syscall or req  # tracer may rewrite
            if thread.ptrace_skip_call:
                thread.ptrace_skip_call = False
                result = thread.ptrace_forced_result
            else:
                result = yield from self.invoke(thread, req)
            result = yield from tracer.report_syscall_exit(thread, req, result)
            return result
        result = yield from self.invoke(thread, req)
        return result

    def invoke(self, thread: Thread, req: SyscallRequest):
        """Run the raw handler (no tracing, no hooks). Coroutine."""
        entry = SYSCALL_DISPATCH.get(req.name)
        if entry is None:
            return -E.ENOSYS
        handler, is_coroutine = entry
        injector = self.fault_injector
        if injector is not None:
            forced = injector.on_invoke(thread, req)
            if forced is not None:
                return -forced
        try:
            if is_coroutine:
                result = yield from handler(self, thread, *req.args)
            else:
                result = handler(self, thread, *req.args)
                if isinstance(result, types.GeneratorType):
                    result = yield from result
            return result
        except MemoryFault:
            return -E.EFAULT

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def send_signal_to_process(
        self, process: Process, signo: int, sender_pid: int = 0
    ) -> None:
        if process.exited:
            return
        threads = process.live_threads()
        if not threads:
            return
        target = None
        for thread in threads:
            if signo not in thread.sigmask:
                target = thread
                break
        if target is None:
            target = threads[0]
        self.send_signal_to_thread(target, signo, sender_pid=sender_pid)

    def send_signal_to_thread(
        self,
        thread: Thread,
        signo: int,
        sender_pid: int = 0,
        synchronous: bool = False,
    ) -> None:
        if thread.exited or thread.process.exited:
            return
        tracer = thread.tracer
        if (
            tracer is not None
            and not synchronous
            and signo not in (C.SIGKILL, C.SIGSTOP)
            and tracer.intercepts_signal(thread, signo)
        ):
            tracer.report_signal(thread, signo, sender_pid)
            return
        self.queue_signal(thread, PendingSignal(signo, sender_pid, synchronous))

    def queue_signal(self, thread: Thread, pending: PendingSignal) -> None:
        """Queue a signal directly on a thread (bypassing tracer
        interception — used by tracers to inject deferred signals)."""
        thread.pending.append(pending)
        if pending.signo not in thread.sigmask or pending.signo in (
            C.SIGKILL,
            C.SIGSTOP,
        ):
            thread.interrupt(self.sim)

    def schedule_itimer(self, process: Process, expiry: int) -> None:
        def _fire():
            if process.exited or process.itimer_real is None:
                return
            due, interval = process.itimer_real
            if due != expiry:
                return  # re-armed since
            if interval > 0:
                process.itimer_real = (due + interval, interval)
                self.schedule_itimer(process, due + interval)
            else:
                process.itimer_real = None
            self.send_signal_to_process(process, C.SIGALRM)

        self.sim.call_at(expiry, _fire)

    # ------------------------------------------------------------------
    # procfs
    # ------------------------------------------------------------------
    def procfs_lookup(self, thread: Thread, path: str) -> Optional[SyntheticFile]:
        parts = [p for p in path.split("/") if p]
        if len(parts) < 2 or parts[0] != "proc":
            return None
        who = parts[1]
        if who == "self":
            process = thread.process
        else:
            try:
                process = self.processes.get(int(who))
            except ValueError:
                process = None
        if process is None:
            return None
        entry = parts[2] if len(parts) > 2 else ""
        if entry == "maps":
            space = process.space
            node = SyntheticFile("maps", lambda: space.maps_text().encode())
            node.proc_entry = ("maps", process.pid)
            return node
        if entry == "status":
            node = SyntheticFile(
                "status",
                lambda: (
                    "Name:\t%s\nPid:\t%d\nThreads:\t%d\n"
                    % (process.name, process.pid, len(process.live_threads()))
                ).encode(),
            )
            node.proc_entry = ("status", process.pid)
            return node
        return None

    # ------------------------------------------------------------------
    # fd lifecycle notifications (consumed by GHUMVEE's file map)
    # ------------------------------------------------------------------
    def on_fd_opened(self, process: Process, fd: int) -> None:
        for listener in self.fd_listeners:
            listener.fd_opened(process, fd)

    def on_fd_closed(self, process: Process, fd: int) -> None:
        for listener in self.fd_listeners:
            listener.fd_closed(process, fd)

    def on_fd_flags_changed(self, process: Process, fd: int) -> None:
        for listener in self.fd_listeners:
            listener.fd_flags_changed(process, fd)

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------
    def realtime_ns(self) -> int:
        return REALTIME_EPOCH_NS + self.sim.now

    def random_bytes(self, count: int) -> bytes:
        out = bytearray()
        state = self._rng_state
        while len(out) < count:
            state = (state * 6364136223846793005 + 1442695040888963407) & (
                (1 << 64) - 1
            )
            out += state.to_bytes(8, "little")
        self._rng_state = state
        return bytes(out[:count])

    def random_u64(self) -> int:
        """``int.from_bytes(self.random_bytes(8), "little")``: one
        generator step, whose 8 little-endian bytes decode back to the
        new state itself."""
        state = (self._rng_state * 6364136223846793005 + 1442695040888963407) & (
            (1 << 64) - 1
        )
        self._rng_state = state
        return state

    def copy_cost(self, nbytes: int) -> Sleep:
        return Sleep(int(nbytes * self.config.costs.copy_ns_per_byte), cpu=True)

    def merge_events(self, events) -> Event:
        """An event that fires as soon as any of ``events`` fires."""
        merged = Event("merged")
        for event in events:
            event.add_listener(lambda value, m=merged: self.sim.fire(m, value))
        return merged
