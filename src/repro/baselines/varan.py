"""A VARAN-style in-process, loosely-synchronized MVEE (paper §6).

VARAN (Hosek & Cadar, ASPLOS'15) rewrites system-call instructions into
trampolines to in-process replication agents. The master executes every
call immediately and logs it into a shared ring buffer; slaves running
*behind* the master consume the log and copy results instead of
executing. There is no lockstep, no ptrace, and no distinction between
sensitive and innocuous calls.

That design is fast — and it is the efficiency bar ReMon aims for — but
as a *security* monitor it has the weaknesses §6 discusses, which the
attack scenarios exercise:

* the master runs ahead even for sensitive calls, so a compromised
  master executes attacker-chosen syscalls before any slave checks them
  (the run-ahead window is the ring-buffer depth);
* the agents are protected only by ASLR (no token/CFI mechanism, no
  hidden buffer pointer);
* only explicit syscall instructions are rewritten, so unaligned
  syscall gadgets bypass the agents entirely (modelled by the
  ``raw_syscall`` attack hook).
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Dict, List, Optional

from repro.core.comparator import serialize_args
from repro.core.epoll_map import EpollShadowMap
from repro.core.events import DivergenceReport, MveeResult
from repro.core.handlers import ReplicaView, build_handler_table
from repro.core.ghumvee import ALLEXEC_NAMES, FD_CREATE_NAMES, _install_shadow_fd
from repro.diversity.aslr import make_layouts
from repro.guest.runtime import GuestRuntime
from repro.kernel.specs import SYSCALL_SPECS
from repro.kernel.waitq import WaitQueue, wait_interruptible
from repro.sim import Sleep


class VaranConfig:
    def __init__(
        self,
        replicas: int = 2,
        ring_entries: int = 256,
        check_args: bool = True,
        seed: int = 0,
    ):
        self.replicas = replicas
        #: Ring-buffer depth = the master's maximum run-ahead (in calls).
        self.ring_entries = ring_entries
        #: VARAN tolerates small discrepancies; with check_args False the
        #: slaves only verify the syscall *number*, not the arguments.
        self.check_args = check_args
        self.seed = seed


class RingEvent:
    __slots__ = ("seq", "name", "blob", "result", "payload", "done", "doneq")

    def __init__(self, seq: int, name: str, blob: bytes):
        self.seq = seq
        self.name = name
        self.blob = blob
        self.result: Optional[int] = None
        self.payload: bytes = b""
        self.done = False
        self.doneq = WaitQueue("varan-done")


class RingLane:
    """Per-logical-thread event log with bounded run-ahead."""

    def __init__(self, capacity: int, replica_count: int):
        self.capacity = capacity
        self.events: deque = deque()
        self.master_seq = 0
        self.consumed: Dict[int, int] = {i: 0 for i in range(1, replica_count)}
        self.publishq = WaitQueue("varan-publish")
        self.spaceq = WaitQueue("varan-space")
        self.max_runahead = 0

    def runahead(self) -> int:
        floor = min(self.consumed.values()) if self.consumed else self.master_seq
        return self.master_seq - floor

    def full(self) -> bool:
        return self.runahead() >= self.capacity

    def event_for(self, replica_index: int) -> Optional[RingEvent]:
        seq = self.consumed[replica_index]
        base = self.master_seq - len(self.events)
        idx = seq - base
        if 0 <= idx < len(self.events):
            return self.events[idx]
        return None

    def trim(self) -> None:
        floor = min(self.consumed.values()) if self.consumed else self.master_seq
        base = self.master_seq - len(self.events)
        while self.events and base < floor:
            self.events.popleft()
            base += 1


class Varan:
    """The IP-only MVEE supervising N replicas of one program."""

    def __init__(self, kernel, program, config: Optional[VaranConfig] = None):
        self.kernel = kernel
        self.program = program
        self.config = config or VaranConfig()
        self.result = MveeResult()
        self.layouts = make_layouts(
            self.config.replicas, seed=self.config.seed, aslr=True, dcl=False
        )
        self.processes: List = []
        self.lanes: Dict[int, RingLane] = {}
        self.epoll_map = EpollShadowMap(self.config.replicas)
        self.handlers = build_handler_table(SYSCALL_SPECS.keys())
        self.shutting_down = False
        self.master_exit_ns: Optional[int] = None
        self.stats = {
            "events": 0,
            "allexec": 0,
            "max_runahead": 0,
            "arg_mismatches": 0,
        }
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        kernel = self.kernel
        self.program.install_files(kernel)
        for layout in self.layouts:
            process = kernel.create_process(
                "%s.v%d" % (self.program.name, layout.index),
                mmap_base=layout.mmap_base,
                brk_base=layout.brk_base,
            )
            process.replica_index = layout.index
            process.varan = self
            pressure = kernel.config.costs.memory_pressure_per_replica
            process.compute_factor = 1.0 + pressure * (self.config.replicas - 1)
            self.processes.append(process)
        kernel.syscall_hooks.append(self)
        self._runtimes = [
            GuestRuntime(kernel, process, self.program, layout=layout)
            for process, layout in zip(self.processes, self.layouts)
        ]

    def lane(self, vtid: int) -> RingLane:
        lane = self.lanes.get(vtid)
        if lane is None:
            lane = RingLane(self.config.ring_entries, self.config.replicas)
            self.lanes[vtid] = lane
        return lane

    # ------------------------------------------------------------------
    # Kernel syscall hook
    # ------------------------------------------------------------------
    def intercept(self, thread, req):
        if getattr(thread.process, "varan", None) is not self:
            return None
        if req.bypass_agents:
            # An unaligned syscall gadget: VARAN's binary rewriting never
            # saw this instruction, so the call goes straight through.
            return None
        index = thread.process.replica_index
        if index == 0:
            return self._master(thread, req)
        return self._slave(thread, req, index)

    def _master(self, thread, req):
        kernel = self.kernel
        costs = kernel.config.costs
        lane = self.lane(thread.vtid)
        yield Sleep(costs.ipmon_entry_ns, cpu=True)
        while lane.full():
            event = lane.spaceq.register()
            status, _ = yield from wait_interruptible(thread, event)
            if status == "interrupted":
                lane.spaceq.unregister(event)
                return -4  # EINTR
        blob = serialize_args(req, thread.process.space).encode()
        ring_event = RingEvent(lane.master_seq, req.name, blob)
        lane.events.append(ring_event)
        lane.master_seq += 1
        lane.max_runahead = max(lane.max_runahead, lane.runahead())
        self.stats["max_runahead"] = max(self.stats["max_runahead"], lane.max_runahead)
        self.stats["events"] += 1
        yield Sleep(costs.rb_write_base_ns + costs.rb_copy_ns(len(blob)), cpu=True)
        handler = self.handlers.get(req.name)
        view = ReplicaView(thread.process.space, self.epoll_map, 0)
        if handler is not None:
            handler.observe(view, req)
        result = yield from kernel.invoke(thread, req)
        ring_event.result = result
        if req.name not in ALLEXEC_NAMES and handler is not None:
            ring_event.payload = handler.collect_results(view, req, result)
        ring_event.done = True
        ring_event.doneq.notify_all(kernel.sim)
        lane.publishq.notify_all(kernel.sim)
        return result

    def _slave(self, thread, req, index):
        kernel = self.kernel
        costs = kernel.config.costs
        lane = self.lane(thread.vtid)
        yield Sleep(costs.ipmon_entry_ns, cpu=True)
        # Find our next event (waiting for the master to get there).
        while True:
            ring_event = lane.event_for(index)
            if ring_event is not None:
                break
            event = lane.publishq.register()
            status, _ = yield from wait_interruptible(thread, event)
            if status == "interrupted":
                lane.publishq.unregister(event)
                return -4
        # Consistency check (late — that is the point of the design).
        if ring_event.name != req.name:
            self.divergence(thread, req, "syscall sequence diverged: %s != %s"
                            % (req.name, ring_event.name))
            return -1
        if self.config.check_args:
            blob = serialize_args(req, thread.process.space).encode()
            yield Sleep(costs.compare_cost_ns(len(blob)), cpu=True)
            if blob != ring_event.blob:
                self.stats["arg_mismatches"] += 1
                self.divergence(thread, req, "argument mismatch on %s" % req.name)
                return -1
        if req.name in ALLEXEC_NAMES:
            self.stats["allexec"] += 1
            result = yield from kernel.invoke(thread, req)
            self._consume(lane, index)
            return result
        # Wait for the master's result.
        while not ring_event.done:
            event = ring_event.doneq.register()
            status, _ = yield from wait_interruptible(thread, event)
            if status == "interrupted":
                ring_event.doneq.unregister(event)
                return -4
        result = ring_event.result
        handler = self.handlers.get(req.name)
        if handler is not None:
            view = ReplicaView(thread.process.space, self.epoll_map, index)
            handler.observe(view, req)
            handler.apply_results(view, req, result, ring_event.payload)
            yield Sleep(
                costs.rb_read_base_ns + costs.rb_copy_ns(len(ring_event.payload)),
                cpu=True,
            )
        if req.name in FD_CREATE_NAMES and isinstance(result, int) and result >= 0:
            self._install_shadow(thread.process, req, result)
        self._consume(lane, index)
        return result

    def _consume(self, lane: RingLane, index: int) -> None:
        lane.consumed[index] += 1
        lane.trim()
        lane.spaceq.notify_all(self.kernel.sim)

    def _install_shadow(self, process, req, result: int) -> None:
        if req.name in ("pipe", "pipe2"):
            try:
                raw = process.space.read(req.arg(0), 8, check_prot=False)
                rfd, wfd = struct.unpack("<ii", raw)
            except Exception:  # noqa: BLE001 - shadow install is best effort
                return
            _install_shadow_fd(process, rfd, "pipe")
            _install_shadow_fd(process, wfd, "pipe")
            return
        _install_shadow_fd(process, result, "sock" if "socket" in req.name else "reg")

    # ------------------------------------------------------------------
    def divergence(self, thread, req, detail: str) -> None:
        if self.shutting_down:
            return
        self.result.divergence = DivergenceReport(
            self.kernel.sim.now, thread.vtid, req.name, detail, detected_by="varan"
        )
        self.shutdown("divergence: %s" % detail)

    def shutdown(self, reason: str) -> None:
        if self.shutting_down:
            return
        self.shutting_down = True
        self.result.shutdown_reason = reason
        for process in self.processes:
            if not process.exited:
                self.kernel.terminate_process(process, 137, signo=9)

    # ------------------------------------------------------------------
    def run(self, until=None, max_steps=None) -> MveeResult:
        exit_times = {}
        for process in self.processes:
            process.exit_event.add_listener(
                lambda _v, p=process: exit_times.setdefault(
                    p.replica_index, self.kernel.sim.now
                )
            )
        for runtime in self._runtimes:
            runtime.start()
        self.kernel.sim.run(until=until, max_steps=max_steps)
        self.master_exit_ns = exit_times.get(0, self.kernel.sim.now)
        self.result.exit_codes = [p.exit_code for p in self.processes]
        self.result.wall_time_ns = self.master_exit_ns
        self.result.unmonitored_calls = self.stats["events"]
        self.result.stats = dict(self.stats)
        return self.result
