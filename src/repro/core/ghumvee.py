"""GHUMVEE: the cross-process lockstep monitor (paper §2, §3).

GHUMVEE traces every replica with ptrace and enforces lockstep on all
monitored calls: replica threads with the same logical thread id (vtid)
rendezvous at syscall entry, their arguments are deep-compared, and the
call proceeds under the master-calls model — externally-visible calls
execute only in the master, whose results (return value and output
buffers) are replicated into the slaves; process-local calls execute in
every replica.

It also owns the pieces IP-MON depends on:

* authoritative fd metadata / the IP-MON file map (§3.6);
* the epoll shadow map for monitored epoll calls (§3.9);
* deferred, consistent signal delivery, incl. the RB signals-pending
  flag (§2.2, §3.8);
* shared-memory restrictions (§2.1) and /proc/<pid>/maps filtering
  (§3.1);
* RB reset arbitration (§3.2) and IP-MON registration arbitration
  (§3.5).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional

from repro.core.comparator import compare_requests
from repro.core.events import DivergenceReport
from repro.core.handlers import ReplicaView, handler_for
from repro.kernel import constants as C
from repro.kernel import errno_codes as E
from repro.kernel.memory import MemoryFault
from repro.kernel.vfs import FileObject, OpenFileDescription
from repro.ptrace.api import Stop, Tracer
from repro.sim import Event, Sleep, WaitEvent

#: Process-local calls every replica executes itself.
ALLEXEC_NAMES = frozenset(
    {
        "mmap",
        "munmap",
        "mprotect",
        "mremap",
        "brk",
        "madvise",
        "fadvise64",
        "clone",
        "exit",
        "exit_group",
        "set_tid_address",
        "prctl",
        "sigaltstack",
        "rt_sigaction",
        "rt_sigprocmask",
        "rt_sigpending",
        "futex",
        "sched_yield",
        "close",
        "dup",
        "dup2",
        "fcntl",
        "ipmon_register",
    }
)

#: Master-executed calls that create descriptors; slaves get shadow
#: entries at the same numbers.
FD_CREATE_NAMES = frozenset(
    {
        "open",
        "openat",
        "socket",
        "accept",
        "accept4",
        "epoll_create",
        "epoll_create1",
        "timerfd_create",
        "pipe",
        "pipe2",
    }
)

#: Calls denied under the shared-memory restriction (§2.1).
SHM_NAMES = frozenset({"shmget", "shmat", "shmdt", "shmctl"})

_READ_FAMILY = frozenset({"read", "readv", "pread64", "preadv"})

#: Stall watchdog under a DegradationPolicy: re-arm this many times,
#: doubling the timeout up to the cap, before declaring laggards faulted.
STALL_BACKOFF_ATTEMPTS = 3
STALL_BACKOFF_MAX_NS = 8_000_000_000


def _scrub_maps(content: bytes) -> bytes:
    """/proc/<pid>/maps content without IP-MON's hidden mappings (§3.1)."""
    return b"\n".join(
        line
        for line in content.split(b"\n")
        if b"[ipmon-rb]" not in line and b"[ipmon-filemap]" not in line
    )


class ShadowFile(FileObject):
    """Placeholder object occupying slave descriptor slots.

    Slaves never perform real I/O — their calls are skipped and results
    replicated — but descriptor numbers must stay consistent, and local
    operations (close, dup, fcntl) must work.
    """

    kind = "shadow"

    def __init__(self, mimic_kind: str, name: str = "shadow"):
        super().__init__(name)
        self.mimic_kind = mimic_kind

    def poll_mask(self, kernel) -> int:
        return 0


class AsyncLock:
    """A FIFO mutex for monitor coroutines."""

    __slots__ = ("sim", "name", "locked", "_waiters")

    def __init__(self, sim, name: str = "lock"):
        self.sim = sim
        self.name = name
        self.locked = False
        self._waiters: List = []

    def acquire(self):
        while self.locked:
            event = Event(self.name)
            self._waiters.append(event)
            yield WaitEvent(event)
        self.locked = True

    def release(self) -> None:
        self.locked = False
        if self._waiters:
            self.sim.fire(self._waiters.pop(0))


class LockstepContext:
    """Rendezvous state for one logical thread (vtid)."""

    def __init__(self, ghumvee: "Ghumvee", vtid: int):
        self.ghumvee = ghumvee
        self.vtid = vtid
        self.entry_stops: Dict[int, Stop] = {}
        self.exit_stops: Dict[int, Stop] = {}
        self.phase = "idle"  # idle | entry | executing | draining
        self.active_reqs: Dict[int, object] = {}
        self.master_result: Optional[int] = None
        self.call_class: str = ""
        self.rendezvous_count = 0
        #: Bumped whenever a rendezvous completes; the stall watchdog
        #: compares generations to spot a partial rendezvous that never
        #: filled up (a compromised replica went its own way, §4).
        self.generation = 0
        #: Guards against spawning a finish task twice when a quarantine
        #: re-checks exit completion right after the last exit arrived.
        self.finishing = False
        #: Set when the master died mid-mastercall: the promoted master
        #: skipped its own call, so GHUMVEE re-executes it at finish.
        self.master_reexec = False

    # -- stop routing -------------------------------------------------------
    def on_entry(self, stop: Stop) -> None:
        entry_stops = self.entry_stops
        first_arrival = not entry_stops
        entry_stops[stop.thread.process.replica_index] = stop
        if len(entry_stops) == self.ghumvee.live_replica_count():
            self.generation += 1
            self.phase = "entry"
            self.ghumvee.spawn_monitor_task(
                self._handle_rendezvous(), "ghumvee:rendezvous"
            )
        elif first_arrival:
            self._arm_stall_watchdog(stop)

    def _arm_stall_watchdog(
        self, stop: Stop, attempt: int = 0, timeout_ns: Optional[int] = None
    ) -> None:
        ghumvee = self.ghumvee
        generation = self.generation
        name = stop.req.name if stop.req is not None else ""
        policy = ghumvee.remon.config.degradation
        if timeout_ns is None:
            timeout_ns = ghumvee.lockstep_timeout_ns

        def _check():
            if ghumvee.remon.shutting_down or ghumvee.group_exiting:
                return
            if self.generation != generation or not self.entry_stops:
                return
            if len(self.entry_stops) >= ghumvee.live_replica_count():
                return
            if policy is not None and attempt + 1 < STALL_BACKOFF_ATTEMPTS:
                # Bounded exponential backoff: give genuinely slow
                # replicas a doubled window before declaring a stall.
                ghumvee.stats["rendezvous_backoff_retries"] += 1
                self._arm_stall_watchdog(
                    stop,
                    attempt=attempt + 1,
                    timeout_ns=min(timeout_ns * 2, STALL_BACKOFF_MAX_NS),
                )
                return
            arrived = sorted(self.entry_stops)
            detail = (
                "lockstep stall: only replicas %r reached the %s "
                "rendezvous within the timeout" % (arrived, name)
            )
            if policy is not None:
                # Route each silent laggard through the degradation
                # decision; it is quarantined (and the rendezvous
                # re-checked at the shrunken quorum) when stalls are
                # classified benign and quorum holds.
                laggards = [
                    p
                    for p in ghumvee.group.processes
                    if not p.exited
                    and not p.quarantined
                    and p.replica_index not in self.entry_stops
                ]
                for process in laggards:
                    ghumvee.remon.replica_fault(
                        process,
                        DivergenceReport(
                            ghumvee.kernel.sim.now,
                            self.vtid,
                            name,
                            detail,
                            detected_by="ghumvee",
                            kind="stall",
                        ),
                    )
                return
            ghumvee.remon.divergence(
                DivergenceReport(
                    ghumvee.kernel.sim.now,
                    self.vtid,
                    name,
                    detail,
                    detected_by="ghumvee",
                    kind="stall",
                )
            )

        ghumvee.kernel.sim.call_at(ghumvee.kernel.sim.now + timeout_ns, _check)

    def on_exit(self, stop: Stop) -> None:
        exit_stops = self.exit_stops
        exit_stops[stop.thread.process.replica_index] = stop
        if self.finishing:
            return
        if len(exit_stops) < self.ghumvee.live_replica_count():
            return
        self.finishing = True
        if self.call_class == "allexec":
            self.ghumvee.spawn_monitor_task(
                self._finish_allexec(), "ghumvee:allexec-exit"
            )
        else:
            self.ghumvee.spawn_monitor_task(self._finish_mastercall(), "ghumvee:exit")

    # -- phases ----------------------------------------------------------------
    def _handle_rendezvous(self):
        ghumvee = self.ghumvee
        stops = [self.entry_stops[i] for i in sorted(self.entry_stops)]
        name = stops[0].req.name
        if name == "clone":
            # Serialize thread creation across logical threads so vtid
            # assignment matches in every replica. Taken before the
            # monitor lock to keep lock ordering acyclic.
            yield from ghumvee.clone_lock.acquire()
        # The monitor serializes its handling: ptrace stop processing
        # shares the monitor's waitpid loop and kernel-side tracing
        # locks, which is a large part of why CP monitoring scales so
        # poorly with syscall density.
        obs = ghumvee.obs
        lock_wait_from = ghumvee.kernel.sim.now
        yield from ghumvee.monitor_lock.acquire()
        span = None
        if obs is not None:
            obs.registry.histogram("rendezvous_wait_ns").observe(
                ghumvee.kernel.sim.now - lock_wait_from
            )
            if obs.tracer.enabled:
                span = obs.tracer.begin(
                    "ghumvee", "rendezvous", syscall=name, vtid=self.vtid,
                    replicas=len(stops),
                )
        try:
            yield from self._rendezvous_locked(stops)
        finally:
            ghumvee.monitor_lock.release()
            if span is not None:
                span.finish()

    def _rendezvous_locked(self, stops):
        ghumvee = self.ghumvee
        costs = ghumvee.costs
        if ghumvee.remon.result.diverged or ghumvee.remon.shutting_down:
            return  # leave everyone parked; teardown is imminent
        self.rendezvous_count += 1
        ghumvee.stats["monitored_calls"] += 1
        reqs = [stop.req for stop in stops]
        spaces = [stop.thread.process.space for stop in stops]
        n = len(stops)

        # ptrace entry stops + monitor dispatch (+ obs instruments when on).
        yield Sleep(
            n * costs.ptrace_roundtrip_ns()
            + costs.monitor_dispatch_ns
            + ghumvee._obs_ns,
            cpu=True,
        )
        obs = ghumvee.obs
        if obs is not None and obs.recorder is not None:
            now = ghumvee.kernel.sim.now
            for index, stop in sorted(self.entry_stops.items()):
                obs.recorder.record(index, now, "rendezvous",
                                    stop.req.name, vtid=self.vtid)

        # Cross-check arguments (deep copies via process_vm_readv).
        mismatch, nbytes = compare_requests(list(zip(reqs, spaces)))
        yield Sleep(
            costs.compare_cost_ns(nbytes, len(reqs[0].args) * n)
            + n * costs.ptrace_peek_ns,
            cpu=True,
        )
        if mismatch is not None:
            ghumvee.remon.divergence(
                DivergenceReport(
                    ghumvee.kernel.sim.now,
                    self.vtid,
                    reqs[0].name,
                    mismatch.detail,
                    detected_by="ghumvee",
                    replica_args=[r.args for r in reqs],
                    replica=mismatch.replica,
                )
            )
            return

        name = reqs[0].name
        self.active_reqs = {i: stop.req for i, stop in self.entry_stops.items()}

        # Temporal exemption bookkeeping (§3.4): this monitored call was
        # approved; identical calls may soon be exempted.
        temporal = ghumvee.remon.policy.temporal
        if temporal is not None:
            temporal.record_approval(reqs[0], ghumvee.kernel.sim.now)

        # Replica-local bookkeeping, e.g. epoll_ctl records every
        # replica's own data value so monitored epoll_wait results can be
        # translated per replica (§3.9).
        handler = handler_for(name)
        views = ghumvee.views
        for index, stop in self.entry_stops.items():
            handler.observe(views[index], stop.req)

        # Deliver deferred signals now: every replica is parked at an
        # equivalent state (§2.2).
        ghumvee.flush_pending_signals(self.vtid)

        # Shared-memory restriction (§2.1): deny consistently everywhere.
        if name in SHM_NAMES and not ghumvee.allow_shared_memory:
            ghumvee.stats["shm_denied"] += 1
            for stop in stops:
                ghumvee.tracer.skip_call(stop.thread, -E.EACCES)
            self.call_class = "allexec"  # each replica observes its own denial
            self._release_entry(stops)
            return
        if name == "mmap" and not ghumvee.allow_shared_memory:
            flags = reqs[0].arg(3)
            if flags & C.MAP_SHARED and not flags & C.MAP_ANONYMOUS:
                for stop in stops:
                    ghumvee.tracer.skip_call(stop.thread, -E.EACCES)
                self.call_class = "allexec"
                self._release_entry(stops)
                return

        if name == "ipmon_register" and not ghumvee.remon.config.allow_ipmon_registration:
            # §3.5: GHUMVEE arbitrates and vetoes the registration.
            ghumvee.stats["ipmon_registrations_denied"] = (
                ghumvee.stats.get("ipmon_registrations_denied", 0) + 1
            )
            for stop in stops:
                ghumvee.tracer.skip_call(stop.thread, -E.EPERM)
            self.call_class = "allexec"
            self._release_entry(stops)
            return

        if name in ("exit", "exit_group"):
            # Replicas agreed to terminate: no exit stop will follow (the
            # call never returns), and exit_group legitimately tears down
            # sibling threads that may be parked in their own rendezvous.
            if name == "exit_group":
                ghumvee.group_exiting = True
            self.entry_stops = {}
            self.phase = "idle"
            for stop in stops:
                ghumvee.tracer.resume(stop.thread)
            return

        if name in ALLEXEC_NAMES:
            self.call_class = "allexec"
            self._release_entry(stops)
            return

        # Master-calls model: the master executes, slaves skip.
        self.call_class = "fdcreate" if name in FD_CREATE_NAMES else "mastercall"
        self.phase = "executing"
        master_index = ghumvee.group.master_index
        for index, stop in self.entry_stops.items():
            if index != master_index:
                ghumvee.tracer.skip_call(stop.thread, 0)
        self._release_entry(stops)

    def _release_entry(self, stops) -> None:
        self.entry_stops = {}
        for stop in stops:
            self.ghumvee.tracer.resume(stop.thread)

    def _finish_allexec(self):
        ghumvee = self.ghumvee
        yield from ghumvee.monitor_lock.acquire()
        try:
            yield from self._finish_allexec_locked()
        finally:
            ghumvee.monitor_lock.release()

    def _finish_allexec_locked(self):
        ghumvee = self.ghumvee
        costs = ghumvee.costs
        stops = [self.exit_stops[i] for i in sorted(self.exit_stops)]
        n = len(stops)
        yield Sleep(n * costs.ptrace_roundtrip_ns(), cpu=True)
        name = stops[0].req.name if stops[0].req is not None else ""
        results = [stop.result for stop in stops]
        # Results may legitimately differ (mmap addresses, tids) but must
        # agree on success vs failure.
        ok = [isinstance(r, int) and r >= -4095 and r < 0 for r in results]
        if any(ok) and not all(ok):
            ghumvee.remon.divergence(
                DivergenceReport(
                    ghumvee.kernel.sim.now,
                    self.vtid,
                    name,
                    "allexec results disagree on success: %r" % (results,),
                    detected_by="ghumvee",
                )
            )
            return
        # Bookkeeping keys off any present replica's request: descriptor
        # numbers are identical across replicas, and after a quarantine
        # index 0 may no longer be in the group.
        req0 = self.active_reqs[min(self.active_reqs)] if self.active_reqs else None
        if name == "clone":
            ghumvee.clone_lock.release()
        elif name == "close" and results and results[0] == 0 and req0 is not None:
            ghumvee.fd_metadata.record_close(req0.arg(0))
        elif name in ("dup", "dup2") and results and results[0] >= 0 and req0 is not None:
            ghumvee.fd_metadata.record_dup(req0.arg(0), results[0])
        elif name == "fcntl" and results and results[0] >= 0 and req0 is not None:
            req = req0
            if req.arg(1) == C.F_SETFL:
                ghumvee.fd_metadata.record_nonblocking(
                    req.arg(0), bool(req.arg(2) & C.O_NONBLOCK)
                )
            elif req.arg(1) == C.F_DUPFD:
                ghumvee.fd_metadata.record_dup(req.arg(0), results[0])
        elif name == "ipmon_register" and results and results[0] == 0:
            ghumvee.stats["ipmon_registrations"] += 1
        self._finish_common(stops)

    def _finish_mastercall(self):
        ghumvee = self.ghumvee
        yield from ghumvee.monitor_lock.acquire()
        try:
            yield from self._finish_mastercall_locked()
        finally:
            ghumvee.monitor_lock.release()

    def _finish_mastercall_locked(self):
        ghumvee = self.ghumvee
        costs = ghumvee.costs
        mi = ghumvee.group.master_index
        master_stop = self.exit_stops.get(mi)
        if master_stop is None:
            # No master survived this call (quarantine without a viable
            # promotion, or teardown racing the finish): unblock the
            # parked survivors with EINTR and let remon's verdict stand.
            for stop in self.exit_stops.values():
                stop.final_result = -E.EINTR
            self._finish_common(list(self.exit_stops.values()))
            return
        slave_stops = [self.exit_stops[i] for i in sorted(self.exit_stops) if i != mi]
        n = len(self.exit_stops)
        req = self.active_reqs.get(mi)
        name = req.name if req is not None else ""
        yield Sleep(n * costs.ptrace_roundtrip_ns(), cpu=True)
        if self.master_reexec and req is not None:
            # The original master died mid-call; the promoted master had
            # skipped its own copy, so the monitor re-executes the call
            # on its behalf. This is an at-least-once boundary (see
            # DESIGN.md, "Fault model"): a call the dead master already
            # completed externally may run a second time.
            result = yield from ghumvee.kernel.invoke(master_stop.thread, req)
            master_stop.final_result = result
            ghumvee.stats["mastercall_reexecs"] += 1
        else:
            result = master_stop.result

        replicated = 0
        if isinstance(result, int) and result >= 0 and req is not None:
            replicated = yield from self._replicate_outputs(
                req, result, master_stop, slave_stops
            )
        if self.call_class == "fdcreate" and isinstance(result, int) and result >= 0:
            self._install_shadows(req, result, slave_stops)
        # getters & time: consistent results from the master for all.
        for stop in slave_stops:
            stop.final_result = master_stop.final_result
        ghumvee.stats["bytes_replicated"] += replicated
        self._finish_common([master_stop] + slave_stops)

    def _finish_common(self, stops) -> None:
        self.exit_stops = {}
        self.active_reqs = {}
        self.phase = "idle"
        self.call_class = ""
        self.finishing = False
        self.master_reexec = False
        for stop in stops:
            self.ghumvee.tracer.resume(stop.thread, final_result=stop.final_result)

    # -- output replication ---------------------------------------------------
    def _replicate_outputs(self, master_req, result: int, master_stop, slave_stops):
        """Copy the master's return value and out-buffers into every
        slave through the shared handler; returns the bytes written."""
        ghumvee = self.ghumvee
        handler = handler_for(master_req.name)
        if handler.spec is None or not slave_stops:
            return 0
        costs = ghumvee.costs
        name = master_req.name
        views = ghumvee.views
        master_view = views[ghumvee.group.master_index]
        payload = handler.collect_results(master_view, master_req, result)
        if name in _READ_FAMILY and ghumvee.fd_is_special(master_req.arg(0)):
            # /proc/<pid>/maps filtering (§3.1): scrub IP-MON mappings
            # before any replica-visible copy.
            payload, result = handler.rewrite_output(
                master_view, master_req, result, payload, _scrub_maps
            )
            master_stop.final_result = result
        replicated = 0
        if payload:
            active_reqs = self.active_reqs
            for stop in slave_stops:
                index = stop.thread.process.replica_index
                replicated += handler.apply_results(
                    views[index], active_reqs.get(index, master_req), result, payload
                )
        cost = costs.replicate_cost_ns(replicated)
        # poll and a non-empty epoll_wait rewrite one array in place.
        if name != "poll" and (name != "epoll_wait" or result <= 0):
            cost += len(slave_stops) * costs.ptrace_poke_ns
        yield Sleep(cost, cpu=True)
        return replicated

    # -- shadow descriptors -----------------------------------------------------
    def _install_shadows(self, master_req, result: int, slave_stops) -> None:
        ghumvee = self.ghumvee
        name = master_req.name
        master_process = ghumvee.group.master()
        if name in ("pipe", "pipe2"):
            # Fd numbers came back through the replicated buffer.
            try:
                raw = master_process.space.read(master_req.arg(0), 8, check_prot=False)
                rfd, wfd = struct.unpack("<ii", raw)
            except MemoryFault:
                return
            for fd in (rfd, wfd):
                ghumvee.fd_metadata.record_open(fd, "pipe")
                for stop in slave_stops:
                    _install_shadow_fd(stop.thread.process, fd, "pipe")
            return
        fd = result
        entry = master_process.fdtable.get(fd)
        kind = entry.ofd.file.kind if entry is not None else "reg"
        nonblocking = entry.ofd.nonblocking if entry is not None else False
        proc_entry = entry.ofd.file.proc_entry if entry is not None else None
        special = proc_entry is not None
        if special and proc_entry[0] == "maps":
            # §3.1: scrub IP-MON's hidden mappings from the snapshot the
            # replica is about to read.
            node = entry.ofd.file
            node.snapshot = _scrub_maps(node.content())
        ghumvee.fd_metadata.record_open(fd, kind, nonblocking, special)
        for stop in slave_stops:
            _install_shadow_fd(stop.thread.process, fd, kind)

    # -- degraded mode --------------------------------------------------------
    def drop_replica(self, index: int, was_master: bool) -> None:
        """A replica was quarantined: release its lockstep slots and
        re-check whether pending rendezvous or finish phases complete at
        the shrunken quorum."""
        ghumvee = self.ghumvee
        self.entry_stops.pop(index, None)
        self.exit_stops.pop(index, None)
        self.active_reqs.pop(index, None)
        if (
            was_master
            and self.phase == "executing"
            and self.call_class in ("mastercall", "fdcreate")
        ):
            # The dying master may never produce a result; the promoted
            # master must re-execute the call at finish time.
            self.master_reexec = True
        live = ghumvee.live_replica_count()
        if live == 0:
            return
        if (
            self.phase == "idle"
            and not self.call_class
            and self.entry_stops
            and len(self.entry_stops) >= live
        ):
            self.generation += 1
            self.phase = "entry"
            ghumvee.spawn_monitor_task(self._handle_rendezvous(), "ghumvee:rendezvous")
            return
        if (
            self.call_class
            and self.exit_stops
            and len(self.exit_stops) >= live
            and not self.finishing
        ):
            self.finishing = True
            if self.call_class == "allexec":
                ghumvee.spawn_monitor_task(
                    self._finish_allexec(), "ghumvee:allexec-exit"
                )
            else:
                ghumvee.spawn_monitor_task(self._finish_mastercall(), "ghumvee:exit")

    # -- teardown ------------------------------------------------------------
    def on_replica_gone(self, stop: Stop) -> None:
        """A replica thread died while a rendezvous was pending."""
        if self.ghumvee.group_exiting:
            return
        process = stop.thread.process
        if process.quarantined or self.ghumvee.remon.crash_would_degrade(process):
            # The quarantine path (remon.replica_fault → drop_replica)
            # releases this replica's slots in a controlled way instead.
            return
        if self.entry_stops or self.exit_stops:
            parked = [s.thread.name for s in self.entry_stops.values()]
            self.ghumvee.remon.divergence(
                DivergenceReport(
                    self.ghumvee.kernel.sim.now,
                    self.vtid,
                    stop.req.name if stop.req else "",
                    "replica %s died (sig=%d) while %r awaited lockstep"
                    % (stop.thread.name, stop.signo, parked),
                    detected_by="exit",
                )
            )


def _install_shadow_fd(process, fd: int, kind: str) -> None:
    shadow = ShadowFile(kind, name="shadow:%d" % fd)
    process.fdtable.install(fd, OpenFileDescription(shadow, C.O_RDWR))


class Ghumvee:
    """The monitor process: tracer callbacks + lockstep state machines."""

    def __init__(self, remon):
        self.remon = remon
        self.kernel = remon.kernel
        self.group = remon.group
        self.costs = self.kernel.config.costs
        self.tracer = Tracer(self.kernel, name="ghumvee")
        self.tracer.stop_handler = self._on_stop
        self.tracer.signal_handler = self._on_signal
        self.tracer.exit_handler = self._on_exit
        self.fd_metadata = remon.fd_metadata
        self.epoll_map = remon.epoll_map
        #: Each replica as the shared handlers see it, by replica index.
        self.views = [
            ReplicaView(process.space, self.epoll_map, index)
            for index, process in enumerate(self.group.processes)
        ]
        self.allow_shared_memory = remon.config.allow_shared_memory
        self.contexts: Dict[int, LockstepContext] = {}
        self.pending_signals: List[int] = []
        #: Set once an exit_group rendezvous completes: replica teardown
        #: from that point on is expected, not divergence.
        self.group_exiting = False
        self.monitor_lock = AsyncLock(self.kernel.sim, "monitor")
        self.clone_lock = AsyncLock(self.kernel.sim, "clone")
        self.obs = remon.obs
        # Deterministic virtual cost obs instruments add per rendezvous;
        # zero unless spans / the flight recorder are enabled.
        self._obs_ns = self.obs.dispatch_cost_ns if self.obs is not None else 0
        #: How long a partially-filled rendezvous may wait before the
        #: monitor declares the replicas' syscall sequences diverged.
        self.lockstep_timeout_ns = 1_000_000_000
        self.stats = {
            "monitored_calls": 0,
            "bytes_replicated": 0,
            "signals_deferred": 0,
            "signals_delivered": 0,
            "shm_denied": 0,
            "ipmon_registrations": 0,
            "rendezvous_backoff_retries": 0,
            "mastercall_reexecs": 0,
        }

    # ------------------------------------------------------------------
    def attach_all(self) -> None:
        for process in self.group.processes:
            self.tracer.attach(process)

    def live_replica_count(self) -> int:
        """Replicas that still participate in rendezvous: quarantined
        ones are out of the group even before their teardown lands.

        Recounted on every stop (a plain loop: no generator frames), so
        an exit or a quarantine takes effect at the very next stop."""
        live = 0
        for process in self.group.processes:
            if not process.exited and not process.quarantined:
                live += 1
        return live

    def on_replica_quarantined(self, index: int, was_master: bool) -> None:
        """Release a quarantined replica's lockstep state in every
        logical-thread context and re-check pending phases against the
        shrunken quorum."""
        for ctx in list(self.contexts.values()):
            ctx.drop_replica(index, was_master)

    def spawn_monitor_task(self, gen, name: str) -> None:
        task = self.kernel.sim.spawn(gen, name=name)

        def _check_failure(_value, t=task):
            if t.failure is not None:
                self.remon.monitor_failures.append(t.failure)

        task.done_event.add_listener(_check_failure)

    # ------------------------------------------------------------------
    # Tracer callbacks
    # ------------------------------------------------------------------
    def _on_stop(self, stop: Stop) -> None:
        remon = self.remon
        if remon.shutting_down or remon.result.divergence is not None:
            # Leave the thread parked; remon is killing everything.
            return
        vtid = stop.thread.vtid
        try:
            ctx = self.contexts[vtid]
        except KeyError:
            ctx = self.contexts[vtid] = LockstepContext(self, vtid)
        if stop.kind == "syscall-entry":
            ctx.on_entry(stop)
        else:
            ctx.on_exit(stop)

    def _on_signal(self, stop: Stop) -> None:
        """Asynchronous signal intercepted: defer it (§2.2/§3.8)."""
        self.stats["signals_deferred"] += 1
        self.pending_signals.append(stop.signo)
        ipmon = self.remon.ipmon
        if ipmon is not None:
            ipmon.set_signals_pending(True)
            # §3.8: abort the master replica's blocking unmonitored call
            # so deferral cannot stall indefinitely.
            master = self.group.master()
            for thread in master.live_threads():
                if thread.in_interruptible_wait and not thread.ptrace_stopped:
                    self.tracer.interrupt_call(thread)

    def _on_exit(self, stop: Stop) -> None:
        if self.remon.shutting_down:
            return
        ctx = self.contexts.get(stop.thread.vtid)
        if ctx is not None:
            ctx.on_replica_gone(stop)
        self.remon.on_replica_thread_exit(stop)

    # ------------------------------------------------------------------
    # Deferred signal delivery
    # ------------------------------------------------------------------
    def flush_pending_signals(self, vtid: int) -> None:
        if not self.pending_signals:
            return
        signals, self.pending_signals = self.pending_signals, []
        for signo in signals:
            self.stats["signals_delivered"] += 1
            for process in self.group.processes:
                if process.exited:
                    continue
                target = None
                for thread in process.threads.values():
                    if thread.vtid == vtid and not thread.exited:
                        target = thread
                        break
                if target is None:
                    threads = process.live_threads()
                    target = threads[0] if threads else None
                if target is not None:
                    self.tracer.inject_signal(target, signo)
        ipmon = self.remon.ipmon
        if ipmon is not None:
            ipmon.set_signals_pending(False)

    # ------------------------------------------------------------------
    # Special files (§3.1)
    # ------------------------------------------------------------------
    def fd_is_special(self, fd: int) -> bool:
        info = self.fd_metadata.info(fd)
        return bool(info and (info.special or info.kind == "special"))
