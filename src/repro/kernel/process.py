"""Processes, threads and file-descriptor tables."""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

from repro.kernel import constants as C
from repro.kernel import errno_codes as E
from repro.kernel.memory import AddressSpace
from repro.kernel.waitq import INTERRUPTED
from repro.sim import Event


class FDEntry:
    """One slot in a file-descriptor table."""

    __slots__ = ("ofd", "cloexec")

    def __init__(self, ofd, cloexec: bool = False):
        self.ofd = ofd
        self.cloexec = cloexec


class FDTable:
    """Per-process descriptor table with lowest-free allocation."""

    def __init__(self, limit: int = C.DEFAULT_RLIMIT_NOFILE):
        self._entries: Dict[int, FDEntry] = {}
        self.limit = limit

    def alloc(self, ofd, cloexec: bool = False, lowest: int = 0) -> int:
        """Install ``ofd`` at the lowest free fd >= ``lowest``."""
        fd = lowest
        while fd in self._entries:
            fd += 1
        if fd >= self.limit:
            return -E.EMFILE
        self._entries[fd] = FDEntry(ofd, cloexec)
        ofd.refcount += 1
        return fd

    def install(self, fd: int, ofd, cloexec: bool = False):
        """Install at a specific fd, closing whatever was there (dup2)."""
        old = self._entries.pop(fd, None)
        if old is not None:
            old.ofd.release()
        self._entries[fd] = FDEntry(ofd, cloexec)
        ofd.refcount += 1
        return old

    def get(self, fd: int) -> Optional[FDEntry]:
        return self._entries.get(fd)

    def close(self, fd: int) -> int:
        entry = self._entries.pop(fd, None)
        if entry is None:
            return -E.EBADF
        entry.ofd.release()
        return 0

    def close_all(self) -> None:
        for entry in self._entries.values():
            entry.ofd.release()
        self._entries.clear()

    def fds(self):
        return sorted(self._entries)

    def __len__(self):
        return len(self._entries)

    def __contains__(self, fd: int) -> bool:
        return fd in self._entries


class SignalAction:
    """Disposition for one signal number."""

    __slots__ = ("handler", "mask", "flags")

    def __init__(self, handler=C.SIG_DFL, mask=frozenset(), flags=0):
        self.handler = handler
        self.mask = frozenset(mask)
        self.flags = flags


class PendingSignal:
    __slots__ = ("signo", "sender_pid", "synchronous")

    def __init__(self, signo: int, sender_pid: int = 0, synchronous: bool = False):
        self.signo = signo
        self.sender_pid = sender_pid
        self.synchronous = synchronous

    def __repr__(self):
        return "PendingSignal(%s)" % C.SIGNAL_NAMES.get(self.signo, self.signo)


class Process:
    """A simulated process: address space + fd table + threads + signals."""

    def __init__(
        self,
        kernel,
        pid: int,
        name: str,
        space: AddressSpace,
        ppid: int = 1,
        uid: int = 1000,
        gid: int = 1000,
    ):
        self.kernel = kernel
        self.pid = pid
        self.name = name
        self.space = space
        self.ppid = ppid
        self.pgid = pid
        self.uid = uid
        self.gid = gid
        self.euid = uid
        self.egid = gid
        self.cwd = "/"
        self.fdtable = FDTable()
        self.signal_actions: Dict[int, SignalAction] = {}
        self.threads: Dict[int, "Thread"] = {}
        self.exited = False
        self.exit_code: Optional[int] = None
        #: Set by the MVEE when this replica is removed from the group as
        #: a benign fault (degraded mode) — its death is then expected.
        self.quarantined = False
        #: This replica's index in its MVEE's group (None outside one).
        self.replica_index: Optional[int] = None
        #: Multiplier on guest ``Compute`` time (memory-pressure model;
        #: the MVEE front ends set it per replica).
        self.compute_factor = 1.0
        self.exit_event = Event("exit:%s" % name)
        self.start_time_ns = 0
        # Accounting for times()/getrusage()
        self.utime_ns = 0
        self.stime_ns = 0
        # itimer (ITIMER_REAL) state: (next_expiry_ns, interval_ns) or None
        self.itimer_real = None
        # Attached SysV shm segments: attach address -> shmid
        self.shm_attachments: Dict[int, int] = {}

    def action_for(self, signo: int) -> SignalAction:
        return self.signal_actions.get(signo, SignalAction())

    def live_threads(self):
        return [t for t in self.threads.values() if not t.exited]

    def __repr__(self):
        return "Process(pid=%d, %s)" % (self.pid, self.name)


class Thread:
    """A simulated thread of execution."""

    def __init__(self, process: Process, tid: int, name: str = ""):
        self.process = process
        self.tid = tid
        self.name = name or "%s.t%d" % (process.name, tid)
        self.sigmask = set()
        self.pending = deque()
        self.exited = False
        self.exit_event = Event("texit:%s" % self.name)
        self.task = None  # simulator Task, set by the guest runtime
        # Interruptible-wait bookkeeping: the event the thread currently
        # blocks on, so signal delivery can interrupt it.
        self._interrupt_event = None
        self.in_interruptible_wait = False
        # ptrace state (managed by repro.ptrace.api.Tracer)
        self.tracer = None
        self.ptrace_stopped = False
        self.ptrace_resume_event = None
        #: The tracer's reusable wait on this thread's resume event.
        self.ptrace_park_wait = None
        self.ptrace_current_stop = None
        self.ptrace_skip_call = False
        self.ptrace_forced_result = None
        self.suppress_restart = False
        # Set by the guest runtime so the kernel and monitors can
        # introspect what the thread is doing (paper §3.8).
        self.current_syscall = None
        self.in_ipmon_syscall = False
        # Per-thread accounting
        self.syscall_count = 0
        self.utime_ns = 0

    # -- signal/interrupt plumbing --------------------------------------
    def begin_interruptible(self, event) -> None:
        self._interrupt_event = event
        self.in_interruptible_wait = True

    def end_interruptible(self, event) -> None:
        if self._interrupt_event is event:
            self._interrupt_event = None
        self.in_interruptible_wait = False

    def interrupt(self, sim) -> bool:
        """Interrupt a blocked thread (signal arrival). Returns True when
        the thread was actually blocked in an interruptible wait."""
        event = self._interrupt_event
        if event is not None and not event.fired:
            self._interrupt_event = None
            sim.fire(event, INTERRUPTED)
            return True
        return False

    def deliverable_signal(self) -> Optional[PendingSignal]:
        """First pending signal not blocked by the thread's mask."""
        for pending in self.pending:
            if pending.signo not in self.sigmask or pending.signo in (
                C.SIGKILL,
                C.SIGSTOP,
            ):
                return pending
        return None

    def take_signal(self, pending: PendingSignal) -> None:
        self.pending.remove(pending)

    def __repr__(self):
        return "Thread(%s)" % self.name
