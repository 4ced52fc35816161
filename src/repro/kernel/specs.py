"""ABI specifications for system-call arguments and results.

The MVEE layers need to know, for every syscall, which arguments are
plain values, which are pointers (whose raw values legitimately differ
between diversified replicas), which point at input buffers whose
*contents* must match, and which point at output buffers whose contents
must be replicated from the master to the slaves.

GHUMVEE's comparator, IP-MON's CALCSIZE/PRECALL/POSTCALL handlers and
the replication engine all consume this one table, which is the moral
equivalent of the C macro blocks in the paper's Listing 1.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

# --- length sources --------------------------------------------------------


def from_arg(index: int) -> Tuple[str, int]:
    """Length comes from argument ``index`` of the call."""
    return ("arg", index)


def from_ret() -> Tuple[str, int]:
    """Length is the call's (non-negative) return value."""
    return ("ret", 0)


def fixed(nbytes: int) -> Tuple[str, int]:
    """Fixed-size structure."""
    return ("fixed", nbytes)


# --- argument atoms ---------------------------------------------------------


class ArgSpec:
    """Base class; ``compare`` tells the monitor how to cross-check."""

    kind = "reg"

    def __repr__(self):
        return "<%s>" % self.kind


class Reg(ArgSpec):
    """Plain value: must be identical in all replicas."""

    kind = "reg"


class Fd(Reg):
    """A file descriptor: identical across replicas (fd allocation is
    deterministic and monitored)."""

    kind = "fd"


class Ptr(ArgSpec):
    """A pointer whose raw value differs under ASLR; replicas must agree
    only on NULL-ness."""

    kind = "ptr"


class Callable_(ArgSpec):
    """A code pointer (signal handler, thread entry). Under DCL the raw
    values always differ; replicas must agree on NULL/SIG_DFL/SIG_IGN
    versus a real handler."""

    kind = "callable"


class CStr(ArgSpec):
    """Pointer to a NUL-terminated string; contents must match."""

    kind = "cstr"


class BufIn(ArgSpec):
    """Pointer to an input buffer; contents must match. ``length`` is a
    length source (usually another argument)."""

    kind = "buf_in"

    def __init__(self, length):
        self.length = length


class BufOut(ArgSpec):
    """Pointer to an output buffer the kernel fills; the master's bytes
    are replicated to the slaves. ``length`` bounds the copy (the actual
    number of valid bytes usually comes from the return value)."""

    kind = "buf_out"

    def __init__(self, length, valid=None):
        self.length = length
        self.valid = valid if valid is not None else from_ret()


class StructOut(BufOut):
    """Fixed-size output structure."""

    kind = "struct_out"

    def __init__(self, nbytes: int):
        super().__init__(fixed(nbytes), valid=fixed(nbytes))


class StructIn(BufIn):
    """Fixed-size input structure."""

    kind = "struct_in"

    def __init__(self, nbytes: int):
        super().__init__(fixed(nbytes))


class EpollEventIn(ArgSpec):
    """Pointer to a struct epoll_event. Only the events mask is
    comparable across replicas: the 64-bit data field usually holds a
    pointer, which legitimately differs under ASLR/DCL (paper §3.9)."""

    kind = "epoll_event_in"


class IovecIn(ArgSpec):
    """iovec array describing gathered input data (writev)."""

    kind = "iovec_in"

    def __init__(self, count_arg: int):
        self.count_arg = count_arg


class IovecOut(ArgSpec):
    """iovec array describing scattered output data (readv)."""

    kind = "iovec_out"

    def __init__(self, count_arg: int):
        self.count_arg = count_arg


class SyscallSpec:
    """Everything the monitors need to know about one syscall."""

    __slots__ = ("name", "args", "blocking", "io_write", "notes", "_out_buffers")

    def __init__(
        self,
        name: str,
        args: Sequence[ArgSpec],
        blocking: bool = False,
        io_write: bool = False,
        notes: str = "",
    ):
        self.name = name
        self.args = tuple(args)
        #: May the call block waiting for external input?
        self.blocking = blocking
        #: Does the call emit externally observable output?
        self.io_write = io_write
        self.notes = notes
        self._out_buffers = None

    def out_buffers(self):
        """Indices of args that carry kernel-filled output data (a tuple,
        built on first use)."""
        out = self._out_buffers
        if out is None:
            out = self._out_buffers = tuple(
                i
                for i, a in enumerate(self.args)
                if a.kind in ("buf_out", "struct_out", "iovec_out")
            )
        return out

    def __repr__(self):
        return "SyscallSpec(%s)" % self.name


from repro.kernel.structs import (  # noqa: E402 - table below needs sizes
    SOCKADDR_SIZE,
    STAT_SIZE,
    TIMESPEC_SIZE,
    TIMEVAL_SIZE,
)

_ITIMERVAL_SIZE = 2 * TIMEVAL_SIZE
_ITIMERSPEC_SIZE = 2 * TIMESPEC_SIZE
_FDSET_SIZE = 128
_SYSINFO_SIZE = 64
_TMS_SIZE = 32
_RUSAGE_SIZE = 144
_UTSNAME_SIZE = 390

_SPECS = [
    # -- plain process-local getters (BASE_LEVEL unconditional) ------------
    SyscallSpec("getpid", []),
    SyscallSpec("gettid", []),
    SyscallSpec("getppid", []),
    SyscallSpec("getpgrp", []),
    SyscallSpec("getuid", []),
    SyscallSpec("geteuid", []),
    SyscallSpec("getgid", []),
    SyscallSpec("getegid", []),
    SyscallSpec("getpriority", [Reg(), Reg()]),
    SyscallSpec("capget", [Ptr(), Ptr()]),
    SyscallSpec("sched_yield", []),
    SyscallSpec("gettimeofday", [StructOut(TIMEVAL_SIZE), Ptr()]),
    SyscallSpec("clock_gettime", [Reg(), StructOut(TIMESPEC_SIZE)]),
    SyscallSpec("time", [BufOut(fixed(8), valid=fixed(8))]),
    SyscallSpec("times", [StructOut(_TMS_SIZE)]),
    SyscallSpec("getrusage", [Reg(), StructOut(_RUSAGE_SIZE)]),
    SyscallSpec("sysinfo", [StructOut(_SYSINFO_SIZE)]),
    SyscallSpec("uname", [StructOut(_UTSNAME_SIZE)]),
    SyscallSpec("getcwd", [BufOut(from_arg(1)), Reg()]),
    SyscallSpec("getitimer", [Reg(), StructOut(_ITIMERVAL_SIZE)]),
    SyscallSpec("nanosleep", [StructIn(TIMESPEC_SIZE), Ptr()], blocking=True),
    SyscallSpec("getrandom", [BufOut(from_arg(1)), Reg(), Reg()]),
    # -- NONSOCKET_RO_LEVEL ------------------------------------------------
    SyscallSpec("access", [CStr(), Reg()]),
    SyscallSpec("faccessat", [Fd(), CStr(), Reg(), Reg()]),
    SyscallSpec("lseek", [Fd(), Reg(), Reg()]),
    SyscallSpec("stat", [CStr(), StructOut(STAT_SIZE)]),
    SyscallSpec("lstat", [CStr(), StructOut(STAT_SIZE)]),
    SyscallSpec("fstat", [Fd(), StructOut(STAT_SIZE)]),
    SyscallSpec("newfstatat", [Fd(), CStr(), StructOut(STAT_SIZE), Reg()]),
    SyscallSpec("getdents", [Fd(), BufOut(from_arg(2)), Reg()]),
    SyscallSpec("readlink", [CStr(), BufOut(from_arg(2)), Reg()]),
    SyscallSpec("readlinkat", [Fd(), CStr(), BufOut(from_arg(3)), Reg()]),
    SyscallSpec("getxattr", [CStr(), CStr(), BufOut(from_arg(3)), Reg()]),
    SyscallSpec("lgetxattr", [CStr(), CStr(), BufOut(from_arg(3)), Reg()]),
    SyscallSpec("fgetxattr", [Fd(), CStr(), BufOut(from_arg(3)), Reg()]),
    SyscallSpec("alarm", [Reg()]),
    SyscallSpec(
        "setitimer", [Reg(), StructIn(_ITIMERVAL_SIZE), StructOut(_ITIMERVAL_SIZE)]
    ),
    SyscallSpec("timerfd_gettime", [Fd(), StructOut(_ITIMERSPEC_SIZE)]),
    SyscallSpec("madvise", [Ptr(), Reg(), Reg()]),
    SyscallSpec("fadvise64", [Fd(), Reg(), Reg(), Reg()]),
    SyscallSpec("read", [Fd(), BufOut(from_arg(2)), Reg()], blocking=True),
    SyscallSpec("readv", [Fd(), IovecOut(2), Reg()], blocking=True),
    SyscallSpec("pread64", [Fd(), BufOut(from_arg(2)), Reg(), Reg()], blocking=True),
    SyscallSpec("preadv", [Fd(), IovecOut(2), Reg(), Reg()], blocking=True),
    SyscallSpec(
        "select",
        [
            Reg(),
            BufOut(fixed(_FDSET_SIZE), valid=fixed(_FDSET_SIZE)),
            BufOut(fixed(_FDSET_SIZE), valid=fixed(_FDSET_SIZE)),
            BufOut(fixed(_FDSET_SIZE), valid=fixed(_FDSET_SIZE)),
            Ptr(),
        ],
        blocking=True,
    ),
    SyscallSpec("poll", [Ptr(), Reg(), Reg()], blocking=True,
                notes="pollfd array compared/replicated by the poll handler"),
    SyscallSpec("futex", [Ptr(), Reg(), Reg(), Ptr(), Ptr(), Reg()], blocking=True),
    SyscallSpec("ioctl", [Fd(), Reg(), Ptr()]),
    SyscallSpec("fcntl", [Fd(), Reg(), Reg()]),
    # -- NONSOCKET_RW_LEVEL --------------------------------------------------
    SyscallSpec("sync", [], io_write=True),
    SyscallSpec("syncfs", [Fd()], io_write=True),
    SyscallSpec("fsync", [Fd()], io_write=True),
    SyscallSpec("fdatasync", [Fd()], io_write=True),
    SyscallSpec(
        "timerfd_settime",
        [Fd(), Reg(), StructIn(_ITIMERSPEC_SIZE), StructOut(_ITIMERSPEC_SIZE)],
        io_write=True,
    ),
    SyscallSpec("write", [Fd(), BufIn(from_arg(2)), Reg()], blocking=True, io_write=True),
    SyscallSpec("writev", [Fd(), IovecIn(2), Reg()], blocking=True, io_write=True),
    SyscallSpec(
        "pwrite64", [Fd(), BufIn(from_arg(2)), Reg(), Reg()], blocking=True, io_write=True
    ),
    SyscallSpec("pwritev", [Fd(), IovecIn(2), Reg(), Reg()], blocking=True, io_write=True),
    # -- SOCKET levels --------------------------------------------------------
    SyscallSpec("epoll_wait", [Fd(), Ptr(), Reg(), Reg()], blocking=True,
                notes="epoll_event array handled by the epoll shadow map"),
    SyscallSpec(
        "recvfrom",
        [Fd(), BufOut(from_arg(2)), Reg(), Reg(), BufOut(fixed(SOCKADDR_SIZE), valid=fixed(SOCKADDR_SIZE)), Ptr()],
        blocking=True,
    ),
    SyscallSpec("recvmsg", [Fd(), Ptr(), Reg()], blocking=True),
    SyscallSpec("recvmmsg", [Fd(), Ptr(), Reg(), Reg(), Ptr()], blocking=True),
    SyscallSpec(
        "getsockname", [Fd(), BufOut(fixed(SOCKADDR_SIZE), valid=fixed(SOCKADDR_SIZE)), Ptr()]
    ),
    SyscallSpec(
        "getpeername", [Fd(), BufOut(fixed(SOCKADDR_SIZE), valid=fixed(SOCKADDR_SIZE)), Ptr()]
    ),
    SyscallSpec("getsockopt", [Fd(), Reg(), Reg(), BufOut(from_arg(4), valid=from_arg(4)), Reg()]),
    SyscallSpec(
        "sendto",
        [Fd(), BufIn(from_arg(2)), Reg(), Reg(), StructIn(SOCKADDR_SIZE), Reg()],
        blocking=True,
        io_write=True,
    ),
    SyscallSpec("sendmsg", [Fd(), Ptr(), Reg()], blocking=True, io_write=True),
    SyscallSpec("sendmmsg", [Fd(), Ptr(), Reg(), Reg()], blocking=True, io_write=True),
    SyscallSpec("sendfile", [Fd(), Fd(), Ptr(), Reg()], blocking=True, io_write=True),
    SyscallSpec("epoll_ctl", [Fd(), Reg(), Fd(), EpollEventIn()], io_write=True),
    SyscallSpec("setsockopt", [Fd(), Reg(), Reg(), BufIn(from_arg(4)), Reg()], io_write=True),
    SyscallSpec("shutdown", [Fd(), Reg()], io_write=True),
    # -- always-monitored resource management (paper §3.4) -------------------
    SyscallSpec("open", [CStr(), Reg(), Reg()]),
    SyscallSpec("openat", [Fd(), CStr(), Reg(), Reg()]),
    SyscallSpec("close", [Fd()]),
    SyscallSpec("dup", [Fd()]),
    SyscallSpec("dup2", [Fd(), Fd()]),
    SyscallSpec("pipe", [BufOut(fixed(8), valid=fixed(8))]),
    SyscallSpec("pipe2", [BufOut(fixed(8), valid=fixed(8)), Reg()]),
    SyscallSpec("socket", [Reg(), Reg(), Reg()]),
    SyscallSpec("bind", [Fd(), StructIn(SOCKADDR_SIZE), Reg()]),
    SyscallSpec("listen", [Fd(), Reg()]),
    SyscallSpec(
        "accept",
        [Fd(), BufOut(fixed(SOCKADDR_SIZE), valid=fixed(SOCKADDR_SIZE)), Ptr()],
        blocking=True,
    ),
    SyscallSpec(
        "accept4",
        [Fd(), BufOut(fixed(SOCKADDR_SIZE), valid=fixed(SOCKADDR_SIZE)), Ptr(), Reg()],
        blocking=True,
    ),
    SyscallSpec("connect", [Fd(), StructIn(SOCKADDR_SIZE), Reg()], blocking=True),
    SyscallSpec("epoll_create", [Reg()]),
    SyscallSpec("epoll_create1", [Reg()]),
    SyscallSpec("timerfd_create", [Reg(), Reg()]),
    SyscallSpec("mmap", [Ptr(), Reg(), Reg(), Reg(), Fd(), Reg()]),
    SyscallSpec("munmap", [Ptr(), Reg()]),
    SyscallSpec("mprotect", [Ptr(), Reg(), Reg()]),
    SyscallSpec("mremap", [Ptr(), Reg(), Reg(), Reg(), Ptr()]),
    SyscallSpec("brk", [Ptr()]),
    SyscallSpec("clone", [Reg(), Callable_(), Ptr()]),
    SyscallSpec("exit", [Reg()]),
    SyscallSpec("exit_group", [Reg()]),
    SyscallSpec("kill", [Reg(), Reg()]),
    SyscallSpec("tgkill", [Reg(), Reg(), Reg()]),
    SyscallSpec("rt_sigaction", [Reg(), Callable_(), Ptr()]),
    SyscallSpec("rt_sigprocmask", [Reg(), Reg(), Ptr()]),
    SyscallSpec("rt_sigpending", [Ptr()]),
    SyscallSpec("sigaltstack", [Ptr(), Ptr()]),
    SyscallSpec("pause", [], blocking=True),
    SyscallSpec("set_tid_address", [Ptr()]),
    SyscallSpec("prctl", [Reg(), Reg(), Reg(), Reg(), Reg()]),
    SyscallSpec("unlink", [CStr()], io_write=True),
    SyscallSpec("mkdir", [CStr(), Reg()], io_write=True),
    SyscallSpec("rename", [CStr(), CStr()], io_write=True),
    SyscallSpec("ftruncate", [Fd(), Reg()], io_write=True),
    SyscallSpec("shmget", [Reg(), Reg(), Reg()]),
    SyscallSpec("shmat", [Reg(), Ptr(), Reg()]),
    SyscallSpec("shmdt", [Ptr()]),
    SyscallSpec("shmctl", [Reg(), Reg(), Ptr()]),
    SyscallSpec("ipmon_register", [Reg(), Ptr(), Callable_()]),
]

SYSCALL_SPECS: Dict[str, SyscallSpec] = {spec.name: spec for spec in _SPECS}


def spec_for(name: str) -> Optional[SyscallSpec]:
    return SYSCALL_SPECS.get(name)
