"""Monitoring relaxation policies (paper §3.4, Table 1).

A *spatial exemption* policy picks a level; every system call at that
level or below may execute as an unmonitored call through IP-MON.
Unconditionally-allowed calls never need monitoring at their level;
conditionally-allowed calls are exempted only when their file-descriptor
arguments satisfy the level (the ``MAYBE_CHECKED`` handlers consult the
IP-MON file map for this).

System calls that allocate or manage process resources — descriptors,
memory mappings, threads/processes, signal handling — are *always*
monitored by GHUMVEE regardless of level.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, FrozenSet, Optional

from repro.errors import PolicyError


class Level(IntEnum):
    """Spatial exemption levels, lowest to highest relaxation."""

    NO_IPMON = 0  # IP-MON disabled: every call is monitored (GHUMVEE alone)
    BASE = 1
    NONSOCKET_RO = 2
    NONSOCKET_RW = 3
    SOCKET_RO = 4
    SOCKET_RW = 5


#: Table 1, "unconditionally allowed calls" column.
UNCONDITIONAL: Dict[Level, FrozenSet[str]] = {
    Level.BASE: frozenset(
        {
            "gettimeofday",
            "clock_gettime",
            "time",
            "getpid",
            "gettid",
            "getpgrp",
            "getppid",
            "getgid",
            "getegid",
            "getuid",
            "geteuid",
            "getcwd",
            "getpriority",
            "getrusage",
            "times",
            "capget",
            "getitimer",
            "sysinfo",
            "uname",
            "sched_yield",
            "nanosleep",
        }
    ),
    Level.NONSOCKET_RO: frozenset(
        {
            "access",
            "faccessat",
            "lseek",
            "stat",
            "lstat",
            "fstat",
            "newfstatat",
            "getdents",
            "readlink",
            "readlinkat",
            "getxattr",
            "lgetxattr",
            "fgetxattr",
            "alarm",
            "setitimer",
            "timerfd_gettime",
            "madvise",
            "fadvise64",
        }
    ),
    Level.NONSOCKET_RW: frozenset(
        {"sync", "syncfs", "fsync", "fdatasync", "timerfd_settime"}
    ),
    Level.SOCKET_RO: frozenset(
        {
            "epoll_wait",
            "recvfrom",
            "recvmsg",
            "recvmmsg",
            "getsockname",
            "getpeername",
            "getsockopt",
        }
    ),
    Level.SOCKET_RW: frozenset(
        {
            "sendto",
            "sendmsg",
            "sendmmsg",
            "sendfile",
            "epoll_ctl",
            "setsockopt",
            "shutdown",
        }
    ),
}

#: Table 1, "conditionally allowed calls" column: exempted only when the
#: descriptor argument's type satisfies the level.
CONDITIONAL: Dict[Level, FrozenSet[str]] = {
    Level.NONSOCKET_RO: frozenset(
        {"read", "readv", "pread64", "preadv", "select", "poll", "futex", "ioctl", "fcntl"}
    ),
    Level.NONSOCKET_RW: frozenset({"write", "writev", "pwrite64", "pwritev"}),
    Level.SOCKET_RO: frozenset({"read", "readv", "pread64", "preadv", "select", "poll"}),
    Level.SOCKET_RW: frozenset({"write", "writev", "pwrite64", "pwritev"}),
}

#: Read-type conditional calls whose descriptor(s) decide the level.
_READ_FAMILY = frozenset({"read", "readv", "pread64", "preadv", "select", "poll"})
_WRITE_FAMILY = frozenset({"write", "writev", "pwrite64", "pwritev"})

#: fcntl subcommands / ioctls IP-MON may answer without GHUMVEE: pure
#: queries. Mutating subcommands change state GHUMVEE tracks (the file
#: map) and are forced back to the monitor.
SAFE_FCNTL_CMDS = frozenset({1, 3})  # F_GETFD, F_GETFL
SAFE_IOCTL_CMDS = frozenset({0x541B})  # FIONREAD


class RelaxationPolicy:
    """A configured spatial exemption policy.

    Args:
        level: the chosen :class:`Level`.
        temporal: optional :class:`~repro.core.temporal.TemporalPolicy`
            layered on top (paper §3.4's second option).
    """

    def __init__(self, level: Level = Level.NONSOCKET_RW, temporal=None):
        if not isinstance(level, Level):
            try:
                level = Level(level)
            except ValueError:
                raise PolicyError("unknown relaxation level: %r" % (level,))
        self.level = level
        self.temporal = temporal
        levels = [lvl for lvl in Level if lvl != Level.NO_IPMON and lvl <= level]
        self._unconditional = frozenset().union(
            *(UNCONDITIONAL.get(lvl, frozenset()) for lvl in levels)
        )
        self._conditional = frozenset().union(
            *(CONDITIONAL.get(lvl, frozenset()) for lvl in levels)
        )

    # ------------------------------------------------------------------
    def unmonitored_set(self) -> FrozenSet[str]:
        """Every syscall name that *may* run unmonitored at this level
        (the set IP-MON registers with IK-B, paper §3.5)."""
        return self._unconditional | self._conditional

    def allows_unconditionally(self, name: str) -> bool:
        return name in self._unconditional

    def is_conditional(self, name: str) -> bool:
        return name in self._conditional

    # ------------------------------------------------------------------
    def allows_fd_kind(self, name: str, fd_kind: Optional[str], nonblocking: bool) -> bool:
        """The MAYBE_CHECKED decision for one conditional call given the
        descriptor's type from the file map.

        ``fd_kind`` is the file-map classification (``reg``, ``pipe``,
        ``sock``, ``listen``, ``epoll``, ``timerfd``, ``special``,
        ``chr``, ``dir``) or None when the fd is unknown.
        """
        if fd_kind is None or fd_kind == "special":
            return False  # unknown/special descriptors always monitored
        is_socketish = fd_kind in ("sock", "listen")
        if name in _READ_FAMILY:
            needed = Level.SOCKET_RO if is_socketish else Level.NONSOCKET_RO
            return self.level >= needed
        if name in _WRITE_FAMILY:
            needed = Level.SOCKET_RW if is_socketish else Level.NONSOCKET_RW
            return self.level >= needed
        if name == "futex":
            return self.level >= Level.NONSOCKET_RO
        if name == "fcntl":
            return self.level >= Level.NONSOCKET_RO
        if name == "ioctl":
            return self.level >= Level.NONSOCKET_RO
        return False

    def minimum_level_for(self, name: str, fd_kind: Optional[str] = None) -> Optional[Level]:
        """The lowest level at which ``name`` may run unmonitored, or
        None when it is always monitored (resource management)."""
        for lvl in sorted(Level):
            if lvl == Level.NO_IPMON:
                continue
            if name in UNCONDITIONAL.get(lvl, frozenset()):
                return lvl
            if name in CONDITIONAL.get(lvl, frozenset()):
                if fd_kind is None:
                    return lvl
                probe = RelaxationPolicy(lvl)
                if probe.allows_fd_kind(name, fd_kind, False):
                    return lvl
        return None

    def __repr__(self):
        return "RelaxationPolicy(%s)" % self.level.name


@dataclass
class DegradationPolicy:
    """Graceful-degradation policy: which replica faults the MVEE may
    absorb by quarantining the faulted replica and continuing with the
    surviving N−1 set, instead of fail-stopping.

    Classification is deliberately conservative: only *crashes* (a
    replica died) and — configurably — *stalls* (a replica silently
    stopped participating) are benign. Any behavioural mismatch (a
    GHUMVEE lockstep comparison, an IP-MON slave argument check, an
    allexec success disagreement) remains a security divergence and
    fail-stops regardless of this policy, which is what keeps the
    paper's §4 security argument intact in degraded mode.
    """

    #: Fail-stop once fewer than this many replicas would survive.
    min_quorum: int = 2
    #: Replica 0's death promotes the lowest surviving index to master
    #: (RB lanes, fd ownership, rr_agent recording are re-pointed).
    promote_master: bool = True
    #: Treat a lockstep/RB stall as a benign fault (quarantine the
    #: laggard) rather than as divergence.
    stall_is_benign: bool = True
    #: Allow IK-B to re-issue a lost authorization token once for an
    #: in-flight IP-MON call (a benign fault under DMON's fault model;
    #: slightly weakens §3.1's single-issue property, see DESIGN.md).
    reissue_lost_tokens: bool = True

    def __post_init__(self):
        if self.min_quorum < 1:
            raise PolicyError("min_quorum must be at least 1")

    def classify_kind(self, kind: str) -> str:
        """Map a DivergenceReport kind to "benign" or "security"."""
        if kind == "crash":
            return "benign"
        if kind == "stall":
            return "benign" if self.stall_is_benign else "security"
        if kind == "link":
            # A broken monitor link says nothing about the replica's
            # integrity: route around it, don't fail-stop.
            return "benign"
        return "security"

    def classify(self, report) -> str:
        return self.classify_kind(report.kind)


def always_monitored(name: str) -> bool:
    """Is this call in the always-monitored class (resource/threads/
    signals/memory/fd management, paper §3.4)?"""
    for table in (UNCONDITIONAL, CONDITIONAL):
        for names in table.values():
            if name in names:
                return False
    return True
