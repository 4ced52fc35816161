"""Selective replication policies (dMVX §4's central idea).

In a distributed MVEE, every syscall result the leader ships to its
followers costs cross-node messages. Naive ("full") replication ships
everything, which is what makes distributed MVEEs slow. dMVX observes
that followers can *reproduce* most results locally — file reads hit an
identical local filesystem image, process-info calls are deterministic,
sleeps need no data — and only results that depend on state a follower
does not have (external socket I/O, the leader's clock) must cross the
network.

:class:`SelectiveReplication` classifies each unmonitored call as

* ``LOCAL`` — every node executes it against its own kernel; followers
  ship an async digest of the arguments for lazy cross-checking;
* ``REPLICATED`` — only the leader executes it (leader-only execution
  of externally visible I/O); followers adopt the result from the
  remote replication buffer mirror.

Monitored (rendezvous) calls never reach this classifier — they take
the lockstep path regardless of policy.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from repro.dist import wire

LOCAL = "local"
REPLICATED = "replicated"

#: Wire traffic classes (per-class byte/frame accounting on the
#: transport). Replicated results additionally suffix their coarse
#: syscall class: ``result_<syscall_class()>``.
CLS_DIGEST = "digest"
CLS_RENDEZVOUS = "rendezvous"
CLS_CONTROL = "control"
CLS_HANDOFF = "handoff"
CLS_LIFECYCLE = "lifecycle"
CLS_RESULT_PREFIX = "result_"

FRAME_CLASSES = (CLS_DIGEST, CLS_RENDEZVOUS, CLS_CONTROL, CLS_HANDOFF,
                 CLS_LIFECYCLE)


def frame_class(frame_type: int) -> str:
    """Default traffic class for a wire frame type (replicated results
    are classified per-syscall by the sender instead)."""
    if frame_type in (wire.T_CALL_DIGEST,):
        return CLS_DIGEST
    if frame_type in (wire.T_RENDEZVOUS_REQ, wire.T_RENDEZVOUS_OK,
                      wire.T_ROUND_RESUBMIT):
        return CLS_RENDEZVOUS
    if frame_type == wire.T_SHARD_HANDOFF:
        return CLS_HANDOFF
    if frame_type in (wire.T_LIFECYCLE_GOSSIP, wire.T_LIFECYCLE_STATE):
        return CLS_LIFECYCLE
    return CLS_CONTROL

#: Calls whose effect is inherently per-process/per-node: replicating a
#: result would be meaningless (a futex wake on node A does not wake a
#: thread on node B). Always LOCAL, even under full replication.
_PROCESS_LOCAL = frozenset(
    {
        "futex",
        "madvise",
        "fadvise64",
        "sched_yield",
        "nanosleep",
        "epoll_wait",
        "epoll_ctl",
        "alarm",
        "setitimer",
        "getitimer",
        "timerfd_settime",
        "timerfd_gettime",
    }
)

#: Wall-clock queries: the one non-I/O class a follower cannot reproduce
#: (its clock skews from the leader's).
_TIME_CALLS = frozenset({"clock_gettime", "gettimeofday", "time"})

#: Socket-data calls that are replicated by name alone (no fd needed to
#: tell they touch the network).
_SOCKET_DATA = frozenset(
    {
        "recvfrom",
        "recvmsg",
        "recvmmsg",
        "sendto",
        "sendmsg",
        "sendmmsg",
        "sendfile",
    }
)

#: fd-polymorphic data calls: socket-data iff the descriptor is one.
_FD_DATA = frozenset(
    {"read", "readv", "pread64", "preadv", "write", "writev", "pwrite64", "pwritev"}
)

#: External-service mode (repro.fleet): calls whose results only the
#: leader can produce, because the clients generating the events live
#: outside the cluster and their SYNs/segments reach the leader's node
#: only. ``accept``/``accept4`` stay on the rendezvous lane for lockstep
#: argument agreement but execute leader-only (followers adopt the fd);
#: readiness calls switch from process-local to replicated so followers
#: observe the leader's event stream instead of their forever-idle
#: listening sockets.
EXTERNAL_LEADER_CALLS = frozenset({"accept", "accept4"})

_EXTERNAL_READINESS = frozenset({"epoll_wait", "epoll_ctl", "poll", "select"})

_PROC_INFO = frozenset(
    {
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
        "sysinfo",
        "uname",
    }
)

_SOCKETISH_KINDS = ("sock", "listen")


@lru_cache(maxsize=None)
def syscall_class(name: str, fd_kind: Optional[str] = None) -> str:
    """Coarse syscall class used to break down wire traffic in stats:
    ``time`` / ``sock`` / ``file`` / ``proc`` / ``mgmt``."""
    if name in _TIME_CALLS:
        return "time"
    if name in _SOCKET_DATA or (name in _FD_DATA and fd_kind in _SOCKETISH_KINDS):
        return "sock"
    if name in _FD_DATA or name in (
        "lseek", "stat", "lstat", "fstat", "newfstatat", "getdents",
        "readlink", "readlinkat", "access", "faccessat", "sync", "syncfs",
        "fsync", "fdatasync", "select", "poll", "ioctl", "fcntl",
    ):
        return "file"
    if name in _PROC_INFO or name in _PROCESS_LOCAL:
        return "proc"
    return "mgmt"


class SelectiveReplication:
    """A replication policy: which unmonitored calls cross the network.

    Args:
        name: label used in benchmark tables.
        replicate_time: ship the leader's clock reads to followers
            (keeps time-dependent control flow identical across nodes).
        full: replicate *every* reproducible call too — the naive
            baseline dMVX measures against.
        external: the service's clients live outside the cluster (only
            the leader's node receives their traffic), so readiness
            calls become replicated — see :data:`EXTERNAL_LEADER_CALLS`.
    """

    def __init__(self, name: str = "selective", replicate_time: bool = True,
                 full: bool = False, external: bool = False):
        self.name = name
        self.replicate_time = replicate_time
        self.full = full
        self.external = external
        # classify() runs once per unmonitored syscall on every node;
        # the (name, fd_kind) domain is tiny, so memoize it.
        self._memo = {}

    def classify(self, name: str, fd_kind: Optional[str] = None) -> str:
        key = (name, fd_kind)
        lane = self._memo.get(key)
        if lane is None:
            lane = self._memo[key] = self._classify(name, fd_kind)
        return lane

    def _classify(self, name: str, fd_kind: Optional[str]) -> str:
        if self.external and name in _EXTERNAL_READINESS:
            return REPLICATED
        if name in _PROCESS_LOCAL:
            return LOCAL
        if self.full:
            return REPLICATED
        if name in _SOCKET_DATA:
            return REPLICATED
        if name in _FD_DATA and fd_kind in _SOCKETISH_KINDS:
            return REPLICATED
        if self.replicate_time and name in _TIME_CALLS:
            return REPLICATED
        return LOCAL

    def __repr__(self):
        return "SelectiveReplication(%r, full=%r)" % (self.name, self.full)


def selective_replication() -> SelectiveReplication:
    """dMVX-style: replicate only what followers cannot reproduce."""
    return SelectiveReplication("selective")


def full_replication() -> SelectiveReplication:
    """Naive baseline: replicate every non-process-local result."""
    return SelectiveReplication("full", full=True)


def fleet_replication(full: bool = False) -> SelectiveReplication:
    """External-service policies for `repro.fleet` server fleets."""
    if full:
        return SelectiveReplication("full-fleet", full=True, external=True)
    return SelectiveReplication("selective-fleet", external=True)
