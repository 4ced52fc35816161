"""Per-syscall replication handlers (paper §3.3, Listing 1).

This is the only module that knows how a call's out-buffers are read
from the master, encoded, and written into a replica. IP-MON ships the
encoded ``(result, out-buffers)`` record through the RB, GHUMVEE copies
it over ptrace for monitored master calls, the distributed mirror ships
it between nodes, and the VARAN baseline through its event ring; all
four go through one handler per syscall (:func:`handler_for`) and one
view type (:class:`ReplicaView`, or IP-MON's own ``IpmonReplica``).

Every syscall gets a handler with the paper's four phases:

* ``maybe_checked`` — should this particular invocation be forced back
  to GHUMVEE under the active conditional policy? (consults the file
  map);
* ``calcsize`` — upper bound on the RB space the record may need;
* ``precall``-equivalents — argument serialization (shared with the
  comparator) and the call disposition (MASTERCALL vs. execute-in-all);
* ``postcall`` — collecting the master's results into the RB and
  applying them in the slaves;

plus ``observe``, the replica-local bookkeeping every replica does
before the call (epoll_ctl records its own ``data`` tags).

Most handlers are generated from the ABI specs; epoll, poll, select,
ioctl and futex need bespoke logic.
"""

from __future__ import annotations

import struct
from typing import Dict

from repro.core.comparator import resolve_length
from repro.core.policies import (
    RelaxationPolicy,
    SAFE_FCNTL_CMDS,
    SAFE_IOCTL_CMDS,
)
from repro.kernel import constants as C
from repro.kernel.memory import MemoryFault
from repro.kernel.specs import SYSCALL_SPECS, spec_for
from repro.kernel.structs import (
    EPOLL_EVENT_SIZE,
    POLLFD_SIZE,
    pack_epoll_event,
    read_iovecs,
    unpack_epoll_event,
    unpack_pollfd,
)

#: Call dispositions.
MASTERCALL = "master"
ALLCALL = "all"

#: Calls every replica must execute itself (process-local effects that
#: cannot be replicated from the master: waking *this replica's* threads,
#: advising *this replica's* pages).
ALLCALL_NAMES = frozenset({"futex", "madvise", "fadvise64", "sched_yield"})

_READ_LIKE = frozenset({"read", "readv", "pread64", "preadv"})
_WRITE_LIKE = frozenset({"write", "writev", "pwrite64", "pwritev"})


class ReplicaView:
    """One replica as a handler sees it: its address space, its index
    (for per-replica epoll tags), and the policy and fd-kind source the
    ``maybe_checked`` decision reads. IP-MON's ``IpmonReplica`` is the
    other view type."""

    __slots__ = ("space", "epoll_map", "replica_index", "policy", "filemap")

    def __init__(self, space, epoll_map, replica_index: int, policy=None, filemap=None):
        self.space = space
        self.epoll_map = epoll_map
        self.replica_index = replica_index
        self.policy = policy
        self.filemap = filemap


class IpmonHandler:
    """Generic spec-driven handler; subclasses specialize."""

    def __init__(self, name: str):
        self.name = name
        self.spec = spec_for(name)

    # ------------------------------------------------------------------
    def maybe_checked(self, view, req) -> bool:
        """True = this invocation must be monitored by GHUMVEE."""
        policy: RelaxationPolicy = view.policy
        if policy.allows_unconditionally(self.name):
            return False
        if not policy.is_conditional(self.name):
            return True
        fd = req.arg(0)
        kind = view.filemap.fd_kind(fd)
        if self.name == "fcntl":
            return req.arg(1) not in SAFE_FCNTL_CMDS or kind is None
        if self.name == "ioctl":
            return req.arg(1) not in SAFE_IOCTL_CMDS or kind is None
        return not policy.allows_fd_kind(self.name, kind, view.filemap.is_nonblocking(fd))

    # ------------------------------------------------------------------
    def disposition(self) -> str:
        return ALLCALL if self.name in ALLCALL_NAMES else MASTERCALL

    # ------------------------------------------------------------------
    def may_block(self, view, req) -> bool:
        if self.spec is None or not self.spec.blocking:
            return False
        if self.name == "nanosleep":
            return True
        if self.name == "futex":
            return (req.arg(1) & ~C.FUTEX_PRIVATE_FLAG) == C.FUTEX_WAIT
        fd = req.arg(0)
        return view.filemap.may_block(self.name, fd)

    # ------------------------------------------------------------------
    def calcsize(self, view, req) -> int:
        """Maximum result payload (bytes) this call may write to the RB."""
        if self.spec is None:
            return 0
        total = 0
        for index in self.spec.out_buffers():
            arg_spec = self.spec.args[index]
            if index >= len(req.args) or not req.args[index]:
                total += 4
                continue
            if arg_spec.kind == "iovec_out":
                try:
                    count = int(req.args[arg_spec.count_arg])
                    iovecs = read_iovecs(view.space, int(req.args[index]), count)
                    total += 4 + sum(length for _b, length in iovecs)
                except MemoryFault:
                    total += 4
            else:
                total += 4 + resolve_length(arg_spec.length, req.args)
        return total

    # ------------------------------------------------------------------
    # Every replica, before the call: replica-local bookkeeping.
    def observe(self, view, req) -> None:
        return

    # ------------------------------------------------------------------
    # Master: read the out-buffers the kernel filled; build the payload.
    def collect_results(self, view, req, result: int) -> bytes:
        if self.spec is None or result < 0:
            return b""
        chunks = []
        for index in self.spec.out_buffers():
            arg_spec = self.spec.args[index]
            addr = int(req.args[index]) if index < len(req.args) else 0
            if not addr:
                chunks.append(struct.pack("<I", 0))
                continue
            try:
                if arg_spec.kind == "iovec_out":
                    # The first ``result`` bytes, gathered in iovec order.
                    count = int(req.args[arg_spec.count_arg])
                    out = bytearray()
                    for base, length in read_iovecs(view.space, addr, count):
                        if len(out) >= result:
                            break
                        take = min(length, result - len(out))
                        out += view.space.read(base, take, check_prot=False)
                    data = bytes(out)
                else:
                    valid = self._valid_length(arg_spec, req.args, result)
                    data = view.space.read(addr, valid, check_prot=False) if valid else b""
            except MemoryFault:
                data = b""
            chunks.append(struct.pack("<I", len(data)) + data)
        return b"".join(chunks)

    # Slave: scatter the payload into this replica's own buffers; returns
    # the bytes written (GHUMVEE bills its ptrace copy from it).
    def apply_results(self, view, req, result: int, payload: bytes) -> int:
        if self.spec is None or result < 0 or not payload:
            return 0
        written = 0
        cursor = 0
        for index in self.spec.out_buffers():
            if cursor + 4 > len(payload):
                break
            (length,) = struct.unpack_from("<I", payload, cursor)
            cursor += 4
            data = payload[cursor : cursor + length]
            cursor += length
            addr = int(req.args[index]) if index < len(req.args) else 0
            if not addr or not data:
                continue
            arg_spec = self.spec.args[index]
            try:
                if arg_spec.kind == "iovec_out":
                    count = int(req.args[arg_spec.count_arg])
                    iovecs = read_iovecs(view.space, addr, count)
                    offset = 0
                    for base, iov_len in iovecs:
                        if offset >= len(data):
                            break
                        chunk = data[offset : offset + iov_len]
                        view.space.write(base, chunk, check_prot=False)
                        offset += len(chunk)
                        written += len(chunk)
                else:
                    view.space.write(addr, data, check_prot=False)
                    written += len(data)
            except MemoryFault:
                # The slave's buffer is bad where the master's was fine:
                # genuine divergence; let the consistency check machinery
                # handle it (the rest of the result copy is dropped here).
                return written
        return written

    # Master, read family (one out-buffer): let the monitor filter what
    # the master read before any replica sees it.
    def rewrite_output(self, view, req, result: int, payload: bytes, transform):
        """Pass the master's bytes through ``transform``. When that
        changes them, the master's own buffer gets the new bytes
        zero-padded to the old length and the result becomes the new
        length. Returns ``(payload, result)``."""
        data = payload[4:]
        new = transform(data)
        if new == data:
            return payload, result
        padded = new + bytes(len(data) - len(new))
        self.apply_results(view, req, result, struct.pack("<I", len(padded)) + padded)
        return struct.pack("<I", len(new)) + new, len(new)

    def _valid_length(self, arg_spec, args, result: int) -> int:
        maxlen = resolve_length(arg_spec.length, args)
        valid_src = getattr(arg_spec, "valid", None)
        if valid_src is None:
            return maxlen
        kind, value = valid_src
        if kind == "ret":
            return max(0, min(result, maxlen))
        if kind == "fixed":
            return min(value, maxlen) if maxlen else value
        if kind == "arg":
            return min(maxlen, max(0, int(args[value]))) if value < len(args) else maxlen
        return maxlen


# ---------------------------------------------------------------------------
# Bespoke handlers
# ---------------------------------------------------------------------------
class PollHandler(IpmonHandler):
    """poll(2): checks every watched descriptor against the policy and
    replicates the whole pollfd array."""

    def maybe_checked(self, view, req) -> bool:
        fds_addr, nfds = req.arg(0), req.arg(1)
        if not fds_addr or nfds <= 0:
            return True
        try:
            raw = view.space.read(fds_addr, nfds * POLLFD_SIZE)
        except MemoryFault:
            return True
        for index in range(nfds):
            fd, _events, _rev = unpack_pollfd(
                raw[index * POLLFD_SIZE : (index + 1) * POLLFD_SIZE]
            )
            if fd < 0:
                continue
            kind = view.filemap.fd_kind(fd)
            if not view.policy.allows_fd_kind("poll", kind, False):
                return True
        return False

    def may_block(self, view, req) -> bool:
        return req.arg(2) != 0

    def calcsize(self, view, req) -> int:
        return 4 + max(0, req.arg(1)) * POLLFD_SIZE

    def collect_results(self, view, req, result: int) -> bytes:
        if result < 0:
            return b""
        nfds = req.arg(1)
        try:
            raw = view.space.read(req.arg(0), nfds * POLLFD_SIZE, check_prot=False)
        except MemoryFault:
            raw = b""
        return struct.pack("<I", len(raw)) + raw

    def apply_results(self, view, req, result: int, payload: bytes) -> int:
        if result < 0 or len(payload) < 4:
            return 0
        (length,) = struct.unpack_from("<I", payload, 0)
        raw = payload[4 : 4 + length]
        # The master's whole pollfd entries (fd, events and revents) go
        # into the slave's array: the arguments were compared equal, so
        # only revents can differ from what the slave already holds.
        nfds = max(0, min(req.arg(1), len(raw) // POLLFD_SIZE))
        for index in range(nfds):
            offset = index * POLLFD_SIZE
            try:
                view.space.write(
                    req.arg(0) + offset,
                    raw[offset : offset + POLLFD_SIZE],
                    check_prot=False,
                )
            except MemoryFault:
                return offset
        return nfds * POLLFD_SIZE


class SelectHandler(IpmonHandler):
    """select(2): policy check scans the read/write fd_set bitmaps."""

    FDSET_BYTES = 128

    def maybe_checked(self, view, req) -> bool:
        nfds = req.arg(0)
        for set_index in (1, 2, 3):
            addr = req.arg(set_index)
            if not addr:
                continue
            try:
                bitmap = view.space.read(addr, self.FDSET_BYTES)
            except MemoryFault:
                return True
            for fd in range(min(nfds, self.FDSET_BYTES * 8)):
                if bitmap[fd // 8] & (1 << (fd % 8)):
                    kind = view.filemap.fd_kind(fd)
                    if not view.policy.allows_fd_kind("select", kind, False):
                        return True
        return False

    def may_block(self, view, req) -> bool:
        return True  # timeout handling is data-dependent; be conservative


class FutexHandler(IpmonHandler):
    """futex(2): process-local; every replica executes its own call."""

    def maybe_checked(self, view, req) -> bool:
        if view.policy.level < 2:  # needs NONSOCKET_RO
            return True
        op = req.arg(1) & ~C.FUTEX_PRIVATE_FLAG
        return op not in (C.FUTEX_WAIT, C.FUTEX_WAKE)

    def calcsize(self, view, req) -> int:
        return 0

    def collect_results(self, view, req, result: int) -> bytes:
        return b""

    def apply_results(self, view, req, result: int, payload: bytes) -> int:
        return 0


class IoctlHandler(IpmonHandler):
    def calcsize(self, view, req) -> int:
        return 8

    def collect_results(self, view, req, result: int) -> bytes:
        if result < 0 or req.arg(1) != 0x541B or not req.arg(2):  # FIONREAD
            return b""
        try:
            data = view.space.read(req.arg(2), 4, check_prot=False)
        except MemoryFault:
            return b""
        return struct.pack("<I", 4) + data

    def apply_results(self, view, req, result: int, payload: bytes) -> int:
        if result < 0 or len(payload) < 8 or not req.arg(2):
            return 0
        try:
            view.space.write(req.arg(2), payload[4:8], check_prot=False)
        except MemoryFault:
            return 0
        return 4


class EpollWaitHandler(IpmonHandler):
    """epoll_wait(2) with the shadow-map translation (paper §3.9)."""

    def maybe_checked(self, view, req) -> bool:
        return view.policy.level < 4  # SOCKET_RO

    def may_block(self, view, req) -> bool:
        return req.arg(3) != 0

    def calcsize(self, view, req) -> int:
        return 4 + max(0, req.arg(2)) * (EPOLL_EVENT_SIZE + 1)

    def collect_results(self, view, req, result: int) -> bytes:
        if result <= 0:
            return b""
        epfd = req.arg(0)
        try:
            raw = view.space.read(
                req.arg(1), result * EPOLL_EVENT_SIZE, check_prot=False
            )
        except MemoryFault:
            return b""
        events = [
            unpack_epoll_event(raw[i * EPOLL_EVENT_SIZE : (i + 1) * EPOLL_EVENT_SIZE])
            for i in range(result)
        ]
        neutral = view.epoll_map.neutralize_events(epfd, events)
        # Localize the master's *own* buffer too: after a promotion the
        # kernel still echoes the dead master's data values, which this
        # replica's program cannot map. Pre-promotion it's an identity
        # rewrite.
        localized = view.epoll_map.localize_events(epfd, neutral, view.replica_index)
        for index, (revents, data) in enumerate(localized):
            try:
                view.space.write(
                    req.arg(1) + index * EPOLL_EVENT_SIZE,
                    pack_epoll_event(revents, data),
                    check_prot=False,
                )
            except MemoryFault:
                break
        out = bytearray(struct.pack("<I", len(neutral)))
        for revents, value, translated in neutral:
            out += struct.pack("<IQB", revents, value, translated)
        return bytes(out)

    def apply_results(self, view, req, result: int, payload: bytes) -> int:
        if result <= 0 or len(payload) < 4:
            return 0
        (count,) = struct.unpack_from("<I", payload, 0)
        neutral = []
        cursor = 4
        for _ in range(count):
            revents, value, translated = struct.unpack_from("<IQB", payload, cursor)
            cursor += 13
            neutral.append((revents, value, translated))
        localized = view.epoll_map.localize_events(
            req.arg(0), neutral, view.replica_index
        )
        for index, (revents, data) in enumerate(localized):
            try:
                view.space.write(
                    req.arg(1) + index * EPOLL_EVENT_SIZE,
                    pack_epoll_event(revents, data),
                    check_prot=False,
                )
            except MemoryFault:
                return index * EPOLL_EVENT_SIZE
        return len(localized) * EPOLL_EVENT_SIZE


class EpollCtlHandler(IpmonHandler):
    """epoll_ctl(2): master executes; *every* replica records its own
    ``data`` value into the shadow map."""

    def maybe_checked(self, view, req) -> bool:
        return view.policy.level < 5  # SOCKET_RW

    def observe(self, view, req) -> None:
        op, fd = req.arg(1), req.arg(2)
        epfd = req.arg(0)
        if op == C.EPOLL_CTL_DEL:
            view.epoll_map.record_ctl_del(epfd, fd, view.replica_index)
            return
        addr = req.arg(3)
        if not addr:
            return
        try:
            raw = view.space.read(addr, EPOLL_EVENT_SIZE)
        except MemoryFault:
            return
        _events, data = unpack_epoll_event(raw)
        view.epoll_map.record_ctl_add(epfd, fd, view.replica_index, data)


_CUSTOM = {
    "poll": PollHandler,
    "select": SelectHandler,
    "futex": FutexHandler,
    "ioctl": IoctlHandler,
    "epoll_wait": EpollWaitHandler,
    "epoll_ctl": EpollCtlHandler,
}


#: One handler per spec'd syscall. Handlers hold no per-run state, so
#: every monitor shares these instances.
_HANDLERS: Dict[str, IpmonHandler] = {
    name: _CUSTOM.get(name, IpmonHandler)(name) for name in SYSCALL_SPECS
}


def handler_for(name: str) -> IpmonHandler:
    handler = _HANDLERS.get(name)
    if handler is None:
        return _CUSTOM.get(name, IpmonHandler)(name)
    return handler


def build_handler_table(names) -> Dict[str, IpmonHandler]:
    return {name: handler_for(name) for name in names}
