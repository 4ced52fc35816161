"""select / poll / epoll system calls."""

from __future__ import annotations

import struct

from repro.kernel import constants as C
from repro.kernel import errno_codes as E
from repro.kernel.calls._helpers import get_entry, ms_to_ns
from repro.kernel.epoll_obj import EpollInstance
from repro.kernel.structs import (
    EPOLL_EVENT_SIZE,
    POLLFD_SIZE,
    TIMEVAL_SIZE,
    pack_epoll_event,
    pack_pollfd,
    unpack_epoll_event,
    unpack_pollfd,
)
from repro.kernel.syscalls import syscall
from repro.kernel.vfs import OpenFileDescription
from repro.kernel.waitq import wait_interruptible

FDSET_BYTES = 128


@syscall("poll")
def sys_poll(kernel, thread, fds_addr, nfds, timeout_ms):
    space = thread.process.space
    timeout_ns = ms_to_ns(timeout_ms)
    entries = []
    for index in range(nfds):
        raw = space.read(fds_addr + index * POLLFD_SIZE, POLLFD_SIZE)
        fd, events, _revents = unpack_pollfd(raw)
        entry = thread.process.fdtable.get(fd) if fd >= 0 else None
        entries.append((fd, events, entry))
    while True:
        ready = 0
        for index, (fd, events, entry) in enumerate(entries):
            if fd < 0:
                revents = 0
            elif entry is None:
                revents = C.POLLNVAL
            else:
                mask = entry.ofd.file.poll_mask(kernel)
                revents = mask & (events | C.POLLERR | C.POLLHUP)
            space.write(
                fds_addr + index * POLLFD_SIZE, pack_pollfd(fd, events, revents)
            )
            if revents:
                ready += 1
        if ready or timeout_ns == 0:
            return ready
        registered = []
        for _fd, _events, entry in entries:
            if entry is not None:
                ev = entry.ofd.file.pollq.register()
                registered.append((entry.ofd.file.pollq, ev))
        if not registered:
            return 0
        merged = kernel.merge_events([ev for _q, ev in registered])
        status, _ = yield from wait_interruptible(thread, merged, timeout_ns)
        for queue, ev in registered:
            queue.unregister(ev)
        if status == "interrupted":
            return -E.EINTR
        if status == "timeout":
            timeout_ns = 0  # one final scan, then report


@syscall("select")
def sys_select(kernel, thread, nfds, readfds, writefds, exceptfds, timeout_addr):
    space = thread.process.space
    timeout_ns = None
    if timeout_addr:
        sec, usec = struct.unpack("<qq", space.read(timeout_addr, TIMEVAL_SIZE))
        timeout_ns = sec * 1_000_000_000 + usec * 1000

    def load(addr):
        if not addr:
            return None
        return bytearray(space.read(addr, FDSET_BYTES))

    want_read = load(readfds)
    want_write = load(writefds)
    want_except = load(exceptfds)

    def bit(bitmap, fd):
        return bitmap is not None and bool(bitmap[fd // 8] & (1 << (fd % 8)))

    while True:
        out_read = bytearray(FDSET_BYTES)
        out_write = bytearray(FDSET_BYTES)
        out_except = bytearray(FDSET_BYTES)
        ready = 0
        watched = []
        for fd in range(min(nfds, FDSET_BYTES * 8)):
            interested = bit(want_read, fd) or bit(want_write, fd) or bit(
                want_except, fd
            )
            if not interested:
                continue
            entry = thread.process.fdtable.get(fd)
            if entry is None:
                return -E.EBADF
            watched.append(entry)
            mask = entry.ofd.file.poll_mask(kernel)
            if bit(want_read, fd) and mask & (C.POLLIN | C.POLLHUP | C.POLLERR):
                out_read[fd // 8] |= 1 << (fd % 8)
                ready += 1
            if bit(want_write, fd) and mask & (C.POLLOUT | C.POLLERR):
                out_write[fd // 8] |= 1 << (fd % 8)
                ready += 1
            if bit(want_except, fd) and mask & C.POLLERR:
                out_except[fd // 8] |= 1 << (fd % 8)
                ready += 1
        if ready or timeout_ns == 0:
            if readfds:
                space.write(readfds, bytes(out_read))
            if writefds:
                space.write(writefds, bytes(out_write))
            if exceptfds:
                space.write(exceptfds, bytes(out_except))
            return ready
        registered = []
        for entry in watched:
            ev = entry.ofd.file.pollq.register()
            registered.append((entry.ofd.file.pollq, ev))
        if not registered:
            return 0
        merged = kernel.merge_events([ev for _q, ev in registered])
        status, _ = yield from wait_interruptible(thread, merged, timeout_ns)
        for queue, ev in registered:
            queue.unregister(ev)
        if status == "interrupted":
            return -E.EINTR
        if status == "timeout":
            timeout_ns = 0


# ---------------------------------------------------------------------------
# epoll
# ---------------------------------------------------------------------------
@syscall("epoll_create")
def sys_epoll_create(kernel, thread, size=0):
    if size < 0:
        return -E.EINVAL
    return _epoll_create(kernel, thread, 0)


@syscall("epoll_create1")
def sys_epoll_create1(kernel, thread, flags=0):
    return _epoll_create(kernel, thread, flags)


def _epoll_create(kernel, thread, flags):
    instance = EpollInstance()
    ofd = OpenFileDescription(instance, C.O_RDWR)
    return thread.process.fdtable.alloc(ofd, cloexec=bool(flags & C.O_CLOEXEC))


@syscall("epoll_ctl")
def sys_epoll_ctl(kernel, thread, epfd, op, fd, event_addr=0):
    entry, err = get_entry(thread, epfd)
    if entry is None:
        return err
    instance = entry.ofd.file
    if not isinstance(instance, EpollInstance):
        return -E.EINVAL
    target, err = get_entry(thread, fd)
    if target is None:
        return err
    events = data = 0
    if op != C.EPOLL_CTL_DEL:
        raw = thread.process.space.read(event_addr, EPOLL_EVENT_SIZE)
        events, data = unpack_epoll_event(raw)
    result = instance.ctl(op, fd, events, data, target.ofd.file)
    if result == 0:
        instance.notify_pollers(kernel)
    return result


@syscall("epoll_wait")
def sys_epoll_wait(kernel, thread, epfd, events_addr, maxevents, timeout_ms):
    entry, err = get_entry(thread, epfd)
    if entry is None:
        return err
    instance = entry.ofd.file
    if not isinstance(instance, EpollInstance):
        return -E.EINVAL
    if maxevents <= 0:
        return -E.EINVAL
    timeout_ns = ms_to_ns(timeout_ms)
    result = yield from instance.wait(kernel, thread, maxevents, timeout_ns)
    if isinstance(result, int):
        return result
    space = thread.process.space
    for index, (fd, revents, data) in enumerate(result):
        space.write(
            events_addr + index * EPOLL_EVENT_SIZE, pack_epoll_event(revents, data)
        )
    return len(result)
