"""Clocks, sleeping and timers."""

from __future__ import annotations

import struct

from repro.kernel import constants as C
from repro.kernel import errno_codes as E
from repro.kernel.calls._helpers import get_entry
from repro.kernel.structs import (
    TIMESPEC_SIZE,
    TIMEVAL_SIZE,
    pack_timespec,
    pack_timeval,
    unpack_timespec,
)
from repro.kernel.syscalls import syscall
from repro.kernel.timers import TimerFD
from repro.kernel.vfs import OpenFileDescription
from repro.kernel.waitq import wait_interruptible
from repro.sim import Event


@syscall("gettimeofday")
def sys_gettimeofday(kernel, thread, tv_addr, tz_addr=0):
    if tv_addr:
        thread.process.space.write(tv_addr, pack_timeval(kernel.realtime_ns()))
    return 0


@syscall("clock_gettime")
def sys_clock_gettime(kernel, thread, clockid, ts_addr):
    if clockid == C.CLOCK_REALTIME:
        ns = kernel.realtime_ns()
    else:
        ns = kernel.sim.now
    if ts_addr:
        thread.process.space.write(ts_addr, pack_timespec(ns))
    return 0


@syscall("time")
def sys_time(kernel, thread, t_addr=0):
    seconds = kernel.realtime_ns() // 1_000_000_000
    if t_addr:
        thread.process.space.write(t_addr, seconds.to_bytes(8, "little"))
    return seconds


@syscall("nanosleep")
def sys_nanosleep(kernel, thread, req_addr, rem_addr=0):
    raw = thread.process.space.read(req_addr, TIMESPEC_SIZE)
    duration = unpack_timespec(raw)
    if duration < 0:
        return -E.EINVAL
    never = Event("nanosleep")
    status, _ = yield from wait_interruptible(thread, never, duration)
    if status == "interrupted":
        if rem_addr:
            thread.process.space.write(rem_addr, pack_timespec(0))
        return -E.EINTR
    return 0


@syscall("alarm")
def sys_alarm(kernel, thread, seconds):
    process = thread.process
    now = kernel.sim.now
    previous = 0
    if process.itimer_real is not None:
        previous = max(0, (process.itimer_real[0] - now)) // 1_000_000_000
    if seconds == 0:
        process.itimer_real = None
        return previous
    expiry = now + seconds * 1_000_000_000
    process.itimer_real = (expiry, 0)
    kernel.schedule_itimer(process, expiry)
    return previous


@syscall("setitimer")
def sys_setitimer(kernel, thread, which, new_addr, old_addr=0):
    process = thread.process
    space = process.space
    now = kernel.sim.now
    if old_addr:
        remaining = interval = 0
        if process.itimer_real is not None:
            remaining = max(0, process.itimer_real[0] - now)
            interval = process.itimer_real[1]
        space.write(old_addr, pack_timeval(interval) + pack_timeval(remaining))
    if not new_addr:
        return 0
    raw = space.read(new_addr, 2 * TIMEVAL_SIZE)
    interval_ns = _timeval_ns(raw[:TIMEVAL_SIZE])
    value_ns = _timeval_ns(raw[TIMEVAL_SIZE:])
    if value_ns == 0:
        process.itimer_real = None
        return 0
    expiry = now + value_ns
    process.itimer_real = (expiry, interval_ns)
    kernel.schedule_itimer(process, expiry)
    return 0


@syscall("getitimer")
def sys_getitimer(kernel, thread, which, curr_addr):
    process = thread.process
    now = kernel.sim.now
    remaining = interval = 0
    if process.itimer_real is not None:
        remaining = max(0, process.itimer_real[0] - now)
        interval = process.itimer_real[1]
    thread.process.space.write(
        curr_addr, pack_timeval(interval) + pack_timeval(remaining)
    )
    return 0


def _timeval_ns(raw: bytes) -> int:
    sec, usec = struct.unpack("<qq", raw)
    return sec * 1_000_000_000 + usec * 1000


# ---------------------------------------------------------------------------
# timerfd
# ---------------------------------------------------------------------------
@syscall("timerfd_create")
def sys_timerfd_create(kernel, thread, clockid=C.CLOCK_MONOTONIC, flags=0):
    timer = TimerFD(kernel, clockid)
    ofd = OpenFileDescription(timer, C.O_RDWR | (flags & C.O_NONBLOCK))
    return thread.process.fdtable.alloc(ofd, cloexec=bool(flags & C.O_CLOEXEC))


@syscall("timerfd_settime")
def sys_timerfd_settime(kernel, thread, fd, flags, new_addr, old_addr=0):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    timer = entry.ofd.file
    if not isinstance(timer, TimerFD):
        return -E.EINVAL
    space = thread.process.space
    raw = space.read(new_addr, 2 * TIMESPEC_SIZE)
    interval_ns = unpack_timespec(raw[:TIMESPEC_SIZE])
    value_ns = unpack_timespec(raw[TIMESPEC_SIZE:])
    prev_value, prev_interval = timer.settime(value_ns, interval_ns)
    if old_addr:
        space.write(old_addr, pack_timespec(prev_interval) + pack_timespec(prev_value))
    return 0


@syscall("timerfd_gettime")
def sys_timerfd_gettime(kernel, thread, fd, curr_addr):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    timer = entry.ofd.file
    if not isinstance(timer, TimerFD):
        return -E.EINVAL
    remaining, interval = timer.gettime()
    thread.process.space.write(
        curr_addr, pack_timespec(interval) + pack_timespec(remaining)
    )
    return 0
