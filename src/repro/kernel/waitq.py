"""Wait queues: the kernel's building block for blocking operations.

A :class:`WaitQueue` hands each waiter a fresh one-shot event; resources
(pipes, sockets, futex buckets, epoll instances) fire some or all of
those events when their state changes. Signals interrupt a blocked
thread by firing the same per-wait event with the :data:`INTERRUPTED`
sentinel, which the kernel's blocking helpers translate to ``-EINTR``.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.sim import Event, WaitEvent

#: Sentinel delivered to a waiter when a signal interrupts the wait.
INTERRUPTED = object()


class WaitQueue:
    """A list of pending one-shot events, one per blocked waiter."""

    __slots__ = ("name", "_events")

    def __init__(self, name: str = "waitq"):
        self.name = name
        self._events: List[Event] = []

    def register(self) -> Event:
        """Add a waiter; returns the event it should wait on."""
        event = Event(self.name)
        self._events.append(event)
        return event

    def unregister(self, event: Event) -> None:
        try:
            self._events.remove(event)
        except ValueError:
            pass

    def notify(self, sim, count: int, value: Any = None) -> int:
        """Wake up to ``count`` waiters; returns how many were woken."""
        woken = 0
        remaining: List[Event] = []
        for event in self._events:
            if event.fired:
                continue
            if woken < count:
                sim.fire(event, value)
                woken += 1
            else:
                remaining.append(event)
        self._events = remaining
        return woken

    def notify_all(self, sim, value: Any = None) -> int:
        return self.notify(sim, len(self._events), value)

    def __len__(self) -> int:
        return sum(1 for event in self._events if not event.fired)


def wait_interruptible(thread, event: Event, timeout_ns: Optional[int] = None):
    """Block ``thread`` on ``event`` until it fires, times out, or a
    signal arrives.

    Yields simulator effects; returns one of the strings ``"fired"``,
    ``"timeout"`` or ``"interrupted"`` paired with the event value.
    """
    thread.begin_interruptible(event)
    try:
        fired, value = yield WaitEvent(event, timeout_ns)
    finally:
        thread.end_interruptible(event)
    if not fired:
        return "timeout", None
    if value is INTERRUPTED:
        return "interrupted", None
    return "fired", value
