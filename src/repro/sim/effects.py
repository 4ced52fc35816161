"""Effects yielded by simulation tasks and the events they wait on."""

from __future__ import annotations

from typing import Any, Optional


class Effect:
    """Base class for everything a task may yield to the simulator.

    Each concrete effect carries a class-level ``_effect_kind`` int tag;
    the simulator dispatches on the tag (one attribute load) instead of
    walking an ``isinstance`` chain per yield.

    Effects are immutable values: the simulator reads one once, when it
    is yielded, and never writes to it, so a hot path may yield the same
    instance again and again (the kernel's syscall-entry ``Sleep``).
    """

    __slots__ = ()

    _effect_kind = 0


class Sleep(Effect):
    """Advance this task's clock by ``ns`` virtual nanoseconds.

    When ``cpu`` is true the sleep represents CPU-burning work and is
    subject to core contention: if more CPU-burning tasks are active than
    the simulated machine has cores, the duration is stretched
    proportionally.
    """

    __slots__ = ("ns", "cpu")

    _effect_kind = 1

    def __init__(self, ns: int, cpu: bool = False):
        if ns < 0:
            raise ValueError("cannot sleep for a negative duration: %r" % ns)
        self.ns = int(ns)
        self.cpu = cpu

    def __repr__(self):
        return "Sleep(ns=%d, cpu=%r)" % (self.ns, self.cpu)


class Event:
    """A one-shot broadcast event tasks can wait on.

    Firing wakes every waiter at the current virtual time and delivers
    ``value`` to each of them. Waiting on an already-fired event returns
    immediately.
    """

    __slots__ = ("name", "fired", "value", "_waiters", "_listeners")

    def __init__(self, name: str = "event"):
        self.name = name
        self.fired = False
        self.value: Any = None
        self._waiters: list = []
        #: Listener list, allocated by the first add_listener (most
        #: events never get one).
        self._listeners: Optional[list] = None

    def add_listener(self, fn) -> None:
        """Register ``fn(value)`` to run synchronously when this event
        fires; called immediately if the event already fired."""
        if self.fired:
            fn(self.value)
        elif self._listeners is None:
            self._listeners = [fn]
        else:
            self._listeners.append(fn)

    def __repr__(self):
        state = "fired" if self.fired else "%d waiter(s)" % len(self._waiters)
        return "Event(%s, %s)" % (self.name, state)


class WaitEvent(Effect):
    """Block until ``event`` fires or ``timeout_ns`` elapses.

    The task is resumed with a ``(fired, value)`` tuple; ``fired`` is
    False when the timeout won the race, in which case ``value`` is None.
    """

    __slots__ = ("event", "timeout_ns")

    _effect_kind = 2

    def __init__(self, event: Event, timeout_ns: Optional[int] = None):
        if timeout_ns is not None and timeout_ns < 0:
            raise ValueError("negative timeout: %r" % timeout_ns)
        self.event = event
        self.timeout_ns = timeout_ns

    def __repr__(self):
        return "WaitEvent(%s, timeout=%r)" % (self.event.name, self.timeout_ns)


class Spawn(Effect):
    """Start a new task running ``gen`` and resume with its Task handle."""

    __slots__ = ("gen", "name")

    _effect_kind = 3

    def __init__(self, gen, name: str = "task"):
        self.gen = gen
        self.name = name

    def __repr__(self):
        return "Spawn(%s)" % self.name
