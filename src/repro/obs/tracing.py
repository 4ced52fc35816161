"""Virtual-time span tracing.

The :class:`Tracer` is an event sink in the sense of
``Simulator(trace=...)``, which accepts only objects with an
``emit(event)`` method taking :class:`~repro.sim.TraceEvent` objects
(there is no ``(time_ns, message)`` callable form). Choke points call
:meth:`Tracer.begin`/:meth:`Span.finish` (or the ``span`` context
manager) around their instrumented intervals; when tracing is disabled
every call is a no-op returning shared null objects, so the disabled
path costs one attribute check and nothing else.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim import TraceEvent


class Span:
    """An open interval on the virtual clock; ``finish`` emits it."""

    __slots__ = ("tracer", "component", "name", "start_ns", "attrs", "_done")

    def __init__(self, tracer: "Tracer", component: str, name: str,
                 start_ns: int, attrs: dict):
        self.tracer = tracer
        self.component = component
        self.name = name
        self.start_ns = start_ns
        self.attrs = attrs
        self._done = False

    def finish(self, **attrs) -> None:
        if self._done:
            return
        self._done = True
        if attrs:
            self.attrs.update(attrs)
        now = self.tracer.sim.now
        self.tracer.emit(TraceEvent(
            now, "span", self.component, self.name,
            dur_ns=now - self.start_ns, attrs=self.attrs,
        ))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.finish()
        return False


class _NullSpan:
    """Shared do-nothing span returned when tracing is disabled."""

    __slots__ = ()

    def finish(self, **attrs) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects :class:`TraceEvent` records in a bounded buffer.

    Attributes:
        enabled: gate checked by every instrumented choke point; when
            false, ``begin`` returns ``None`` and ``span`` returns a
            shared null span.
        events: the recorded events, oldest first.
        dropped: events discarded once ``max_events`` was reached.
    """

    def __init__(self, sim, enabled: bool = True, max_events: int = 100_000):
        self.sim = sim
        self.enabled = enabled
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        self.dropped = 0

    # -- sink protocol --------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    # -- span API -------------------------------------------------------
    def begin(self, component: str, name: str, **attrs) -> Optional[Span]:
        """Open a span now; returns ``None`` when tracing is disabled."""
        if not self.enabled:
            return None
        return Span(self, component, name, self.sim.now, attrs)

    def span(self, component: str, name: str, **attrs):
        """Context-manager form of :meth:`begin`; always usable in a
        ``with`` statement regardless of ``enabled``."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, component, name, self.sim.now, attrs)

    def instant(self, component: str, name: str, **attrs) -> None:
        if not self.enabled:
            return
        self.emit(TraceEvent(self.sim.now, "instant", component, name,
                             attrs=attrs))
