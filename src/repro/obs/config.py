"""Observability configuration (see DESIGN.md §9).

``ObsConfig`` is frozen so it can key ``lru_cache``'d bench helpers and
ride inside :class:`~repro.core.remon.ReMonConfig` without aliasing
runtime state. The default configuration is *metrics-only*: counters,
gauges, and histograms are host-side bookkeeping with zero virtual-time
cost, so a default-configured run is byte-identical in virtual wall time
to one with no obs at all. Spans and the flight recorder each charge a
small deterministic virtual cost at the choke points they instrument
(``CostModel.obs_span_ns`` / ``obs_event_ns``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ObsConfig:
    """Knobs for the repro.obs subsystem.

    Attributes:
        spans: emit structured span/instant trace events from the hot
            choke points (kernel dispatch, rendezvous, RB ops, IK-B
            routing, dist transport). Off by default — zero cost.
        flight_recorder: keep a bounded per-replica ring of the last
            ``FlightRecorder.ring_size`` syscall/rendezvous events and
            dump a postmortem on divergence or quarantine. The tracer's
            buffer is bounded by ``Tracer.max_events``.
        trace_path: if set, finalize writes the trace as JSON lines.
        prometheus_path: if set, finalize writes the registry in
            Prometheus text exposition format.
    """

    spans: bool = False
    flight_recorder: bool = False
    trace_path: Optional[str] = None
    prometheus_path: Optional[str] = None
