"""The per-run observability hub.

One :class:`Obs` instance is owned by each ``ReMon``/``DistMvee`` and
threaded to every component that reports: it bundles the metrics
registry (always on, host-side only), the span tracer, and the optional
flight recorder, and knows the deterministic virtual cost the enabled
instruments add at each instrumented choke point.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.config import ObsConfig
from repro.obs.export import (
    write_postmortem,
    write_prometheus,
    write_trace_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder, Postmortem
from repro.obs.tracing import Tracer


class Obs:
    """Registry + tracer + flight recorder for one MVEE run."""

    def __init__(self, config: ObsConfig, sim):
        self.config = config
        self.sim = sim
        self.registry = MetricsRegistry()
        self.tracer = Tracer(sim, enabled=config.spans)
        self.recorder = FlightRecorder() if config.flight_recorder else None
        # Virtual-time charges, set by bind_costs; all zero while the
        # corresponding instrument is off, so a metrics-only run's wall
        # time is byte-identical to an obs-free one.
        self.span_cost_ns = 0
        self.event_cost_ns = 0
        self.dispatch_cost_ns = 0

    @property
    def active(self) -> bool:
        """True when any virtual-cost-bearing instrument is enabled."""
        return self.tracer.enabled or self.recorder is not None

    @classmethod
    def create(cls, config: Optional[ObsConfig], sim) -> "Obs":
        return cls(config if config is not None else ObsConfig(), sim)

    def bind_costs(self, costs) -> None:
        self.span_cost_ns = costs.obs_span_ns if self.tracer.enabled else 0
        self.event_cost_ns = (costs.obs_event_ns
                              if self.recorder is not None else 0)
        self.dispatch_cost_ns = self.span_cost_ns + self.event_cost_ns

    # -- postmortems ----------------------------------------------------
    def emit_postmortem(self, reason: str, report,
                        attribution: Optional[dict] = None,
                        backoff: Optional[dict] = None,
                        ) -> Optional[Postmortem]:
        """Snapshot the flight recorder into a postmortem; ``None`` when
        the recorder is disabled."""
        if self.recorder is None:
            return None
        return Postmortem(
            reason, report, self.recorder.tails(),
            attribution=attribution, backoff=backoff,
            recorder_stats={
                "recorded": self.recorder.recorded,
                "dropped": self.recorder.dropped,
                "ring_size": self.recorder.ring_size,
            },
        )

    # -- finalize-time export -------------------------------------------
    def export_files(self, postmortems=()) -> None:
        """Honour ``trace_path``/``prometheus_path`` if configured."""
        if self.config.trace_path:
            write_trace_jsonl(self.config.trace_path, self.tracer)
        if self.config.prometheus_path:
            write_prometheus(self.config.prometheus_path, self.registry)
        if self.config.trace_path and postmortems:
            write_postmortem(self.config.trace_path + ".postmortem.json",
                             postmortems[0])
