"""Configuration for the elastic cluster lifecycle.

A :class:`LifecycleConfig` attached to ``DistConfig.lifecycle`` arms the
lifecycle: one switch for two subsystems, plus one opt-in.

* **gossip** — SWIM-style heartbeats + epidemic membership dissemination
  replacing the leader's crash-detect timeout, so the view survives
  leader loss;
* **rejoin** — replay-based re-admission: a quarantined slot is
  re-imaged and the replacement fast-replays the recorded RB/verdict
  window back to the live frontier;
* **autoscale** (opt-in) — a drift watchdog over the always-on wait
  histograms that scales the rendezvous shard count and proactively
  quarantines-and-replaces a node that stops voting.

The replay window's bound and the watchdog's tunables are
:mod:`repro.lifecycle.manager` constants. Everything is seeded and
deterministic: the same config + seed produce bit-identical gossip
traffic, stats, and wire bytes run-to-run. With no config attached (the
default) the lifecycle layer does not exist at all — zero new frames,
zero new stats, bit-identical to the pre-lifecycle design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class LifecycleConfig:
    """The auto-scaler opt-in and the gossip seed."""

    #: Arm the p99-drift watchdog over the always-on wait histograms,
    #: with its scaling and proactive-quarantine actuators.
    autoscale: bool = False
    #: Gossip fanout RNG seed; None inherits the MVEE config seed.
    seed: Optional[int] = None
