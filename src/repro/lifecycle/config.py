"""Configuration for the elastic cluster lifecycle.

A :class:`LifecycleConfig` attached to ``DistConfig.lifecycle`` arms the
three lifecycle subsystems independently:

* **gossip** — SWIM-style heartbeats + epidemic membership dissemination
  replacing the leader's crash-detect timeout, so the view survives
  leader loss;
* **rejoin** — replay-based re-admission: a quarantined slot is
  re-imaged and the replacement fast-replays the recorded RB/verdict
  window back to the live frontier;
* **autoscale** — a drift watchdog over the always-on wait histograms
  that scales the rendezvous shard count and proactively
  quarantines-and-replaces a node that stops voting.

Everything is seeded and deterministic: the same config + seed produce
bit-identical gossip traffic, stats, and wire bytes run-to-run. With no
config attached (the default) the lifecycle layer does not exist at
all — zero new frames, zero new stats, bit-identical to the pre-
lifecycle design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import PolicyError


@dataclass
class LifecycleConfig:
    """Tuning for gossip membership, re-admission, and auto-scaling."""

    # -- gossip membership + heartbeats -------------------------------
    #: Arm the SWIM-style heartbeat/suspicion protocol. When armed it
    #: *replaces* the cluster's crash-detect timeout as the failure
    #: detector (gossip silence is the signal).
    gossip: bool = True

    # -- replay-based re-admission ------------------------------------
    #: Re-image quarantined slots and replay them back into the quorum.
    rejoin: bool = True
    #: Bound on the recorded window (RB records + rendezvous verdicts).
    #: Overflow stops recording and *refuses* later rejoins rather than
    #: replaying from a hole — bounded-by-refusal, never silently wrong.
    replay_window: int = 65536

    # -- auto-scaling + drift watchdogs -------------------------------
    #: Arm the p99-drift watchdog over the always-on wait histograms.
    autoscale: bool = False
    #: Watchdog sampling interval.
    watch_interval_ns: int = 2_000_000
    #: Windowed p99 must exceed baseline p99 by this factor to count as
    #: a drifting window.
    drift_factor: float = 4.0
    #: Consecutive drifting (or quiet) windows before scaling up (down).
    drift_windows: int = 3
    #: Rendezvous shard-count bounds the scaler moves within.
    min_shards: int = 1
    max_shards: int = 8
    #: Quarantine-and-replace a node that keeps whole rounds open
    #: (stopped voting) for ``stuck_round_ticks`` watchdog intervals —
    #: proactive replacement long before the rendezvous stall watchdog
    #: would fire.
    proactive_quarantine: bool = False
    stuck_round_ticks: int = 3

    #: Gossip fanout RNG seed; None inherits the MVEE config seed.
    seed: Optional[int] = None

    def __post_init__(self):
        if self.replay_window < 1:
            raise PolicyError("replay_window must be at least 1")
        if self.watch_interval_ns <= 0:
            raise PolicyError("watch_interval_ns must be positive")
        if self.drift_factor <= 1.0:
            raise PolicyError("drift_factor must exceed 1.0")
        if self.drift_windows < 1:
            raise PolicyError("drift_windows must be at least 1")
        if not 1 <= self.min_shards <= self.max_shards:
            raise PolicyError("need 1 <= min_shards <= max_shards")
        if self.stuck_round_ticks < 1:
            raise PolicyError("stuck_round_ticks must be at least 1")
