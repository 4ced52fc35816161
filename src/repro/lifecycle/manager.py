"""LifecycleManager: wires gossip, re-admission, and auto-scaling into
a running :class:`~repro.dist.cluster.DistMvee`.

The manager owns three loops, all on the cluster's virtual clock:

* **heartbeats** — one staggered beat timer per node driving its
  :class:`~repro.lifecycle.gossip.GossipAgent`; gossip silence replaces
  the leader's crash-detect timeout as the failure detector, so the
  membership view survives leader loss.
* **re-admission** — an always-on :class:`~repro.lifecycle.window.
  ReplayWindow` records every RB mirror record and rendezvous verdict.
  When a slot is quarantined, the manager waits a provision delay,
  re-images the slot with a fresh kernel/process at the same layout
  and address, ships the recorded window as billed
  ``T_LIFECYCLE_STATE`` frames, and boots the replacement: it adopts
  its pre-filled mirror in arrival order at ``lifecycle_replay_ns``
  each (rr-style: no digests, no round trips) until it misses an
  artifact — the live frontier — at which point it is re-admitted
  under a bumped ownership epoch and votes like everyone else.
* **drift watchdog** (``LifecycleConfig.autoscale``) — a periodic tick
  sampling the always-on wait histograms and the open rendezvous
  rounds; sustained p99 drift scales the shard count, and a node that
  keeps whole rounds open is proactively quarantined-and-replaced
  before a divergence.

Nothing here exists unless a :class:`LifecycleConfig` is attached:
lifecycle-free runs take zero new frames, zero new stats, and stay
bit-identical to the pre-lifecycle design.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.events import DivergenceReport
from repro.dist.selective import CLS_LIFECYCLE
from repro.dist.wire import (
    Frame,
    GOSSIP_SUSPECT,
    STATE_RECORD,
    STATE_VERDICT,
    T_LIFECYCLE_GOSSIP,
    T_LIFECYCLE_STATE,
    digest_payload,
    gossip_payload,
    parse_gossip_payload,
    state_payload,
)
from repro.lifecycle.autoscale import DriftWatchdog
from repro.lifecycle.config import LifecycleConfig
from repro.lifecycle.gossip import GossipAgent
from repro.lifecycle.window import ReplayWindow

#: Heartbeat interval, silence before a peer turns suspect (twice it:
#: dead), and peers gossiped to per beat (DESIGN.md §12).
HEARTBEAT_INTERVAL_NS = 1_000_000
SUSPICION_TIMEOUT_NS = 3_000_000
GOSSIP_FANOUT = 2

#: Bound on the recorded window (RB records + rendezvous verdicts).
#: Overflow stops recording and *refuses* later rejoins rather than
#: replaying from a hole — bounded-by-refusal, never silently wrong.
REPLAY_WINDOW = 65536

#: The drift watchdog's sampling interval; the factor by which windowed
#: p99 must exceed the baseline p99 to count as drifting; consecutive
#: drifting (or quiet) windows before scaling up (down); the shard-count
#: bounds the scaler moves within; and the watchdog intervals a node may
#: keep whole rounds open (stopped voting) before it is proactively
#: quarantined-and-replaced, long before the stall watchdog would fire.
WATCH_INTERVAL_NS = 2_000_000
DRIFT_FACTOR = 4.0
DRIFT_WINDOWS = 3
MIN_SHARDS = 1
MAX_SHARDS = 8
STUCK_ROUND_TICKS = 3


class LifecycleManager:
    """The elastic-lifecycle controller attached to one DistMvee."""

    def __init__(self, mvee, config: LifecycleConfig):
        self.mvee = mvee
        self.sim = mvee.sim
        seed = config.seed if config.seed is not None else (
            mvee.config.seed or 1
        )
        #: One agent per slot; agents outlive re-images (the replacement
        #: inherits the slot's view under a bumped incarnation).
        self.agents: List[GossipAgent] = [
            GossipAgent(
                index, mvee.n,
                suspicion_timeout_ns=SUSPICION_TIMEOUT_NS,
                fanout=GOSSIP_FANOUT,
                seed=seed,
                on_dead=lambda peer, inc, i=index: self._on_agent_dead(
                    i, peer, inc
                ),
            )
            for index in range(mvee.n)
        ]
        #: Recorded from the start: a window that only starts recording
        #: at the crash is a window with a hole.
        self.window = ReplayWindow(REPLAY_WINDOW)
        self.watchdog = None
        if config.autoscale:
            self.watchdog = DriftWatchdog(
                drift_factor=DRIFT_FACTOR,
                drift_windows=DRIFT_WINDOWS,
                stuck_round_ticks=STUCK_ROUND_TICKS,
            )
        #: Slot index -> in-flight rejoin bookkeeping.
        self._rejoins: Dict[int, Dict] = {}
        self.stats = {
            "beats_sent": 0,
            "gossip_frames": 0,
            "heartbeat_cpu_ns": 0,
            "suspicions": 0,
            "false_suspicions": 0,
            "gossip_detections": 0,
            "stall_notes": 0,
            "rejoins_scheduled": 0,
            "rejoins_refused": 0,
            "rejoins_started": 0,
            "rejoins_completed": 0,
            "rejoin_ns_total": 0,
            "state_frames": 0,
            "replayed_records": 0,
            "replayed_verdicts": 0,
            "replayed_local": 0,
            "scale_ups": 0,
            "scale_downs": 0,
            "proactive_quarantines": 0,
        }

    # ------------------------------------------------------------------
    def _halted(self) -> bool:
        mvee = self.mvee
        return mvee.shutting_down or mvee.diverged or mvee.group.all_exited()

    # ------------------------------------------------------------------
    # Heartbeats + gossip
    # ------------------------------------------------------------------
    def start(self) -> None:
        interval = HEARTBEAT_INTERVAL_NS
        for index in range(self.mvee.n):
            # Stagger first beats so N nodes never flush one synchronized
            # burst; the offsets are pure functions of the index.
            offset = interval * (index + 1) // (self.mvee.n + 1)
            self.sim.call_at(interval + offset, self._beat, index)
        if self.watchdog is not None:
            self.sim.call_at(WATCH_INTERVAL_NS, self._watch_tick)

    def _beat(self, index: int) -> None:
        if self._halted():
            return
        mvee = self.mvee
        node = mvee.nodes[index]
        process = node.process
        if not process.exited and not process.quarantined:
            agent = self.agents[index]
            now = self.sim.now
            for _peer, state in agent.check(now):
                if state == GOSSIP_SUSPECT:
                    self.stats["suspicions"] += 1
            targets = agent.beat(now)
            payload = gossip_payload(agent.view())
            for dst in targets:
                frame = Frame(
                    T_LIFECYCLE_GOSSIP, index, 0, 0,
                    aux=agent.incarnations[index], payload=payload,
                )
                mvee.send_frame(index, dst, frame, cls=CLS_LIFECYCLE)
                self.stats["gossip_frames"] += 1
            self.stats["beats_sent"] += 1
            self.stats["heartbeat_cpu_ns"] += mvee.costs.lifecycle_heartbeat_ns
        self.sim.call_at(
            self.sim.now + HEARTBEAT_INTERVAL_NS,
            self._beat, index,
        )

    def on_gossip_frame(self, dst: int, frame: Frame) -> None:
        if self._halted():
            return
        entries = parse_gossip_payload(frame.payload)
        self.agents[dst].merge(self.sim.now, frame.sender, entries)

    def _on_agent_dead(self, observer: int, peer: int, incarnation: int) -> None:
        if self._halted():
            return
        mvee = self.mvee
        node = mvee.nodes[peer]
        process = node.process
        if process.quarantined or node.rejoining:
            return
        code = process.exit_code or 0
        if process.exited and code >= 128:
            # The cluster-level detection event; N observers converge
            # on one quarantine.
            self.stats["gossip_detections"] += 1
            mvee.handle_crash(node, code)
        elif not process.exited:
            # A live process was gossiped dead (lost beats): refute
            # locally rather than quarantine on rumour alone.
            self.stats["false_suspicions"] += 1
            self.agents[observer].grace(self.sim.now, peer)
        # A cleanly exited peer is *expected* to fall silent: the dead
        # mark just stops the observer expecting beats.

    # ------------------------------------------------------------------
    # Replay window recording (hooks from the leader's hot path)
    # ------------------------------------------------------------------
    def record_result(self, vtid: int, seq: int, record) -> None:
        self.window.record(vtid, seq, record)

    def record_release(
        self, vtid: int, seq: int, verdict: int, digest: int = 0
    ) -> None:
        self.window.release(vtid, seq, verdict, digest)

    def note_stall(self, blame: int) -> None:
        self.stats["stall_notes"] += 1

    # ------------------------------------------------------------------
    # Re-admission
    # ------------------------------------------------------------------
    def on_quarantine(self, index: int, report: DivergenceReport) -> None:
        if self._halted():
            return
        if self.window.overflowed:
            # A window with a hole cannot be replayed soundly; refuse.
            self.stats["rejoins_refused"] += 1
            return
        pending = self._rejoins.get(index)
        if pending is not None and pending.get("pending"):
            return
        self.stats["rejoins_scheduled"] += 1
        self._rejoins[index] = {
            "pending": True,
            "quarantined_ns": self.sim.now,
            "kind": report.kind,
        }
        self.sim.call_at(
            self.sim.now + self.mvee.costs.lifecycle_provision_ns,
            self._provision, index
        )

    def _provision(self, index: int) -> None:
        """Re-image the quarantined slot: fresh kernel + process at the
        same layout and address, then ship the recorded window."""
        if self._halted():
            return
        info = self._rejoins.get(index)
        if info is None or not info.get("pending"):
            return
        if self.window.overflowed:
            # The window overflowed between quarantine and provision: a
            # truncated snapshot replays a prefix whose first miss is
            # NOT the live frontier — the replacement would wait forever
            # for records the leader shipped before the re-image. Refuse
            # (bounded-by-refusal), leave the slot quarantined.
            self.stats["rejoins_refused"] += 1
            info["pending"] = False
            return
        mvee = self.mvee
        node = mvee.nodes[index]
        mvee.image(node, "%s.n%d.r%d" % (
            mvee.program.name, index, self.stats["rejoins_scheduled"],
        ))
        # The replacement outlives its own obituary by announcing a
        # bumped incarnation; peers revive the slot on merge. Its peer
        # silence clocks restart too — the agent was deaf for the whole
        # outage, so the accumulated silence says nothing about the
        # peers.
        self.agents[index].restart(self.sim.now)
        # Ship the recorded window as billed lifecycle state frames from
        # the current leader (who holds the authoritative record); the
        # delivery applies it and boots the guest.
        entries = self.window.snapshot()
        leader = mvee.leader_index
        sends = []
        for kind, vtid, seq, artifact in entries:
            if kind == STATE_RECORD:
                frame = Frame(
                    T_LIFECYCLE_STATE, leader, vtid, seq,
                    aux=artifact.result,
                    payload=state_payload(
                        STATE_RECORD, artifact.name, artifact.payload
                    ),
                )
            else:
                verdict, digest = artifact
                frame = Frame(
                    T_LIFECYCLE_STATE, leader, vtid, seq,
                    aux=verdict,
                    payload=state_payload(
                        STATE_VERDICT, "", digest_payload(digest, "")
                    ),
                )
            sends.append((leader, index, frame, CLS_LIFECYCLE, False))
        self.stats["state_frames"] += len(entries)
        info["replay_start_ns"] = self.sim.now
        info["window_entries"] = len(entries)
        mvee.deliver(sends, self._boot_replacement, node, entries)

    def _boot_replacement(self, node, entries) -> None:
        if self._halted():
            return
        # The window's order, then the arrivals since the re-image, is
        # the one order the replacement adopts in (DESIGN.md §13).
        node.mirror.prefill(entries, self.sim)
        self.stats["rejoins_started"] += 1
        obs = self.mvee.obs
        if obs.tracer.enabled:
            obs.tracer.instant(
                "lifecycle", "replay_start",
                node=node.index, entries=len(entries),
            )
        node.runtime.start()

    def reach_frontier(self, node) -> None:
        """The replaying replica missed a recorded artifact: it has
        caught up to the live frontier. Re-admit it under a bumped
        ownership epoch and let it vote like everyone else."""
        if not node.rejoining:
            return
        # Every re-admission opens a new ownership epoch, exactly like
        # the quarantine that vacated the slot: in-flight old-epoch
        # frames become rejectable and waiting participants re-collect
        # against the new owner set (which the rejoiner re-enters).
        self.mvee.change_membership(rejoined=node.index)
        self._rejoined(node)

    def on_clean_exit(self, node) -> None:
        """A replacement that replays to its own clean exit never misses
        an artifact, so it never reaches the frontier; its rejoin still
        completed. No epoch opens: the node is leaving."""
        if node.rejoining:
            self._rejoined(node)

    def _rejoined(self, node) -> None:
        mvee = self.mvee
        now = self.sim.now
        info = self._rejoins.get(node.index) or {}
        info["pending"] = False
        self.stats["rejoins_completed"] += 1
        registry = mvee.obs.registry
        if "quarantined_ns" in info:
            rejoin_ns = now - info["quarantined_ns"]
            registry.histogram("lifecycle_rejoin_ns").observe(rejoin_ns)
            self.stats["rejoin_ns_total"] += rejoin_ns
        if "replay_start_ns" in info:
            registry.histogram("lifecycle_replay_lag_ns").observe(
                now - info["replay_start_ns"]
            )
        if mvee.obs.tracer.enabled:
            mvee.obs.tracer.instant(
                "lifecycle", "rejoin", node=node.index, epoch=mvee.epoch,
            )

    # ------------------------------------------------------------------
    # Drift watchdog + auto-scaling
    # ------------------------------------------------------------------
    def _watch_tick(self) -> None:
        if self._halted():
            return
        mvee = self.mvee
        decision = self.watchdog.observe_histograms(
            mvee.obs.registry.histograms
        )
        shards = mvee.shard_cap
        if decision and mvee.dconfig.shard_rendezvous and shards is not None:
            # Clean membership change: HRW remaps ~1/N of new rounds,
            # open rounds stay addressable via their hosting shard, and
            # no epoch bump is needed.
            if decision > 0 and shards < MAX_SHARDS:
                mvee.change_membership(shards=shards + 1)
                self.stats["scale_ups"] += 1
                if mvee.obs.tracer.enabled:
                    mvee.obs.tracer.instant(
                        "lifecycle", "scale_up", shards=shards + 1,
                    )
            elif decision < 0 and shards > MIN_SHARDS:
                mvee.change_membership(shards=shards - 1)
                self.stats["scale_downs"] += 1
                if mvee.obs.tracer.enabled:
                    mvee.obs.tracer.instant(
                        "lifecycle", "scale_down", shards=shards - 1,
                    )
        blame = self.watchdog.observe_rounds(mvee.monitor.missing_votes())
        if blame is not None:
            node = mvee.nodes[blame]
            process = node.process
            if (
                not process.exited
                and not process.quarantined
                and not node.rejoining
            ):
                self.stats["proactive_quarantines"] += 1
                report = DivergenceReport(
                    self.sim.now,
                    0,
                    "",
                    "lifecycle watchdog: node %d holds open rounds "
                    "(drift); proactive quarantine-and-replace" % blame,
                    detected_by="lifecycle-watchdog",
                    kind="stall",
                )
                report.replica = blame
                mvee.replica_fault(process, report)
        self.sim.call_at(
            self.sim.now + WATCH_INTERVAL_NS, self._watch_tick
        )

    # ------------------------------------------------------------------
    # Finalize / attribution
    # ------------------------------------------------------------------
    def export_stats(self, registry) -> None:
        registry.ingest("lifecycle_", self.stats, source="lifecycle")
        registry.expose("lifecycle_window_records", self.window.records)
        registry.expose("lifecycle_window_verdicts", self.window.verdicts)
        registry.expose(
            "lifecycle_window_overflowed", int(self.window.overflowed)
        )
        if self.watchdog is not None:
            registry.ingest(
                "lifecycle_watch_", self.watchdog.stats, source="lifecycle"
            )

    def attribution(self) -> Dict:
        """Postmortem attribution for replayed replicas."""
        return {
            "rejoined_nodes": sorted(
                index for index, info in self._rejoins.items()
                if not info.get("pending")
            ),
            "rejoins_pending": sorted(
                index for index, info in self._rejoins.items()
                if info.get("pending")
            ),
            "replayed_records": self.stats["replayed_records"],
            "replayed_verdicts": self.stats["replayed_verdicts"],
            "window_entries": len(self.window),
        }
