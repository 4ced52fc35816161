"""The distributed MVEE: N single-replica nodes on one simulated switch.

:class:`DistMvee` shares :class:`repro.core.ReMon`'s fault policy and
public surface through :class:`~repro.core.supervisor.Supervisor`
(``run`` → :class:`MveeResult`, ``divergence``/``replica_fault``/
``quarantine`` events, a :class:`~repro.core.supervisor.ReplicaGroup`
the fault injector binds to) but the replicas live on different simulated
machines: each node owns a full kernel and filesystem image, all nodes
share one discrete-event clock and one :class:`Network`, and monitor
traffic rides the batched :class:`~repro.dist.transport.Transport`.

Rendezvous state is held in per-owner :class:`~repro.dist.shard.
MonitorShard` instances living on their owner nodes (the leader alone
without sharding; a rendezvous-hashed owner set under
``DistConfig.shard_rendezvous``), coordinated by :class:`DistMonitor`.
Ownership is versioned by an **epoch** bumped on every quarantine and
re-admission (:meth:`DistMvee.change_membership`, the one place any
membership transition is applied): rendezvous frames carry the epoch they were sent under, stale frames
addressed to a shard that no longer hosts their round are rejected,
and an owner crash triggers an explicit handoff — surviving rounds
that remap are shipped to their new owner (``T_SHARD_HANDOFF``), the
dead shard's open rounds are lost and re-collected from the surviving
participants (``T_ROUND_RESUBMIT``) — all charged through the cost
model so recovery latency is measurable (DESIGN.md §8). A *clean*
exit changes membership without an epoch bump: rounds stay on their
hosting shard and nothing is re-sent, which keeps fault-free stats
byte-identical to the pre-shard monitor.

Routing is cached behind a **membership version**, a host-side counter
(never on the wire) bumped by every transition that can change who
votes or who owns shards. ``participants()``, ``shard_owners()`` and
each round's HRW owner are recomputed only after it moves, so a
rendezvous costs O(1) routing work however many nodes there are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.epoll_map import EpollShadowMap
from repro.core.events import DivergenceReport, MveeResult
from repro.core.handlers import ReplicaView, build_handler_table
from repro.core.policies import Level
from repro.core.remon import ReMonConfig
from repro.core.supervisor import Supervisor
from repro.dist.node import DistInterceptor, Node, NodeFdView
from repro.dist.remote_rb import RBMirror
from repro.dist.selective import (
    CLS_CONTROL,
    CLS_HANDOFF,
    CLS_RENDEZVOUS,
    SelectiveReplication,
    selective_replication,
)
from repro.dist.shard import (
    MonitorShard,
    RendezvousState,
    shard_owner,
)
from repro.dist.transport import CODECS, Transport
from repro.dist.wire import (
    Frame,
    T_CALL_DIGEST,
    T_LIFECYCLE_GOSSIP,
    T_LIFECYCLE_STATE,
    T_RENDEZVOUS_OK,
    T_RENDEZVOUS_REQ,
    T_ROUND_RESUBMIT,
    T_SHARD_HANDOFF,
    T_SYSCALL_RESULT,
    handoff_payload,
    owners_payload,
    parse_digest_payload,
)
from repro.diversity.aslr import make_layouts
from repro.diversity.profile import export_profile_stats, make_node_profiles
from repro.errors import MonitorError
from repro.guest.program import Program
from repro.guest.runtime import GuestRuntime
from repro.kernel import errno_codes as E
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.sockets import Network
from repro.kernel.waitq import WaitQueue, wait_interruptible
from repro.sim import Simulator

__all__ = [
    "DistConfig",
    "DistMonitor",
    "DistMvee",
    "run_distributed",
    "shard_owner",  # re-exported from repro.dist.shard (HRW routing)
]


#: Every inter-node link's bandwidth (``Network`` defaults to unlimited).
LINK_BANDWIDTH_BPS = 1e9

#: Scheduler cores per node kernel (``KernelConfig`` defaults to 16).
NODE_CORES = 8

#: Margin past one link latency at which a delivery's effect runs
#: (see :meth:`DistMvee.deliver`).
RELEASE_SLACK_NS = 2_000

#: Frame types that are only bytes on arrival: the bytes of a scheduled
#: delivery, whose effect runs at the delivery instant, or of an epoch
#: announcement, whose epoch is already cluster-wide state.
DELIVERED_FRAMES = frozenset({
    T_RENDEZVOUS_OK, T_SYSCALL_RESULT, T_SHARD_HANDOFF, T_LIFECYCLE_STATE,
})


@dataclass
class DistConfig:
    """Distributed-execution knobs, attached to ``ReMonConfig.dist``.

    The cluster runs one node per ``ReMonConfig.replicas`` and takes its
    observability settings from ``ReMonConfig.obs``."""

    #: One-way latency / jitter of every inter-node link.
    link_latency_ns: int = 100_000
    link_jitter_ns: int = 0
    #: Transport coalescing: flush a channel at this many pending bytes
    #: (or when its flush timer fires).
    batch_bytes: int = 4096
    #: Which unmonitored calls the leader executes and ships. An
    #: ``external`` policy (:func:`repro.dist.selective.fleet_replication`)
    #: runs the cluster in external-service mode (repro.fleet): clients
    #: live outside the cluster and reach the leader's node only, so
    #: accept() executes leader-only with followers adopting the fd,
    #: and readiness calls are replicated — see
    #: :data:`repro.dist.selective.EXTERNAL_LEADER_CALLS`. That mode
    #: needs Level.SOCKET_RW or looser: at stricter levels recv/send
    #: would rendezvous and execute on follower phantom fds.
    replication: SelectiveReplication = field(
        default_factory=selective_replication
    )
    #: A node waiting longer than this on a peer declares it stalled.
    stall_timeout_ns: int = 400_000_000
    #: Fast path (off by default). ``shard_rendezvous`` spreads rendezvous
    #: rounds across nodes by (vtid, seq) hash instead of serializing them
    #: all through the leader's monitor; ``rendezvous_shards`` caps how
    #: many nodes own shards (None = every live node).
    shard_rendezvous: bool = False
    rendezvous_shards: Optional[int] = None
    #: RB mirror payload codec: None (raw), "rle", or "dict" (RLE plus a
    #: per-channel dictionary over repeated reads). See repro.dist.codec.
    compress: Optional[str] = None
    #: Packet loss on every inter-node link (per-link values go through
    #: ``Network.set_link`` / ``LinkDegradeFault``). A lossy network, or
    #: a planned ``LinkDegradeFault``, enables the reliable transport.
    link_loss_prob: float = 0.0
    #: Heterogeneous per-node diversity (DESIGN.md §13, DMON-style).
    #: Every node gets its own :class:`repro.diversity.NodeProfile`:
    #: a private DCL arena, a one-way-mixed ASLR seed stream, and a
    #: divergent guest ABI. Cross-node digests then hash the canonical
    #: serialization (``repro.core.canonical``) instead of raw node
    #: bytes, and the canonicalization rewrite is billed on the
    #: rendezvous hot path. False (the default) keeps the single
    #: homogeneous layout family and is bit-identical to the
    #: pre-profile design.
    heterogeneous: bool = False
    #: Elastic lifecycle (repro.lifecycle.LifecycleConfig, or None):
    #: gossip membership + heartbeats, replay-based re-admission of
    #: quarantined slots, and the drift-watchdog auto-scaler. Typed as
    #: object to keep repro.lifecycle out of the dist import graph;
    #: None (the default) builds no manager at all, so lifecycle-free
    #: runs stay bit-identical — zero new frames, zero new stats.
    lifecycle: Optional[object] = None


class DistMonitor:
    """Rendezvous monitor: lockstep rounds + lazy async checks.

    State is keyed by (vtid, per-thread sequence number); sequence
    counters advance identically on every node because replicas run the
    same program and thread creation is lockstepped, so a key names
    "the same call" cluster-wide. Completed rendezvous states are
    retained (a leader re-reads its verdict after waking) and reference
    digests are kept for the run's lifetime — runs are short and the
    memory is bounded by total syscall count. References, one per
    monitored call, sit in per-thread lanes ``vtid -> {seq: ...}``;
    ``_home`` and the shards' round maps hold only rendezvous rounds
    and stay flat on ``(vtid, seq)``, because their insertion order
    orders ``open_rounds()`` and so the handoff frames.

    Round state lives in per-owner :class:`MonitorShard` instances on
    the owner nodes; this object is the cluster-side coordinator: it
    routes submissions to the hosting shard (``_home`` tracks where each
    round physically lives — routing can move on membership change, the
    state itself only moves through an explicit handoff), runs the
    handoff protocol after a quarantine, and hosts the async digest
    lane, which stays leader-side: it is off every thread's critical
    path, so spreading it buys nothing.

    Each shard is a serial resource: rounds it owns are serviced one at
    a time, each costing ``dist_monitor_round_ns``. With a single owner,
    many-threaded lockstep load queues behind one timeline — the
    serialization sharding exists to break up.
    """

    def __init__(self, mvee: "DistMvee"):
        self.mvee = mvee
        #: The leader's ``(name, digest)`` per round, in per-thread lanes
        #: ``vtid -> {seq: ...}`` like the RB mirror: one entry per
        #: monitored call, kept for the run, so no key tuple per round.
        self.references: Dict[int, Dict[int, Tuple[str, int]]] = {}
        #: Follower digests that arrived before the leader's reference.
        #: Flat: it is empty in fault-free runs.
        self.pending_checks: Dict[Tuple[int, int], List[Tuple[int, str, int]]] = {}
        #: Which owner's shard currently *hosts* each round's state.
        self._home: Dict[Tuple[int, int], int] = {}
        self._shards: Dict[int, MonitorShard] = {}
        #: Owners in first-service order (stable rounds_by_owner view).
        self._service_order: List[int] = []
        #: Last scheduled release instant. Shard timelines are
        #: independent, so two rounds can complete at the same
        #: nanosecond; their releases must still land in one global
        #: order — owners wait on round state while followers wait on
        #: mirrors, so same-instant releases wake threads in
        #: node-dependent order and shared-namespace allocation (fd
        #: numbers) desynchronizes. Serializing release instants keeps
        #: delivery uniform; collision-free runs are untouched.
        self._release_clock = 0
        self.stats = {
            "async_checks": 0,
            "async_mismatches": 0,
            "rendezvous_completed": 0,
            "monitor_wait_ns": 0,
        }
        #: Recovery-path counters, kept out of ``stats`` so fault-free
        #: runs render a stats view byte-identical to the pre-shard
        #: monitor; finalize folds them in only once the epoch moved.
        self.handoff_stats = {
            "handoff_rounds": 0,
            "handoff_lost_rounds": 0,
            "round_resubmits": 0,
            "stale_epoch_rejects": 0,
            "handoff_cost_ns": 0,
        }
        #: Round keys evicted with a dead shard / re-collected after,
        #: for postmortems and the blast-radius assertions in tests.
        self.lost_keys: set = set()
        self.resubmitted_keys: set = set()
        self._handoff_span = None
        self._pending_adoptions = 0

    # -- shard plumbing ----------------------------------------------------
    def shard(self, owner: int) -> MonitorShard:
        """The owner's shard, created on first use (the state physically
        lives on the owner node)."""
        shard = self._shards.get(owner)
        if shard is None:
            shard = self._shards[owner] = MonitorShard(owner)
        return shard

    @property
    def rounds_by_owner(self) -> Dict[int, int]:
        """Per-owner serviced-round counts, in first-service order."""
        return {
            owner: self._shards[owner].rounds for owner in self._service_order
        }

    def host_of(self, vtid: int, seq: int) -> Optional[int]:
        """The owner whose shard currently hosts this round, if any."""
        return self._home.get((vtid, seq))

    # -- async digest lane -------------------------------------------------
    def record_reference(self, vtid: int, seq: int, name: str, digest: int) -> None:
        lane = self.references.get(vtid)
        if lane is None:
            lane = self.references[vtid] = {}
        lane[seq] = (name, digest)
        if self.pending_checks:
            for sender, fname, fdigest in self.pending_checks.pop((vtid, seq), ()):
                self._check(sender, vtid, seq, fname, fdigest)

    def check_digest(self, sender: int, vtid: int, seq: int, name: str,
                     digest: int) -> None:
        lane = self.references.get(vtid)
        if lane is None or seq not in lane:
            # The follower ran ahead of the leader on this call — park
            # the digest until the leader records its own (§4 run-ahead).
            self.pending_checks.setdefault((vtid, seq), []).append(
                (sender, name, digest)
            )
            return
        self._check(sender, vtid, seq, name, digest)

    def _check(self, sender: int, vtid: int, seq: int, name: str,
               digest: int) -> None:
        self.stats["async_checks"] += 1
        ref_name, ref_digest = self.references[vtid][seq]
        if name == ref_name and digest == ref_digest:
            return
        self.stats["async_mismatches"] += 1
        self.mvee.divergence(
            DivergenceReport(
                self.mvee.sim.now,
                vtid,
                name,
                "async digest from node %d differs from leader's %s"
                % (sender, ref_name),
                detected_by="dist-async",
            )
        )

    # -- rendezvous lane ---------------------------------------------------
    def state_for(self, vtid: int, seq: int) -> Optional[RendezvousState]:
        host = self._home.get((vtid, seq))
        if host is None:
            return None
        return self._shards[host].rendezvous.get((vtid, seq))

    def submit(self, sender: int, vtid: int, seq: int, name: str,
               digest: int, resubmit: bool = False) -> RendezvousState:
        key = (vtid, seq)
        host = self._home.get(key)
        if host is None or self._shards[host].dead:
            # First submission for this round (or its old host died and
            # evicted it): the current owner's shard hosts it. Routing
            # may later drift on *clean* membership changes without the
            # state moving — the home map keeps it addressable.
            host = self.mvee.shard_owner(vtid, seq)
            self._home[key] = host
        shard = self.shard(host)
        state = shard.rendezvous.get(key)
        if state is None:
            state = shard.rendezvous[key] = RendezvousState()
            if resubmit:
                # Rebuilding a round lost with its shard: the new owner
                # pays the per-round recovery work on its timeline.
                self._charge_handoff(shard)
        if resubmit:
            self.handoff_stats["round_resubmits"] += 1
            self.resubmitted_keys.add(key)
        state.digests.setdefault(sender, (name, digest))
        self.try_complete(vtid, seq)
        return state

    def try_complete(self, vtid: int, seq: int) -> None:
        """If every participant has voted, queue the round on its owning
        node's serial monitor timeline; the verdict lands (and is
        broadcast by the owner) when the owner's queue drains."""
        state = self.state_for(vtid, seq)
        if state is None or state.verdict is not None or state.completing:
            return
        participants = self.mvee.participants()
        if not participants:
            return
        if any(p not in state.digests for p in participants):
            return
        state.completing = True
        sim = self.mvee.sim
        owner = self.mvee.shard_owner(vtid, seq)
        shard = self.shard(owner)
        start = max(sim.now, shard.busy_until)
        done = start + self.mvee.costs.dist_monitor_round_ns
        shard.busy_until = done
        self.stats["monitor_wait_ns"] += start - sim.now
        obs = self.mvee.obs
        if obs is not None:
            obs.registry.histogram("dist_monitor_wait_ns").observe(
                start - sim.now
            )
        if shard.rounds == 0:
            self._service_order.append(owner)
        shard.rounds += 1
        sim.call_at(done, self._complete, vtid, seq)

    def _complete(self, vtid: int, seq: int) -> None:
        """The owner's monitor finished servicing the round: vote over
        the *current* participants (membership may have changed while
        queued) and deliver the release (:meth:`_release`), strictly
        after the previous one."""
        state = self.state_for(vtid, seq)
        if state is None or state.verdict is not None:
            return
        if self.mvee.shutting_down:
            state.completing = False
            return
        participants = self.mvee.participants()
        if not participants or any(p not in state.digests for p in participants):
            # A participant joined or ownership moved while queued;
            # the round re-enters the queue when its digest arrives.
            state.completing = False
            return
        votes = {state.digests[p] for p in participants}
        verdict = 1 if len(votes) == 1 else 0
        # The canonical digest the round agreed on (DESIGN.md §13): on
        # agreement every vote is the same (name, digest) pair. Carried
        # through the release into each mirror (and the lifecycle
        # window), so a replayed re-admission can verify its own
        # canonical bytes against what the cluster actually decided.
        agreed = next(iter(votes))[1] if verdict == 1 else 0
        owner = self.mvee.shard_owner(vtid, seq)
        self._release_clock = self.mvee.deliver(
            [
                (owner, peer,
                 Frame(T_RENDEZVOUS_OK, owner, vtid, seq, aux=verdict),
                 CLS_RENDEZVOUS, True)
                for peer in participants if peer != owner
            ],
            self._release, vtid, seq, verdict, owner, agreed,
            not_before=self._release_clock + 1,
        )

    def _release(
        self, vtid: int, seq: int, verdict: int, owner: int, digest: int = 0
    ) -> None:
        """The verdict becomes visible: record it, report a divergence on
        mismatch, and land it in every node's mirror."""
        state = self.state_for(vtid, seq)
        if state is None or state.verdict is not None:
            return
        state.completing = False
        if self.mvee.shutting_down:
            return
        state.verdict = verdict
        state.owner = owner
        self.stats["rendezvous_completed"] += 1
        if verdict == 0:
            names = sorted({v[0] for v in state.digests.values()})
            self.mvee.divergence(
                DivergenceReport(
                    self.mvee.sim.now,
                    vtid,
                    names[0],
                    "lockstep digest mismatch across nodes (%s)"
                    % ", ".join(names),
                    detected_by="dist-lockstep",
                )
            )
        sim = self.mvee.sim
        for node in self.mvee.nodes:
            node.mirror.release(vtid, seq, verdict, sim, digest=digest)
        if self.mvee.lifecycle is not None:
            self.mvee.lifecycle.record_release(vtid, seq, verdict, digest)
        state.waitq.notify_all(sim)

    def on_membership_change(self) -> None:
        """Membership moved: re-try every open round — the quorum may
        now be satisfiable without the lost node, and service ownership
        re-routes to the surviving owner set."""
        for shard in list(self._shards.values()):
            for (vtid, seq), state in list(shard.rendezvous.items()):
                if state.verdict is None and not state.completing:
                    self.try_complete(vtid, seq)

    def missing_votes(self) -> Dict[Tuple[int, int], Tuple[int, ...]]:
        """Each open round on a live shard that lacks votes, with the
        participants it lacks."""
        participants = self.mvee.participants()
        gaps = {}
        for shard in self._shards.values():
            if shard.dead:
                continue
            for key, state in shard.open_rounds():
                missing = tuple(
                    p for p in participants if p not in state.digests
                )
                if missing:
                    gaps[key] = missing
        return gaps

    def revive(self, owner: int) -> None:
        """Replace a re-admitted owner's dead shard with a live one that
        keeps its serviced-round count."""
        dead = self._shards.get(owner)
        if dead is not None and dead.dead:
            fresh = MonitorShard(owner)
            fresh.rounds = dead.rounds
            self._shards[owner] = fresh

    # -- epoch handoff -----------------------------------------------------
    def _charge_handoff(self, shard: MonitorShard) -> None:
        """One round's recovery work on the adopting shard's timeline."""
        cost = self.mvee.costs.dist_handoff_ns
        shard.busy_until = max(shard.busy_until, self.mvee.sim.now) + cost
        self.handoff_stats["handoff_cost_ns"] += cost

    def begin_handoff(self, dead_index: int, owners: Tuple[int, ...]) -> None:
        """Hand ``dead_index``'s rounds over to ``owners``, the owner set
        of the epoch :meth:`DistMvee.change_membership` just opened and
        announced. Both steps are billed: the dead shard's open rounds
        are evicted (their state died with the owner — waiting
        participants re-collect them via ``T_ROUND_RESUBMIT`` when they
        observe the epoch change), and surviving hosted rounds whose
        routing remapped are shipped to their new owner as
        ``T_SHARD_HANDOFF`` state transfers and adopted at their
        delivery (:meth:`_adopt_transfers`).
        """
        mvee = self.mvee
        sim = mvee.sim
        epoch = mvee.epoch
        if mvee.obs.tracer.enabled and self._handoff_span is None:
            self._handoff_span = mvee.obs.tracer.begin(
                "dist", "handoff", epoch=epoch, dead=dead_index,
            )
        lost = 0
        dead = self._shards.get(dead_index)
        if dead is not None and not dead.dead:
            dead.dead = True
            for key, state in dead.open_rounds():
                del dead.rendezvous[key]
                self._home.pop(key, None)
                self.lost_keys.add(key)
                lost += 1
                # Wake any owner-side waiter parked on the dead state so
                # it re-reads membership and resubmits.
                state.waitq.notify_all(sim)
        self.handoff_stats["handoff_lost_rounds"] += lost
        transfers = []
        for host, shard in list(self._shards.items()):
            if shard.dead:
                continue
            for key, state in shard.open_rounds():
                if state.completing:
                    # Verdict already queued on the old service timeline;
                    # it completes there (the broadcast re-reads the
                    # fresh owner), like a response already in flight.
                    continue
                new_owner = shard_owner(key[0], key[1], owners)
                if new_owner != host:
                    transfers.append((host, new_owner, key, state))
        self.handoff_stats["handoff_rounds"] += len(transfers)
        if transfers:
            self._pending_adoptions += len(transfers)
            mvee.deliver(
                [
                    (host, new_owner,
                     Frame(T_SHARD_HANDOFF, host, key[0], key[1], aux=epoch,
                           payload=handoff_payload(state.digests)),
                     CLS_HANDOFF, True)
                    for host, new_owner, key, state in transfers
                ],
                self._adopt_transfers, transfers,
            )
        if self._pending_adoptions == 0:
            self._finish_handoff_span(lost)

    def _adopt_transfers(self, transfers) -> None:
        """The delivery of shipped round state: move each round
        to its new owner's shard, charge the adoption work, and retry
        completion under the new membership."""
        mvee = self.mvee
        sim = mvee.sim
        cost = mvee.costs.dist_handoff_ns
        hist = mvee.obs.registry.histogram("dist_handoff_ns")
        for host, new_owner, key, state in transfers:
            self._pending_adoptions -= 1
            source = self._shards.get(host)
            if (
                source is None
                or source.rendezvous.get(key) is not state
                or state.verdict is not None
            ):
                continue
            del source.rendezvous[key]
            shard = self.shard(new_owner)
            shard.rendezvous[key] = state
            self._home[key] = new_owner
            self._charge_handoff(shard)
            hist.observe(sim.now - mvee.last_epoch_bump_ns + cost)
            self.try_complete(*key)
            state.waitq.notify_all(sim)
        if self._pending_adoptions == 0:
            self._finish_handoff_span()

    def _finish_handoff_span(self, lost: Optional[int] = None) -> None:
        span = self._handoff_span
        if span is not None:
            self._handoff_span = None
            span.finish(
                handoff_rounds=self.handoff_stats["handoff_rounds"],
                lost_rounds=(
                    lost if lost is not None
                    else self.handoff_stats["handoff_lost_rounds"]
                ),
            )

    def export_stats(self, registry) -> None:
        """Publish the monitor's counters and rounds by owner. Recovery
        accounting (the handoff family, ``dist_epoch`` and the epoch
        gate's stale drops) exists only once a membership change moved
        the epoch: a fault-free run's stats stay byte-identical to the
        pre-shard monitor."""
        registry.ingest("dist_", self.stats, source="monitor")
        by_owner = self.rounds_by_owner
        # Owners that actually serviced rounds (shard_owners() shrinks to
        # the leader once every node has exited cleanly, so it is not a
        # faithful after-the-fact count).
        registry.expose("dist_shards", len(by_owner) or 1)
        for owner, count in sorted(by_owner.items()):
            registry.expose("dist_rounds_owner_%d" % owner, count)
        registry.expose("dist_rounds_owner_max", max(by_owner.values(), default=0))
        epoch = self.mvee.epoch
        if epoch:
            registry.expose("dist_epoch", epoch)
            for key in sorted(self.handoff_stats):
                registry.expose("dist_" + key, self.handoff_stats[key])
            registry.expose(
                "dist_stale_drops", self.mvee.transport.stats["stale_drops"]
            )


class DistMvee(Supervisor):
    """An MVEE whose replicas run on separate simulated nodes.

    Typical use::

        mvee = DistMvee(program, ReMonConfig(replicas=3, dist=DistConfig()))
        result = mvee.run(max_steps=...)
    """

    def __init__(self, program: Program, config: Optional[ReMonConfig] = None):
        config = config or ReMonConfig(dist=DistConfig())
        dconfig = config.dist
        if dconfig is None:
            dconfig = DistConfig()
        if not isinstance(dconfig, DistConfig):
            raise MonitorError(
                "ReMonConfig.dist must be a DistConfig, got %r" % (dconfig,)
            )
        if dconfig.compress is not None and dconfig.compress not in CODECS:
            raise MonitorError(
                "DistConfig.compress must be None or one of %r, got %r"
                % (CODECS, dconfig.compress)
            )
        self.n = config.replicas
        if self.n < 1:
            raise MonitorError("a distributed MVEE needs at least one node")
        super().__init__(config, Simulator(cores=NODE_CORES * self.n))
        self.program = program
        self.dconfig = dconfig
        self.solo = self.n == 1
        self.policy = self.config.policy()
        self.replication = dconfig.replication
        self.external = self.replication.external
        if self.external and self.policy.level < Level.SOCKET_RW:
            raise MonitorError(
                "external replication needs Level.SOCKET_RW or looser: "
                "monitored socket data calls would rendezvous and "
                "execute on follower phantom descriptors"
            )
        self.handlers = build_handler_table(self.policy.unmonitored_set())
        self.epoll_map = EpollShadowMap(self.n)
        self.stats = {
            "local_calls": 0,
            "replicated_calls": 0,
            "adopted_results": 0,
            "rendezvous_calls": 0,
            "round_trips": 0,
            "promoted_executions": 0,
            "backoff_retries": 0,
            "stall_reports": 0,
            "failover_rebroadcasts": 0,
            "control_frames": 0,
        }
        #: victim index -> set of (src, dst) links currently open against
        #: it; the victim is restored only when the set drains.
        self._down_links: Dict[int, set] = {}
        self.network = Network(
            latency_ns=dconfig.link_latency_ns,
            bandwidth_bps=LINK_BANDWIDTH_BPS,
            jitter_ns=dconfig.link_jitter_ns,
            jitter_seed=self.config.seed or 0x5EED,
            loss_prob=dconfig.link_loss_prob,
            fault_seed=(self.config.seed or 0) ^ 0xFA17,
        )
        self.nodes: List[Node] = []
        self.monitor = DistMonitor(self)
        #: Set by :meth:`attach_faults`; :meth:`image` hands it on.
        self.fault_injector = None
        #: Ownership epoch: bumped when a node leaves (quarantine) or
        #: rejoins (never on a clean exit), carried in rendezvous frames,
        #: and the trigger for the shard handoff protocol. 0 for a run's
        #: whole fault-free life.
        self.epoch = 0
        self.last_epoch_bump_ns = 0
        #: The live shard-owner cap: the autoscaler moves this, never
        #: the caller's ``DistConfig.rendezvous_shards``.
        self.shard_cap = dconfig.rendezvous_shards
        #: Membership version: bumped by every transition that can move
        #: participants() or shard_owners() (:meth:`change_membership`,
        #: promotion, a re-image, process termination). The views below
        #: are rebuilt only when it has moved.
        self.membership_version = 0
        self._members_at = -1
        self._participants: Tuple[int, ...] = ()
        self._owners: Tuple[int, ...] = ()
        #: vtid -> (seq, owner): the HRW owner of each thread's current
        #: round under this version. A thread has at most one open
        #: round cluster-wide, so one slot per thread covers every open
        #: round; the thread's next round replaces it.
        self._route: Dict[int, Tuple[int, int]] = {}
        self._parkq = WaitQueue("dist-park")
        self._started = False
        self._build()
        #: Elastic lifecycle manager, or None. Constructed after the
        #: nodes exist; imported lazily so repro.dist never depends on
        #: repro.lifecycle at module level.
        self.lifecycle = None
        lconfig = dconfig.lifecycle
        if lconfig is not None and not self.solo:
            from repro.lifecycle.manager import LifecycleManager

            self.lifecycle = LifecycleManager(self, lconfig)

    # ------------------------------------------------------------------
    @property
    def leader_index(self) -> int:
        return self.group.master_index

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        dconfig = self.dconfig
        profiles = make_node_profiles(
            self.n,
            cluster_seed=self.config.seed,
            heterogeneous=dconfig.heterogeneous,
        )
        if dconfig.heterogeneous:
            # One layout per node, each drawn from that node's own seed
            # stream inside its own DCL arena (disjoint across nodes).
            layouts = [
                profile.make_layout(aslr=self.config.aslr, dcl=self.config.dcl)
                for profile in profiles
            ]
        else:
            # The historical single-family draw, byte-identical RNG
            # stream and all — the homogeneous bit-identity gate depends
            # on this path not changing.
            layouts = make_layouts(
                self.n, seed=self.config.seed,
                aslr=self.config.aslr, dcl=self.config.dcl,
            )
        for index, layout in enumerate(layouts):
            node = Node(index, layout, profiles[index])
            self.nodes.append(node)
            self.image(node, "%s.n%d" % (self.program.name, index))
        self.costs = self.nodes[0].kernel.config.costs
        self.transport = Transport(
            self.sim,
            self.network,
            [(node.host_ip, 0) for node in self.nodes],
            self.costs,
            batch_bytes=dconfig.batch_bytes,
            codec=dconfig.compress,
        )
        self.transport.obs = self.obs
        self.transport.dispatch = self._dispatch
        self.transport.stale_filter = self._stale_frame
        self.transport.on_link_down = self._on_link_down
        self.transport.on_link_up = self._on_link_up

    def image(self, node: Node, name: str) -> None:
        """(Re-)image ``node``'s slot with process ``name``: a fresh
        kernel on the shared clock and switch, with the program's files
        and the fault injector, plus the slot's interceptor, runtime and
        exit listener. A re-image (repro.lifecycle) also swaps the
        group's process in place, gives the node an empty mirror that
        logs arrival order, marks it rejoining, and drops the dead
        kernel's listeners, which would shadow the replacement's binds
        with EADDRINUSE."""
        kernel = Kernel(
            sim=self.sim,
            config=KernelConfig(cores=NODE_CORES),
            network=self.network,
        )
        kernel.attach_obs(self.obs)
        self.program.install_files(kernel)
        # Synchronous: an exited process leaves the cached views at the
        # instant ``exited`` flips, before any exit_event listener runs.
        kernel.on_terminate = self.bump_membership
        kernel.fault_injector = self.fault_injector
        process = kernel.create_process(
            name,
            mmap_base=node.layout.mmap_base,
            brk_base=node.layout.brk_base,
            host_ip="10.1.%d.1" % node.index,
        )
        # Nodes do not share caches or DRAM: no cross-replica memory
        # pressure — one of distribution's selling points.
        process.compute_factor = 1.0
        old = node.process
        if old is None:
            self.group.add(process)
        else:
            self.network.drop_listeners(old.kernel)
            self.group.processes[node.index] = process
            process.replica_index = node.index
            node.mirror = RBMirror(node.index, ordered=True)
            node.link_degraded = False
            node.rejoining = True
            # The slot's process changed under the cached views. No
            # round is retried: the replacement votes only once its
            # replay reaches the live frontier (change_membership then).
            self.bump_membership()
        node.kernel = kernel
        node.process = process
        node.view = ReplicaView(
            process.space, self.epoll_map, node.index, self.policy, NodeFdView(process)
        )
        node.interceptor = DistInterceptor(self, node)
        kernel.syscall_hooks.append(node.interceptor)
        node.runtime = GuestRuntime(kernel, process, self.program, layout=node.layout)
        process.exit_event.add_listener(
            lambda code, n=node: self._on_node_exit(n, code)
        )

    def attach_faults(self, injector) -> object:
        """Install a :class:`repro.faults.FaultInjector` cluster-wide:
        timed faults are scheduled on the shared clock; each node's
        kernel consults the injector at its own syscall dispatch."""
        self.fault_injector = injector
        injector.install(self.nodes[0].kernel)
        for node in self.nodes:
            node.kernel.fault_injector = injector
        injector.bind_mvee(self)
        return injector

    def degrade_link(self, fault) -> bool:
        """Apply a ``LinkDegradeFault`` to its directed inter-node link
        and schedule the restore; False when either end is no node."""
        if not (0 <= fault.src < self.n and 0 <= fault.dst < self.n):
            return False
        src_ip = self.nodes[fault.src].host_ip
        dst_ip = self.nodes[fault.dst].host_ip
        snapshot = self.network.set_link_directed(
            src_ip, dst_ip,
            latency_ns=fault.latency_ns,
            loss_prob=fault.loss_prob or None,
            dup_prob=fault.dup_prob or None,
            reorder_prob=fault.reorder_prob or None,
        )
        self.sim.call_at(
            self.sim.now + fault.duration_ns,
            self.network.replace_link_directed, src_ip, dst_ip, snapshot,
        )
        return True

    def grant_rejoin(self, index: int) -> None:
        if self.lifecycle is not None:
            self.lifecycle.force_rejoin(index)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def bump_membership(self, _process=None) -> None:
        """Invalidate the cached membership views (see
        ``membership_version``) without retrying any round. Also the
        kernels' ``on_terminate``."""
        self.membership_version += 1

    def change_membership(self, dead: Optional[int] = None,
                          rejoined: Optional[int] = None,
                          shards: Optional[int] = None) -> None:
        """The one membership transition. It invalidates the cached
        views; when a node is quarantined (``dead``) or re-admitted
        (``rejoined``) it opens a new epoch, which the leader announces
        with the new owner set, and hands the dead shard off or revives
        the rejoiner's; then it re-tries every open round. ``shards``
        moves the live shard cap."""
        if shards is not None:
            self.shard_cap = shards
        if rejoined is not None:
            self.nodes[rejoined].rejoining = False
        self.bump_membership()
        if dead is not None or rejoined is not None:
            self.epoch += 1
            self.last_epoch_bump_ns = self.sim.now
            if rejoined is not None and self.dconfig.shard_rendezvous:
                self.monitor.revive(rejoined)
            owners = self.shard_owners()
            leader = self.leader_index
            announce = Frame(
                T_SHARD_HANDOFF, leader, 0, 0, aux=self.epoch,
                payload=owners_payload(owners),
            )
            for peer in self.live_peers(leader):
                self.send_frame(
                    leader, peer.replica_index, announce, cls=CLS_HANDOFF,
                    urgent=True,
                )
            if dead is not None:
                self.monitor.begin_handoff(dead, owners)
        self.monitor.on_membership_change()

    def _refresh_membership(self) -> None:
        self._members_at = self.membership_version
        self._participants = live = self._compute_participants()
        cap = self.shard_cap
        if not self.dconfig.shard_rendezvous or not live:
            self._owners = (self.leader_index,)
        else:
            self._owners = live if cap is None else live[:max(1, cap)]
        self._route.clear()

    def participants(self) -> Tuple[int, ...]:
        """Nodes a rendezvous must hear from: everyone not quarantined
        and not *cleanly* exited. A crashed-but-undetected node still
        counts — its silence is what stalls the round until the crash
        detector quarantines it (the honest failure dynamics)."""
        if self._members_at != self.membership_version:
            self._refresh_membership()
        return self._participants

    def _compute_participants(self) -> Tuple[int, ...]:
        out = []
        for node in self.nodes:
            process = node.process
            if process.quarantined:
                continue
            if process.exited and (process.exit_code or 0) < 128:
                continue
            if node.rejoining:
                # A replacement replica fast-replaying the recorded
                # window adopts verdicts; its vote gates nothing until
                # it reaches the live frontier and is re-admitted.
                continue
            if node.link_degraded:
                # Soft degradation: the node still runs and adopts the
                # leader's replicated results/verdicts (those land via
                # scheduled delivery, not per-frame dispatch), but its
                # vote no longer gates rendezvous — leader-replicated-
                # only mode until the breaker's probe restores the link.
                continue
            out.append(node.index)
        return tuple(out)

    def live_peers(self, exclude: int) -> List:
        """The live processes of every node but ``exclude``; a peer's
        ``replica_index`` is its node index."""
        return self.group.survivors(exclude=self.group.processes[exclude])

    def shard_owners(self) -> Tuple[int, ...]:
        """The nodes currently eligible to own rendezvous rounds.

        Without sharding this is the leader alone (PR-2 semantics: one
        logical monitor serializes every round). With sharding it is
        every live participant, optionally capped at
        ``rendezvous_shards`` owners (lowest indices first, so the
        owner set is identical on every node)."""
        if self._members_at != self.membership_version:
            self._refresh_membership()
        return self._owners

    def shard_owner(self, vtid: int, seq: int) -> int:
        """The HRW owner of round ``(vtid, seq)`` under the current
        membership, memoized per thread until the version moves."""
        if self._members_at != self.membership_version:
            self._refresh_membership()
        slot = self._route.get(vtid)
        if slot is not None and slot[0] == seq:
            return slot[1]
        owner = shard_owner(vtid, seq, self._owners)
        self._route[vtid] = (seq, owner)
        return owner

    def missing_participant(self, vtid: int, seq: int,
                            reporter: int) -> Optional[int]:
        """Whom to blame for a stalled rendezvous: the first participant
        whose digest is missing. None means nobody is actually missing —
        the round is completing and the release is merely in flight, so
        the watchdog must not punish an innocent node."""
        state = self.monitor.state_for(vtid, seq)
        owner = self.shard_owner(vtid, seq)
        if state is not None:
            for index in self.participants():
                if index != reporter and index not in state.digests:
                    return index
            return None
        if owner != reporter:
            return owner
        others = [p for p in self.participants() if p != reporter]
        return others[0] if others else None

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def send_frame(self, src: int, dst: int, frame: Frame, cls: str,
                   urgent: bool = False) -> None:
        if src == dst:
            return
        self.transport.send(src, dst, frame, cls=cls, urgent=urgent)

    def deliver(self, sends, effect, *args, not_before: int = 0) -> int:
        """Scheduled delivery, the one path for a cross-node effect.

        Queue ``sends`` — ``(src, dst, frame, cls, urgent)`` tuples, in
        order — on the transport, and run ``effect(*args)`` once, at one
        instant: one link latency plus ``RELEASE_SLACK_NS`` from now, or
        ``not_before`` if that is later. Returns the instant.

        The frames model the physical transfer; the effect does not run
        on their arrival. Batching and urgent flushes stagger arrivals,
        and a sender's own effect would otherwise land at send time, so
        arrival order would wake threads in a node-dependent order and
        desynchronize shared-namespace allocation (fd numbers, memory
        races) across nodes. One instant per delivery keeps every
        node's wake order the same, whichever node broadcasts. The slack
        covers batch serialization and jitter, so the frames are on
        every node by then (an urgent batch is tens of bytes; a frame
        that lands late only means the effect ran a hair early).

        The effects are a round's release (:meth:`DistMonitor._release`),
        a handoff's adoption (:meth:`DistMonitor._adopt_transfers`),
        replicated records landing in the peers' mirrors
        (:meth:`land_records`, for the leader's publish and a promoted
        leader's rebroadcast) and a rejoiner's boot from its replay
        window (``LifecycleManager._boot_replacement``)."""
        for src, dst, frame, cls, urgent in sends:
            self.send_frame(src, dst, frame, cls, urgent)
        when = self.sim.now + self.dconfig.link_latency_ns + RELEASE_SLACK_NS
        if when < not_before:
            when = not_before
        self.sim.call_at(when, effect, *args)
        return when

    def land_records(self, src: int, records) -> None:
        """Land replicated ``((vtid, seq), record)`` pairs in the mirror
        of every live peer of ``src``, read at the delivery instant
        (duplicates drop idempotently)."""
        sim = self.sim
        for (vtid, seq), record in records:
            for peer in self.live_peers(src):
                self.nodes[peer.replica_index].mirror.put(vtid, seq, record, sim)

    def _stale_frame(self, dst: int, frame: Frame) -> bool:
        """Epoch gate, checked by the transport before dispatch.

        True drops the frame: it was sent under an older epoch and the
        handoff has since moved (or killed) the shard it addressed, so
        merging it into a fresh shard's state would smuggle pre-handoff
        votes past the re-collection protocol. The sender re-submits
        when it observes the epoch change, so nothing is lost. Frames
        whose target still hosts the round pass: digests are
        epoch-independent content, and a same-owner frame raced only by
        the bump itself is exactly a valid resubmission.
        """
        if frame.type not in (
            T_CALL_DIGEST, T_RENDEZVOUS_REQ, T_ROUND_RESUBMIT
        ):
            return False
        if self.nodes[frame.sender].process.quarantined:
            # A dead node's in-flight digest must never count as a vote.
            self.monitor.handoff_stats["stale_epoch_rejects"] += 1
            return True
        if frame.type == T_CALL_DIGEST or frame.aux >= self.epoch:
            return False
        if dst != self.shard_owner(frame.vtid, frame.seq) and (
            self.monitor.host_of(frame.vtid, frame.seq) != dst
        ):
            self.monitor.handoff_stats["stale_epoch_rejects"] += 1
            return True
        return False

    def _dispatch(self, dst: int, frame: Frame) -> None:
        if frame.type in DELIVERED_FRAMES:
            # The bytes of a scheduled delivery: its effect runs at the
            # delivery instant, not on arrival (see deliver).
            return
        if frame.type == T_CALL_DIGEST:
            digest, name = parse_digest_payload(frame.payload)
            self.monitor.check_digest(
                frame.sender, frame.vtid, frame.seq, name, digest
            )
        elif frame.type == T_RENDEZVOUS_REQ:
            digest, name = parse_digest_payload(frame.payload)
            self.monitor.submit(frame.sender, frame.vtid, frame.seq, name, digest)
        elif frame.type == T_ROUND_RESUBMIT:
            digest, name = parse_digest_payload(frame.payload)
            self.monitor.submit(
                frame.sender, frame.vtid, frame.seq, name, digest, resubmit=True
            )
        elif frame.type == T_LIFECYCLE_GOSSIP:
            if self.lifecycle is not None:
                self.lifecycle.on_gossip_frame(dst, frame)
        else:
            self.stats["control_frames"] += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        # The transport's mode is fixed before the first frame: a lossy
        # network, or a planned link degrade, needs acked batches.
        from repro.faults import LinkDegradeFault

        plan = self.fault_injector.plan if self.fault_injector else ()
        if self.network.lossy() or any(
            isinstance(f, LinkDegradeFault) for f in plan
        ):
            self.transport.enable_reliable()
        for node in self.nodes:
            node.runtime.start()
        if self.lifecycle is not None:
            self.lifecycle.start()

    def _collect_stats(self, result: MveeResult, registry) -> None:
        result.monitored_calls = self.stats["rendezvous_calls"]
        result.unmonitored_calls = (
            self.stats["local_calls"]
            + self.stats["replicated_calls"]
            + self.stats["adopted_results"]
        )
        # Each component exports its own family, including whatever it
        # publishes only when enabled; fault-free runs, loss-free links
        # and homogeneous profiles keep a byte-identical stats view.
        registry.ingest("dist_", self.stats, source="mvee")
        registry.expose("dist_nodes", self.n)
        self.monitor.export_stats(registry)
        self.transport.export_stats(registry)
        export_profile_stats(registry, [node.profile for node in self.nodes])
        if self.lifecycle is not None:
            self.lifecycle.export_stats(registry)

    def _postmortem_context(self, report: DivergenceReport):
        attribution = {
            "vtid": report.vtid,
            "replica": report.replica,
            "leader_index": self.leader_index,
            "quarantined": list(self.result.quarantined_replicas),
            "shard_owners": sorted(self.monitor.rounds_by_owner),
            "epoch": self.epoch,
            "lost_rounds": sorted(self.monitor.lost_keys),
        }
        if self.lifecycle is not None:
            attribution["lifecycle"] = self.lifecycle.attribution()
        backoff = {
            "backoff_retries": self.stats["backoff_retries"],
            "stall_reports": self.stats["stall_reports"],
            "rounds_by_owner": dict(self.monitor.rounds_by_owner),
            "handoff": dict(self.monitor.handoff_stats),
        }
        return attribution, backoff

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _teardown_delay_ns(self) -> int:
        # Teardown is not instantaneous across machines: the kill
        # messages ride the network.
        return self.dconfig.link_latency_ns + self.costs.dist_msg_syscall_ns

    def _wake_everyone(self) -> None:
        for node in self.nodes:
            node.mirror.wake(self.sim)
        self._parkq.notify_all(self.sim)

    def _on_node_exit(self, node: Node, code) -> None:
        code = code if isinstance(code, int) else (node.process.exit_code or 0)
        if code < 128 and self.lifecycle is not None:
            self.lifecycle.on_clean_exit(node)
        # A killed or crashed leader does not fix the wall time: its
        # successor's clean exit does (or, on fail-stop, the last event).
        self._replica_exited(node.process, sets_wall_time=code < 128)
        if (
            code >= 128
            and not self.shutting_down
            and not self.diverged
            and not node.process.quarantined
        ):
            if self.lifecycle is not None and self.lifecycle.detects_crashes():
                # Gossip is the failure detector: the crashed node's
                # heartbeats stop, peers suspect it, and the epidemic
                # dead declaration triggers handle_crash instead of
                # this leader-side timeout.
                return
            # Remote crashes are detected by timeout, not by waitpid.
            detect_ns = (
                self.costs.dist_crash_detect_ns + self.dconfig.link_latency_ns
            )
            self.sim.call_at(self.sim.now + detect_ns, self.handle_crash, node, code)

    def handle_crash(self, node: Node, code: int) -> None:
        """A node's crash was detected (timeout or gossip): hand it to
        the fault policy. Idempotent, so several detectors converge on
        one quarantine."""
        if (
            self.shutting_down
            or self.diverged
            or node.process.quarantined
        ):
            return
        self.replica_fault(
            node.process,
            DivergenceReport(
                self.sim.now,
                0,
                "",
                "node %d (%s) crashed with code %d"
                % (node.index, node.process.name, code),
                detected_by="dist-heartbeat",
                kind="crash",
            ),
        )

    # ------------------------------------------------------------------
    # Graceful degradation across nodes (reuses repro.core policies)
    # ------------------------------------------------------------------
    def report_stall(self, reporter: Node, thread, req, blame: int,
                     detail: str) -> None:
        self.stats["stall_reports"] += 1
        if self.lifecycle is not None:
            self.lifecycle.note_stall(blame)
        blamed = self.nodes[blame].process
        self.replica_fault(
            blamed,
            DivergenceReport(
                self.sim.now,
                thread.vtid,
                req.name,
                "node %d reports node %d stalled: %s"
                % (reporter.index, blame, detail),
                detected_by="dist-watchdog",
                kind="stall",
            ),
        )

    # -- soft link degradation (circuit breaker callbacks) ---------------
    def _link_victim(self, src: int, dst: int) -> int:
        """Which node a bad directed link indicts: the non-leader end
        (the leader stays authoritative; routing around it would mean a
        promotion, which a *link* fault does not justify)."""
        return dst if dst != self.leader_index else src

    def _on_link_down(self, src: int, dst: int) -> bool:
        """The breaker on ``src -> dst`` opened: degrade the link's far
        node when the policy allows it, else escalate to
        :meth:`replica_fault`. True when the node was degraded (the
        transport counts ``link_degrades``)."""
        if self.shutting_down or self.diverged:
            return False
        victim = self._link_victim(src, dst)
        self._down_links.setdefault(victim, set()).add((src, dst))
        node = self.nodes[victim]
        process = node.process
        if node.link_degraded or process.quarantined or process.exited:
            return False
        report = DivergenceReport(
            self.sim.now,
            0,
            "",
            "circuit breaker opened link %d->%d: node %d degraded to "
            "leader-replicated-only" % (src, dst, victim),
            detected_by="dist-breaker",
            kind="link",
        )
        report.replica = victim
        policy = self.config.degradation
        if policy is None or policy.classify(report) != "benign":
            # No degradation policy: a broken monitor link is a fault
            # the cluster cannot paper over.
            self.replica_fault(process, report)
            return False
        voting_others = [
            p for p in self.participants() if p != victim
        ]
        if len(voting_others) < policy.min_quorum:
            report.detail += " [quorum lost: %d voters < min_quorum %d]" % (
                len(voting_others), policy.min_quorum,
            )
            self.replica_fault(process, report)
            return False
        node.link_degraded = True
        self.result.fault_events.append(report)
        if self.obs.tracer.enabled:
            self.obs.tracer.instant(
                "dist", "link_degrade", src=src, dst=dst, victim=victim,
            )
        # Open rounds may now be completable without the degraded vote.
        self.change_membership()
        return True

    def _on_link_up(self, src: int, dst: int) -> bool:
        """The breaker on ``src -> dst`` closed again. True when that
        restored a degraded node (the transport counts
        ``link_restores``)."""
        victim = self._link_victim(src, dst)
        down = self._down_links.get(victim)
        if down is not None:
            down.discard((src, dst))
            if down:
                return False  # another link against this node is still open
        node = self.nodes[victim]
        if not node.link_degraded:
            return False
        node.link_degraded = False
        if self.obs.tracer.enabled:
            self.obs.tracer.instant(
                "dist", "link_restore", src=src, dst=dst, victim=victim,
            )
        # The restored node's vote is required again from here on.
        self.change_membership()
        return True

    def _release(self, index: int, was_master: bool,
                 report: DivergenceReport) -> None:
        """Every quarantine opens a new ownership epoch: in-flight frames
        from the old epoch become rejectable, waiting participants
        observe the bump and re-collect rounds the dead shard lost."""
        self.change_membership(dead=index)
        self._wake_everyone()
        if self.lifecycle is not None:
            self.lifecycle.on_quarantine(index, report)

    def _promote(self, dead_index: int) -> None:
        survivors = self.group.survivors()
        if not survivors:
            return
        # Prefer a survivor with healthy links: promoting a node the
        # breakers have already routed around would put the whole
        # cluster behind a degraded leader.
        for candidate in survivors:
            if not self.nodes[candidate.replica_index].link_degraded:
                new_leader = candidate
                break
        else:
            new_leader = survivors[0]  # kept in index order
        new_index = new_leader.replica_index
        self.group.master_index = new_index
        # The leader moved under the cached views. No round is retried
        # yet: the quarantine's own transition (_release) follows and
        # hands the dead shard's rounds off under a new epoch first.
        self.bump_membership()
        self.degradation_stats["master_promotions"] += 1
        # The new leader re-broadcasts every result it holds but has not
        # consumed: the dead leader may have shipped those records to us
        # and not to every peer (the RB-survives-its-writer analogue).
        rebroadcast = sorted(self.nodes[new_index].mirror.unconsumed().items())
        if not rebroadcast:
            return
        peers = [peer.replica_index for peer in self.live_peers(new_index)]
        frames = [
            Frame(T_SYSCALL_RESULT, new_index, vtid, seq,
                  aux=record.result, payload=record.payload)
            for (vtid, seq), record in rebroadcast
        ]
        self.deliver(
            [
                (new_index, peer, frame, CLS_CONTROL, True)
                for frame in frames for peer in peers
            ],
            self.land_records, new_index, rebroadcast,
        )
        self.stats["failover_rebroadcasts"] += len(rebroadcast)

    # ------------------------------------------------------------------
    # Parking (a replica that lost its rendezvous waits for the kill)
    # ------------------------------------------------------------------
    def park(self, thread):
        """Block until this replica's process is torn down. Returning a
        fake errno into the guest would trip its own assertions before
        the kill lands; instead the thread sleeps and the runtime turns
        the process exit into a clean teardown."""
        while not thread.process.exited:
            event = self._parkq.register()
            status, _ = yield from wait_interruptible(
                thread, event, timeout_ns=1_000_000
            )
            if status != "fired":
                self._parkq.unregister(event)
        return -E.EINTR


def run_distributed(program: Program, config: Optional[ReMonConfig] = None,
                    fault_plan=None, until: Optional[int] = None,
                    max_steps: Optional[int] = None) -> MveeResult:
    """Build and run a distributed MVEE in one call."""
    mvee = DistMvee(program, config)
    if fault_plan is not None:
        from repro.faults import FaultInjector

        mvee.attach_faults(FaultInjector(fault_plan))
    return mvee.run(until=until, max_steps=max_steps)
