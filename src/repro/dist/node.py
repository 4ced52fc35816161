"""Per-node state and the distributed syscall interceptor.

Each simulated node owns a full kernel (its own filesystem image,
scheduler cores, fd space) and runs exactly one replica. There is no
ptrace tracer and no in-process RB: the node's
:class:`DistInterceptor` hooks the kernel's syscall path and sorts
every call into one of three lanes:

* **rendezvous** — monitored calls (resource management and anything
  the relaxation policy keeps monitored). All nodes submit an argument
  digest to the leader-hosted monitor, wait for its verdict, then — on
  agreement — every node executes the call against its *own* kernel.
  This differs from single-machine GHUMVEE, where only the master
  executes most monitored calls: here each node has real local
  resources (files, mappings, descriptors), so local execution is both
  possible and necessary, and descriptor numbers stay aligned across
  nodes because allocation order is identical.
* **replicated** — unmonitored calls whose results followers cannot
  reproduce (the :mod:`repro.dist.selective` policy decides). The
  leader executes, then pushes the result + out-buffers to every
  follower's RB mirror; followers adopt without executing.
* **local** — unmonitored calls every node can reproduce. Executed
  locally everywhere; followers ship an async digest the monitor
  lazily cross-checks (the distributed analogue of the paper's §4
  run-ahead window: a diverged follower is caught one message latency
  late, never allowed to affect the outside world directly, since all
  externally-visible I/O is leader-only or rendezvous).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.comparator import serialize_args
from repro.core.events import DivergenceReport
from repro.core.handlers import ReplicaView
from repro.dist import selective as sel
from repro.dist.remote_rb import RBMirror, RemoteRecord
from repro.dist.wire import (
    Frame,
    STATE_RECORD,
    STATE_VERDICT,
    T_CALL_DIGEST,
    T_RENDEZVOUS_REQ,
    T_ROUND_RESUBMIT,
    T_SYSCALL_RESULT,
    call_digest,
    digest_payload,
)
from repro.kernel import constants as C
from repro.kernel.sockets import AdoptedSocket
from repro.kernel.structs import SOCKADDR_SIZE
from repro.kernel.vfs import OpenFileDescription
from repro.kernel.waitq import wait_interruptible
from repro.sim import Sleep

#: A node blocked on a peer (a verdict, a mirrored result) re-checks on
#: an exponential backoff from this interval up to the cap, until the
#: stall watchdog's ``DistConfig.stall_timeout_ns`` fires.
STALL_BACKOFF_INITIAL_NS = 100_000
STALL_BACKOFF_MAX_NS = 16_000_000

#: The two lanes besides :mod:`repro.dist.selective`'s local and
#: replicated ones.
_RENDEZVOUS = "rendezvous"
_ACCEPT = "accept"


class NodeFdView:
    """FileMapView stand-in reading the node's own descriptor table.

    Single-machine IP-MON reads fd kinds from the shared metadata page
    GHUMVEE maintains; a distributed node has no shared page but *does*
    own real descriptors, so the kinds come straight from its fd table.
    """

    def __init__(self, process):
        self.process = process

    def fd_kind(self, fd: int) -> Optional[str]:
        entry = self.process.fdtable.get(fd)
        if entry is None:
            return None
        return entry.ofd.file.kind

    def is_nonblocking(self, fd: int) -> bool:
        entry = self.process.fdtable.get(fd)
        return bool(entry and entry.ofd.nonblocking)

    def may_block(self, name: str, fd: int) -> bool:
        kind = self.fd_kind(fd)
        if kind in ("reg", "dir", "chr", None):
            return False
        return not self.is_nonblocking(fd)


class Node:
    """One simulated machine: a kernel, one replica, and mirror state."""

    def __init__(self, index: int, layout, profile):
        self.index = index
        self.layout = layout
        #: This node's diversity transform (DESIGN.md §13).
        self.profile = profile
        #: Set by ``DistMvee.image``, which (re-)images the slot.
        self.kernel = None
        self.process = None
        self.mirror = RBMirror(index)
        self.view: Optional[ReplicaView] = None
        self.runtime = None
        self.interceptor: Optional["DistInterceptor"] = None
        #: True while this node's monitor link is routed around by an
        #: open circuit breaker: it keeps executing and adopting the
        #: leader's replicated results (those arrive via scheduled
        #: delivery), but its vote is excluded from rendezvous quorums.
        self.link_degraded = False
        #: Replay-based re-admission (repro.lifecycle): True from re-image
        #: to the live frontier, while the replacement's vote gates
        #: nothing and it adopts its pre-filled mirror (DESIGN.md §13).
        self.rejoining = False

    @property
    def host_ip(self) -> str:
        return self.process.host_ip

    def __repr__(self):
        return "Node(%d, %s)" % (self.index, self.host_ip)


class _DigestView:
    """A request stand-in fed to serialize_args with virtualized args."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple):
        self.name = name
        self.args = args


class DistInterceptor:
    """Kernel syscall hook routing one node's calls through the MVEE."""

    def __init__(self, mvee, node: Node):
        self.mvee = mvee
        self.node = node
        self._seq: Dict[int, int] = {}
        #: ``dist_canonical_wait_ns``, fetched on the first call so a
        #: run that makes none registers nothing.
        self._canonical_hist = None
        self._self_ip = node.host_ip.encode()
        self._self_ip_str = node.host_ip
        # inet_aton form, as it appears inside serialized sockaddr bufs.
        # A 4-byte pattern can in principle collide with unrelated data,
        # but the x.y.z.w octets of our node addresses make that vanishly
        # unlikely in practice and a collision only *loosens* one digest.
        self._self_ip_packed = bytes(
            int(octet) for octet in node.host_ip.split(".")
        )

    def _scrub(self, blob: bytes) -> bytes:
        """Strip this node's own IP (text and inet_aton forms) from a
        serialized record: a node-local identifier, compared by role."""
        if self._self_ip in blob:
            blob = blob.replace(self._self_ip, b"<self-addr>")
        if self._self_ip_packed in blob:
            blob = blob.replace(self._self_ip_packed, b"<self-addr>")
        return blob

    def _virtualized(self, req):
        """Address virtualization (dMVX rewrites sockaddrs the same way
        before comparison): a node's own IP is a node-local identifier,
        so an argument naming it — e.g. connecting to one's own loopback
        listener — is compared by role, not by value, exactly like a
        pointer under ASLR. Arguments naming a *different* host are
        still compared raw."""
        if not any(a == self._self_ip_str for a in req.args):
            return req
        return _DigestView(
            req.name,
            tuple(
                "<self-addr>" if a == self._self_ip_str else a for a in req.args
            ),
        )

    # -- kernel hook protocol ---------------------------------------------
    def intercept(self, thread, req):
        if thread.process is not self.node.process:
            return None
        if req.bypass_agents:
            return None
        return self._run(thread, req)

    # ------------------------------------------------------------------
    def _run(self, thread, req):
        mvee = self.mvee
        node = self.node
        kernel = node.kernel
        if (
            mvee.solo
            or mvee.shutting_down
            or node.process.quarantined
            or node.process.exited
        ):
            result = yield from kernel.invoke(thread, req)
            return result
        costs = kernel.config.costs
        vtid = thread.vtid
        seq = self._seq.get(vtid, 0)
        self._seq[vtid] = seq + 1
        handler = mvee.handlers.get(req.name)
        view = node.view
        cls = None
        if mvee.external and req.name in sel.EXTERNAL_LEADER_CALLS:
            lane = _ACCEPT
        elif handler is None or handler.maybe_checked(view, req):
            lane = _RENDEZVOUS
        else:
            fd_kind = view.filemap.fd_kind(req.arg(0)) if req.args else None
            lane = mvee.replication.classify(req.name, fd_kind)
            if lane != sel.LOCAL:
                cls = sel.syscall_class(req.name, fd_kind)
        # A rejoiner before its frontier adopts what its mirror arrived
        # pre-filled with, at lifecycle_replay_ns and without a digest.
        # Its first miss on a lane that carries an artifact is the live
        # frontier: it is re-admitted and votes from this call on.
        replay = node.rejoining
        if replay and lane != sel.LOCAL and (
            node.mirror.verdict(vtid, seq) if lane is _RENDEZVOUS
            else node.mirror.get(vtid, seq)
        ) is None:
            mvee.lifecycle.reach_frontier(node)
            replay = False
        digest = None
        if not replay:
            local, canonical = self._encode(req)
            yield Sleep(costs.compare_cost_ns(len(local), len(req.args)), cpu=True)
            # A canonical-ABI node bills nothing more: even a Sleep(0)
            # would perturb event ordering.
            canonical_ns = 0
            if not node.profile.abi.canonical:
                # Heterogeneous ABI: the guest-memory encoding is node-
                # private (widths/padding), so the digest pipeline bills
                # the re-encode to canonical form (DESIGN.md §13).
                canonical_ns = costs.canonical_cost_ns(len(canonical))
                yield Sleep(canonical_ns, cpu=True)
                stats = mvee.stats
                stats["canonical_calls"] = stats.get("canonical_calls", 0) + 1
                stats["canonical_cost_ns"] = (
                    stats.get("canonical_cost_ns", 0) + canonical_ns
                )
            hist = self._canonical_hist
            if hist is None:
                hist = self._canonical_hist = mvee.obs.registry.histogram(
                    "dist_canonical_wait_ns"
                )
            hist.observe(canonical_ns)
            digest = call_digest(req.name, canonical)
        if lane is _ACCEPT:
            result = yield from self._external_accept(
                thread, req, seq, digest, replay
            )
        elif lane is _RENDEZVOUS:
            result = yield from self._rendezvous(thread, req, seq, digest, replay)
        elif lane == sel.LOCAL:
            result = yield from self._local(thread, req, seq, digest, replay)
        elif node.index == mvee.leader_index and node.mirror.get(vtid, seq) is None:
            # A promoted leader may already hold the dead leader's record
            # of this call: it adopts that record like a follower instead
            # of executing the call a second time.
            result = yield from self._lead_replicated(
                thread, req, seq, digest, cls, handler, view
            )
        else:
            result = yield from self._follow_replicated(
                thread, req, seq, digest, cls, handler, view, replay
            )
        return result

    def _encode(self, req):
        """This node's scrubbed encoding of ``req``'s arguments and their
        canonical form, the same object on a canonical-ABI node (every
        node of a homogeneous cluster): there the local encoding *is*
        the canonical form, so nothing is re-encoded."""
        node = self.node
        blob = serialize_args(
            self._virtualized(req), node.process.space, abi=node.profile.abi
        )
        local = self._scrub(blob.encode())
        if node.profile.abi.canonical:
            return local, local
        return local, self._scrub(blob.canonical())

    # -- arrival order (repro.lifecycle re-admission) ------------------------
    def _claim_turn(self, thread, turn):
        """Block until ``turn`` heads the mirror's arrival-order log (no
        wait when the mirror keeps none). Live nodes wake threads in one
        scheduled release order (see :meth:`DistMvee.deliver`); a
        rejoiner adopting at per-thread speed could interleave fd
        allocation differently. Arrival order, rr-style, reproduces it.
        """
        mirror = self.node.mirror
        while mirror.order and mirror.order[0] != turn:
            event = mirror.waitq.register()
            status, _ = yield from wait_interruptible(thread, event)
            if status != "fired":
                mirror.waitq.unregister(event)

    def _finish_turn(self, turn):
        """``turn`` was adopted: pass the log on to the next claimant."""
        node = self.node
        mirror = node.mirror
        if mirror.order is not None:
            mirror.end_turn(turn, keep=node.rejoining)
            mirror.waitq.notify_all(self.mvee.sim)

    # -- local lane --------------------------------------------------------
    def _local(self, thread, req, seq, digest, replay):
        mvee, node = self.mvee, self.node
        if replay:
            # Executed as live; only the digest waits for the frontier.
            yield Sleep(node.kernel.config.costs.lifecycle_replay_ns, cpu=True)
            mvee.lifecycle.stats["replayed_local"] += 1
        else:
            mvee.stats["local_calls"] += 1
            if node.index == mvee.leader_index:
                mvee.monitor.record_reference(thread.vtid, seq, req.name, digest)
            else:
                yield from self._ship_digest(thread, req, seq, digest)
        result = yield from node.kernel.invoke(thread, req)
        return result

    def _ship_digest(self, thread, req, seq, digest):
        """Send a follower's call digest to the leader for the lazy
        cross-check, billing the frame encode."""
        mvee, node = self.mvee, self.node
        frame = Frame(
            T_CALL_DIGEST, node.index, thread.vtid, seq,
            payload=digest_payload(digest, req.name),
        )
        yield Sleep(
            node.kernel.config.costs.dist_frame_cost_ns(frame.size()), cpu=True
        )
        mvee.send_frame(node.index, mvee.leader_index, frame, cls=sel.CLS_DIGEST)

    # -- replicated lane ---------------------------------------------------
    def _lead_replicated(self, thread, req, seq, digest, cls, handler, view):
        mvee, node = self.mvee, self.node
        mvee.stats["replicated_calls"] += 1
        mvee.monitor.record_reference(thread.vtid, seq, req.name, digest)
        # Replica-local bookkeeping before execution (EpollCtlHandler
        # records each replica's own data tags so adopted epoll events
        # can be localized).
        handler.observe(view, req)
        result = yield from node.kernel.invoke(thread, req)
        if not isinstance(result, int):
            return result
        payload = handler.collect_results(view, req, result)
        yield from self._publish(thread, req, seq, result, payload, cls, True)
        return result

    def _publish(self, thread, req, seq, result, payload, cls, coded=False):
        """Ship one leader-executed result: into this node's mirror (and
        the lifecycle window) now, to every live follower as a frame,
        delivered through :meth:`DistMvee.deliver`.

        dMVX's copy-to-transfer-unit tax: the leader's critical path
        pays the RB write plus the frame encode for every result it
        ships — the term selective replication exists to shrink. A
        ``coded`` payload also pays the codec scan over the raw bytes
        when compression is on (the CPU side of the bytes-vs-CPU
        trade)."""
        mvee = self.mvee
        costs = self.node.kernel.config.costs
        src = self.node.index
        vtid = thread.vtid
        frame = Frame(
            T_SYSCALL_RESULT, src, vtid, seq, aux=result, payload=payload
        )
        encode_ns = costs.rb_write_base_ns + costs.dist_frame_cost_ns(frame.size())
        if coded and mvee.dconfig.compress is not None and payload:
            encode_ns += costs.dist_compress_cost_ns(len(payload))
        yield Sleep(encode_ns, cpu=True)
        record = RemoteRecord(result, payload, req.name)
        self.node.mirror.put(vtid, seq, record, mvee.sim, own=True)
        if mvee.lifecycle is not None:
            mvee.lifecycle.record_result(vtid, seq, record)
        cls = sel.CLS_RESULT_PREFIX + cls
        mvee.deliver(
            [(src, peer.replica_index, frame, cls, False)
             for peer in mvee.live_peers(src)],
            mvee.land_records, src, [((vtid, seq), record)],
        )

    def _follow_replicated(
        self, thread, req, seq, digest, cls, handler, view, replay
    ):
        mvee, node = self.mvee, self.node
        if not replay and node.index != mvee.leader_index:
            yield from self._ship_digest(thread, req, seq, digest)
        # Same replica-local bookkeeping the leader does before
        # executing; a follower never executes this call, so the hook is
        # its only chance to record e.g. its own epoll data tags.
        handler.observe(view, req)
        # Promoted mid-wait: the old leader died before shipping this
        # record and nobody holds it — execute as leader.
        result = yield from self._follow_mirror(
            thread, req, seq, "no replicated result",
            lambda record: handler.apply_results(
                view, req, record.result, record.payload
            ),
            lambda: self._lead_replicated(
                thread, req, seq, digest, cls, handler, view
            ),
            replay, coded=True,
        )
        return result

    def _follow_mirror(self, thread, req, seq, what, apply, promoted, replay,
                       coded=False):
        """A follower's wait for the leader's mirror record of one call,
        shared by the replicated and external-accept lanes. The record
        is adopted in its turn: the copy is billed (with the codec's
        expansion when ``coded``; at ``lifecycle_replay_ns`` on a
        ``replay``), then ``apply`` installs it. ``promoted`` runs the
        call instead when this node became leader mid-wait. Past the
        stall timeout the watchdog blames the leader (``what`` names the
        missing result) and the wait goes on."""
        mvee, node = self.mvee, self.node
        sim = node.kernel.sim
        costs = node.kernel.config.costs
        timeout = mvee.dconfig.stall_timeout_ns
        vtid = thread.vtid
        deadline = sim.now + timeout
        backoff = STALL_BACKOFF_INITIAL_NS
        while True:
            record = node.mirror.get(vtid, seq)
            if record is not None:
                turn = (STATE_RECORD, vtid, seq)
                yield from self._claim_turn(thread, turn)
                size = len(record.payload)
                adopt_ns = costs.rb_read_base_ns + costs.rb_copy_ns(size)
                if coded and size and mvee.dconfig.compress is not None:
                    # Codec expansion happens on the adoption copy path.
                    adopt_ns += costs.dist_decompress_cost_ns(size)
                yield Sleep(costs.lifecycle_replay_ns if replay else adopt_ns,
                            cpu=True)
                apply(record)
                node.mirror.consume(vtid, seq)
                if replay:
                    mvee.lifecycle.stats["replayed_records"] += 1
                else:
                    mvee.stats["adopted_results"] += 1
                self._finish_turn(turn)
                return record.result
            if mvee.shutting_down or node.process.exited or node.process.quarantined:
                result = yield from mvee.park(thread)
                return result
            if node.index == mvee.leader_index:
                mvee.stats["promoted_executions"] += 1
                result = yield from promoted()
                return result
            if sim.now >= deadline:
                mvee.report_stall(
                    node, thread, req,
                    blame=mvee.leader_index,
                    detail="%s for %s after %d ns" % (what, req.name, timeout),
                )
                deadline = sim.now + timeout
                continue
            backoff = yield from self._backoff_wait(
                thread, node.mirror.waitq, backoff, deadline
            )

    def _backoff_wait(self, thread, waitq, backoff, deadline):
        """Sleep on ``waitq`` until woken or ``backoff`` (clipped to the
        stall watchdog's deadline) passes; returns the next backoff."""
        sim = self.node.kernel.sim
        event = waitq.register()
        status, _ = yield from wait_interruptible(
            thread, event, timeout_ns=min(backoff, max(1, deadline - sim.now)),
        )
        if status != "fired":
            waitq.unregister(event)
        self.mvee.stats["backoff_retries"] += 1
        return min(backoff * 2, STALL_BACKOFF_MAX_NS)

    # -- rendezvous lane ---------------------------------------------------
    def _rendezvous(self, thread, req, seq, digest, replay):
        """Vote, then execute on agreement, in the verdict's turn. On a
        ``replay`` the recorded verdict stands in for the vote, and the
        node proves it would have voted with the cluster: the verdict
        carries the round's canonical digest, which it recomputes from
        its own canonical bytes, never the recorder's node-local
        encoding (DESIGN.md §13)."""
        mvee, node = self.mvee, self.node
        costs = node.kernel.config.costs
        vtid = thread.vtid
        turn = (STATE_VERDICT, vtid, seq)
        if replay:
            verdict = node.mirror.verdict(vtid, seq)
        else:
            verdict = yield from self._rendezvous_sync(thread, req, seq, digest)
        if verdict == 1:
            yield from self._claim_turn(thread, turn)
            if replay:
                yield Sleep(costs.lifecycle_replay_ns, cpu=True)
                mvee.lifecycle.stats["replayed_verdicts"] += 1
                expected = node.mirror.verdict_digest(vtid, seq)
                if expected:
                    verdict = yield from self._verify(thread, req, expected)
            else:
                yield Sleep(
                    costs.dist_rendezvous_service_ns + mvee.obs.dispatch_cost_ns,
                    cpu=True,
                )
        if verdict != 1:
            self._finish_turn(turn)
            result = yield from mvee.park(thread)
            return result
        try:
            result = yield from node.kernel.invoke(thread, req)
        except Exception:  # exit(2), exit_group(2): still pass the turn on
            self._finish_turn(turn)
            raise
        self._finish_turn(turn)
        return result

    def _verify(self, thread, req, expected):
        """1 when this node's canonical digest of a replayed call is the
        recorded verdict's ``expected`` one; else flag it and return 0."""
        mvee, node = self.mvee, self.node
        costs = node.kernel.config.costs
        stats = mvee.lifecycle.stats
        _, canonical = self._encode(req)
        verify_ns = costs.compare_cost_ns(len(canonical), len(req.args))
        if not node.profile.abi.canonical:
            verify_ns += costs.canonical_cost_ns(len(canonical))
        yield Sleep(verify_ns, cpu=True)
        if call_digest(req.name, canonical) == expected:
            stats["replayed_verified"] = stats.get("replayed_verified", 0) + 1
            return 1
        stats["replay_verify_failures"] = (
            stats.get("replay_verify_failures", 0) + 1
        )
        mvee.divergence(
            DivergenceReport(
                mvee.sim.now,
                thread.vtid,
                req.name,
                "replayed %s diverges from the recorded canonical verdict "
                "digest on node %d" % (req.name, node.index),
                detected_by="replay",
                replica=node.index,
            )
        )
        return 0

    def _rendezvous_sync(self, thread, req, seq, digest):
        """The lockstep half of a rendezvous: submit the argument digest
        to the round's owner and wait for the verdict. Callers decide
        what execution follows agreement (all-nodes for the normal lane,
        leader-only for external accepts)."""
        mvee, node = self.mvee, self.node
        costs = node.kernel.config.costs
        vtid = thread.vtid
        mvee.stats["rendezvous_calls"] += 1
        # Digests go straight to the round's owning shard (the leader,
        # unless DistConfig.shard_rendezvous spreads ownership).
        owner = mvee.shard_owner(vtid, seq)
        obs = mvee.obs
        span = None
        wait_from = mvee.sim.now
        if obs.recorder is not None:
            obs.recorder.record(node.index, wait_from, "rendezvous",
                                req.name, vtid=vtid, seq=seq, owner=owner)
        if obs.tracer.enabled:
            span = obs.tracer.begin(
                "dist", "rendezvous", syscall=req.name, vtid=vtid,
                seq=seq, node=node.index, owner=owner,
            )
        route_ns = (
            costs.dist_shard_route_ns if mvee.dconfig.shard_rendezvous else 0
        )
        if node.index == owner:
            if route_ns:
                yield Sleep(route_ns, cpu=True)
            mvee.monitor.submit(node.index, vtid, seq, req.name, digest)
        else:
            # The frame carries the ownership epoch it was sent under
            # (aux stays 0 until a quarantine bumps it, so fault-free
            # frames are byte-identical to the pre-epoch wire format).
            frame = Frame(
                T_RENDEZVOUS_REQ, node.index, vtid, seq, aux=mvee.epoch,
                payload=digest_payload(digest, req.name),
            )
            yield Sleep(costs.dist_frame_cost_ns(frame.size()) + route_ns, cpu=True)
            mvee.send_frame(
                node.index, owner, frame, cls=sel.CLS_RENDEZVOUS, urgent=True
            )
            mvee.stats["round_trips"] += 1
        verdict = yield from self._await_verdict(thread, req, vtid, seq, digest)
        obs.registry.histogram("dist_rendezvous_wait_ns").observe(
            mvee.sim.now - wait_from
        )
        if span is not None:
            span.finish(verdict=verdict)
        return verdict

    def _await_verdict(self, thread, req, vtid, seq, digest):
        mvee, node = self.mvee, self.node
        sim = node.kernel.sim
        costs = node.kernel.config.costs
        dcfg = mvee.dconfig
        deadline = sim.now + dcfg.stall_timeout_ns
        backoff = STALL_BACKOFF_INITIAL_NS
        was_owner = node.index == mvee.shard_owner(vtid, seq)
        sent_epoch = mvee.epoch
        while True:
            # Ownership can move under us (quarantine reshuffles the
            # shard map; a promotion moves the default owner), so it is
            # recomputed each pass.
            owner = mvee.shard_owner(vtid, seq)
            state = mvee.monitor.state_for(vtid, seq)
            if mvee.epoch != sent_epoch:
                # The epoch moved while we waited. If our vote died with
                # the old owner's shard, re-collect it: the round's
                # state is rebuilt on the new owner from resubmissions.
                sent_epoch = mvee.epoch
                if state is None or node.index not in state.digests:
                    if node.index == owner:
                        mvee.monitor.submit(
                            node.index, vtid, seq, req.name, digest,
                            resubmit=True,
                        )
                        was_owner = True
                        state = mvee.monitor.state_for(vtid, seq)
                    else:
                        frame = Frame(
                            T_ROUND_RESUBMIT, node.index, vtid, seq,
                            aux=mvee.epoch,
                            payload=digest_payload(digest, req.name),
                        )
                        yield Sleep(
                            costs.dist_frame_cost_ns(frame.size()), cpu=True
                        )
                        mvee.send_frame(
                            node.index, owner, frame,
                            cls=sel.CLS_RENDEZVOUS, urgent=True,
                        )
                        mvee.stats["round_trips"] += 1
                        continue
            if node.index == owner:
                if not was_owner:
                    # Became the owner mid-rendezvous: re-submit so the
                    # (re-hosted) monitor re-checks the round.
                    mvee.monitor.submit(node.index, vtid, seq, req.name, digest)
                    state = mvee.monitor.state_for(vtid, seq)
                    was_owner = True
                verdict = state.verdict if state is not None else None
                if verdict is None:
                    # The release may have shipped before ownership
                    # moved here; the mirror then already holds it.
                    verdict = node.mirror.verdict(vtid, seq)
            else:
                was_owner = False
                verdict = node.mirror.verdict(vtid, seq)
                if (
                    verdict is None
                    and state is not None
                    and state.verdict is not None
                    and state.owner == node.index
                ):
                    # This node owned the round when the verdict landed
                    # (no release frame was addressed to it) and lost
                    # ownership afterwards: read its own monitor state.
                    verdict = state.verdict
            if verdict is not None:
                return verdict
            if mvee.shutting_down or node.process.exited or node.process.quarantined:
                return 0
            if sim.now >= deadline:
                blame = mvee.missing_participant(vtid, seq, node.index)
                if blame is not None:
                    mvee.report_stall(
                        node, thread, req, blame=blame,
                        detail="rendezvous on %s stalled for %d ns"
                        % (req.name, dcfg.stall_timeout_ns),
                    )
                # blame=None: every participant has voted, so the round
                # is completing and only the release is in flight — a
                # watchdog report now would punish an innocent node.
                deadline = sim.now + dcfg.stall_timeout_ns
                continue
            if node.index == owner and state is not None:
                waitq = state.waitq
            else:
                waitq = node.mirror.waitq
            backoff = yield from self._backoff_wait(thread, waitq, backoff, deadline)

    # -- external-service accept lane --------------------------------------
    def _external_accept(self, thread, req, seq, digest, replay):
        """accept(2) on an externally-reachable listener (repro.fleet).

        The call keeps the lockstep half of the rendezvous lane — every
        node submits its argument digest and waits for agreement, so a
        compromised replica cannot smuggle divergent accept arguments —
        but execution is leader-only: the client's SYN exists only in
        the leader node's kernel. The leader ships the resulting fd (and
        sockaddr out-buffer, if requested) through the RB mirror exactly
        like a replicated result; followers adopt it by materialising an
        :class:`~repro.kernel.sockets.AdoptedSocket` at the same
        descriptor index, keeping fd numbering aligned for every later
        call on the connection. A ``replay`` adopts the recorded fd
        without a vote.
        """
        mvee, node = self.mvee, self.node
        costs = node.kernel.config.costs
        vtid = thread.vtid
        if not replay:
            verdict = yield from self._rendezvous_sync(thread, req, seq, digest)
            if verdict != 1:
                result = yield from mvee.park(thread)
                return result
            yield Sleep(
                costs.dist_rendezvous_service_ns + mvee.obs.dispatch_cost_ns,
                cpu=True,
            )
        if node.mirror.verdict(vtid, seq) is not None:
            # Only the leader executes an accept: the verdict's turn
            # orders nothing here and passes at once.
            turn = (STATE_VERDICT, vtid, seq)
            yield from self._claim_turn(thread, turn)
            self._finish_turn(turn)
        if not replay and node.index == mvee.leader_index:
            result = yield from node.kernel.invoke(thread, req)
            if not isinstance(result, int):
                return result
            payload = b""
            if result >= 0 and req.arg(1):
                payload = bytes(
                    node.process.space.read(req.arg(1), SOCKADDR_SIZE)
                )
            yield from self._publish(thread, req, seq, result, payload, "sock")
            return result
        # Follower: wait for the leader's record, then adopt the fd.
        def adopt(record):
            if record.result >= 0:
                self._materialize_accept(thread, req, record)

        # Promoted mid-wait: nobody will ship the record. The new
        # leader's own listener is idle (external clients still target
        # the old address), so executing locally yields a harmless
        # EAGAIN and the guest retries.
        result = yield from self._follow_mirror(
            thread, req, seq, "no adopted accept result", adopt,
            lambda: node.kernel.invoke(thread, req),
            replay,
        )
        return result

    def _materialize_accept(self, thread, req, record):
        """Install a phantom connection fd mirroring the leader's."""
        mvee, node = self.mvee, self.node
        process = node.process
        sock = AdoptedSocket(
            node.kernel, process.host_ip, name="adopted:%d" % record.result
        )
        ofd_flags = C.O_RDWR
        flags = req.arg(3) if req.name == "accept4" else 0
        if flags & C.SOCK_NONBLOCK:
            ofd_flags |= C.O_NONBLOCK
        # Install at the *leader's* fd number (dup2-style), keeping the
        # descriptor tables aligned by construction: concurrent worker
        # threads may consume adopted records in a different order than
        # the leader's accepts ran, so lowest-free allocation would
        # skew. A still-occupied slot is the real desync signal.
        fd = record.result
        if process.fdtable.get(fd) is not None:
            mvee.divergence(
                DivergenceReport(
                    mvee.sim.now,
                    thread.vtid,
                    req.name,
                    "leader's accept fd %d already open here (descriptor "
                    "tables desynced)" % fd,
                    detected_by="dist-external",
                    replica=node.index,
                )
            )
            return
        process.fdtable.install(
            fd,
            OpenFileDescription(sock, ofd_flags),
            cloexec=bool(flags & C.SOCK_CLOEXEC),
        )
        if record.payload and req.arg(1):
            process.space.write(req.arg(1), record.payload)
            if req.arg(2):
                process.space.write_u32(req.arg(2), SOCKADDR_SIZE)
        node.kernel.on_fd_opened(process, fd)
