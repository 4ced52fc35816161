"""IP-MON: the in-process monitor (paper §3.2-§3.9).

One :class:`IpmonReplica` lives inside each replica process (the paper
loads it as a shared library); they cooperate through the shared
replication buffer. The master executes unmonitored calls and publishes
arguments and results; slaves validate their own arguments against the
master's record and copy the results out, without any context switch to
GHUMVEE.

Security-relevant modelling choices (§3.1):

* the RB pointer and the authorization token travel as coroutine
  arguments — never written to guest memory — mirroring the reserved
  registers of the real implementation;
* all result copies go through the RB region's actual bytes, so an
  attacker who finds the RB can tamper with slave validation;
* IP-MON completes calls only through IK-B's verifier, with the token
  intact, via its registered entry point.
"""

from __future__ import annotations

from typing import List

from repro.core.comparator import serialize_args
from repro.core.events import DivergenceReport
from repro.core.fdtable import FileMapView
from repro.core.handlers import ALLCALL, MASTERCALL, build_handler_table
from repro.core.rb import (
    FLAG_FORWARDED,
    FLAG_MAY_BLOCK,
    STATE_ARGS_READY,
    STATE_RESULTS_READY,
    ReplicationBuffer,
)
from repro.errors import SecurityViolation
from repro.kernel import constants as C
from repro.kernel import errno_codes as E
from repro.kernel.syscalls import SyscallRequest
from repro.kernel.waitq import wait_interruptible
from repro.sim import Sleep

#: After this many spin iterations a slave falls back to the futex path
#: even for calls predicted not to block.
SPIN_LIMIT = 64

#: RB waits under a DegradationPolicy back off exponentially; a peer
#: that makes no progress for RB_WAIT_TIMEOUT_NS is declared faulted.
RB_BACKOFF_INITIAL_NS = 2_000_000
RB_BACKOFF_MAX_NS = 64_000_000
RB_WAIT_TIMEOUT_NS = 1_000_000_000

#: Region offset of the signals-pending flag GHUMVEE sets (§3.8). The
#: lanes start after this reserved header.
SIGNALS_PENDING_OFFSET = 0

#: Sentinel a slave path returns when, while it waited, the master died
#: and *this* replica was promoted: entry() retries the call as master.
_RETRY_AS_MASTER = object()


class IpMonGroup:
    """The cross-replica coordinator: owns the RB and the handler table."""

    def __init__(self, remon, policy, rb_size: int = 16 << 20, force_spin: bool = False):
        self.remon = remon
        self.kernel = remon.kernel
        self.policy = policy
        self.rb = ReplicationBuffer(rb_size)
        self.handlers = build_handler_table(policy.unmonitored_set())
        self.replicas: List["IpmonReplica"] = []
        #: Ablation knob: slaves always spin-read instead of using the
        #: per-invocation futex condition variables of §3.7.
        self.force_spin = force_spin
        self.stats = {
            "unmonitored_calls": 0,
            "forwarded_conditional": 0,
            "forwarded_signals": 0,
            "forwarded_size": 0,
            "rb_resets": 0,
            "futex_waits": 0,
            "futex_wakes_skipped": 0,
            "spin_fallbacks": 0,
            "spin_iterations": 0,
            "rb_backoff_retries": 0,
            "token_reissues": 0,
        }
        self.obs = remon.obs
        self._obs_ns = self.obs.dispatch_cost_ns if self.obs is not None else 0
        #: The entry cost every call into IP-MON pays (one shared,
        #: immutable effect).
        self._entry_sleep = Sleep(
            self.kernel.config.costs.ipmon_entry_ns + self._obs_ns, cpu=True
        )

    def signals_pending(self) -> bool:
        return self.rb.region.read(SIGNALS_PENDING_OFFSET, 1)[0] != 0

    def set_signals_pending(self, value: bool) -> None:
        self.rb.region.write(SIGNALS_PENDING_OFFSET, b"\x01" if value else b"\x00")

    def on_replica_quarantined(self, index: int, was_master: bool) -> None:
        """Release a quarantined replica's RB state.

        For a dead *master*, every record it left unfinished is poisoned
        (marked forwarded-to-monitor with an empty result): survivors
        then route those calls to GHUMVEE, whose lockstep rendezvous
        re-executes them safely instead of trusting half-written
        records. For any dead replica, its consumption cursor is
        dropped so full lanes can reset without waiting on a corpse.
        """
        sim = self.kernel.sim
        survivor = next(
            (
                r
                for r in self.replicas
                if not r.process.exited and not r.process.quarantined
            ),
            None,
        )
        for lane in self.rb.lanes.values():
            if was_master:
                for record in lane.records:
                    if record.words()[0] != STATE_RESULTS_READY:
                        record.poison()
                        if survivor is not None and record.words()[1] > 0:
                            # Futex keys derive from the backing region,
                            # so waking through any survivor's mapping
                            # wakes waiters in every replica.
                            addr = survivor._rb_base + record.state_word_offset()
                            self.kernel.futexes.wake(
                                survivor.space, addr, 1 << 30, sim
                            )
            if index in lane.consumed:
                del lane.consumed[index]
                if lane.slaves_caught_up():
                    lane.catchup_waitq.notify_all(sim)
            lane.args_waitq.notify_all(sim)


class IpmonReplica:
    """IP-MON as loaded into one replica process."""

    def __init__(self, group: IpMonGroup, process, replica_index: int, filemap_region):
        self.group = group
        self.kernel = group.kernel
        self.process = process
        self.space = process.space
        self.replica_index = replica_index
        self.policy = group.policy
        self.filemap = FileMapView(filemap_region)
        self.epoll_map = group.remon.epoll_map
        # The replica-local virtual address the RB is mapped at. Stored
        # here only for issuing futexes at replica-local addresses; the
        # guest program never learns it (see attacks/scenarios.py).
        self._rb_base = 0
        group.replicas.append(self)
        process.ipmon_replica = self

    @property
    def is_master(self) -> bool:
        """Role is resolved against the group's *current* master index:
        a promotion (degraded mode) re-roles survivors on their next
        entry into IP-MON."""
        return self.replica_index == self.group.remon.group.master_index

    # ------------------------------------------------------------------
    # Initialization (§3.5): map the RB + file map, register with IK-B.
    # ------------------------------------------------------------------
    def map_buffers(self) -> None:
        """Map the shared RB and the read-only file map into this
        replica at randomized, hidden addresses."""
        # 24 bits of placement entropy per replica (paper §4): the RB
        # lands on one of 2^24 page-aligned slots in this replica's
        # private 64 GiB arena.
        rng_page = (
            int.from_bytes(self.kernel.random_bytes(4), "little") % (1 << 24)
        ) * C.PAGE_SIZE
        base_hint = 0x7E00_0000_0000 + rng_page + self.replica_index * (1 << 37)
        mapping = self.space.map(
            base_hint,
            self.group.rb.size,
            C.PROT_READ | C.PROT_WRITE,
            name="[ipmon-rb]",
            region=self.group.rb.region,
            shared=True,
        )
        self._rb_base = mapping.start
        self.space.map(
            None,
            len(self.filemap.region),
            C.PROT_READ,
            name="[ipmon-filemap]",
            region=self.filemap.region,
            shared=True,
        )

    def registration_preamble(self, ctx):
        """Guest-side preamble: issue the ipmon_register syscall. Runs
        inside the replica before the application's main.

        GHUMVEE arbitrates the registration (§3.5) and may veto it with
        -EPERM, in which case the replica simply runs without an active
        IP-MON (every call stays monitored)."""
        unmonitored = self.policy.unmonitored_set()
        result = yield SyscallRequest(
            "ipmon_register", (unmonitored, self._rb_base, self.entry)
        )
        if result not in (0, -E.EPERM):
            raise SecurityViolation("ipmon_register failed: %d" % result)
        return result

    @property
    def rb_base_for_tests(self) -> int:
        return self._rb_base

    def remap_rb(self) -> int:
        """Move the RB to a fresh random virtual address (the §4
        extension: IK-B periodically rewrites the replica's page tables
        so even a leaked RB pointer goes stale).

        Futex keys are derived from the backing region, so slaves blocked
        on a record's condition variable keep working across the move.
        Returns the new base address.
        """
        old = next(
            (m for m in self.space.mappings() if m.name == "[ipmon-rb]"), None
        )
        if old is not None:
            self.space.unmap(old.start, old.length)
        rng_page = (
            int.from_bytes(self.kernel.random_bytes(4), "little") % (1 << 24)
        ) * C.PAGE_SIZE
        base_hint = 0x7E00_0000_0000 + rng_page + self.replica_index * (1 << 37)
        mapping = self.space.map(
            base_hint,
            self.group.rb.size,
            C.PROT_READ | C.PROT_WRITE,
            name="[ipmon-rb]",
            region=self.group.rb.region,
            shared=True,
        )
        self._rb_base = mapping.start
        broker = self.kernel.ikb
        if broker is not None:
            registration = broker.registration_for(self.process)
            if registration is not None:
                registration.rb_base = mapping.start
        self.group.stats["rb_remaps"] = self.group.stats.get("rb_remaps", 0) + 1
        return mapping.start

    # ------------------------------------------------------------------
    # The system call entry point IK-B forwards to (steps 2-4).
    # ------------------------------------------------------------------
    def entry(self, thread, req: SyscallRequest, token: int, rb_base: int):
        costs = self.kernel.config.costs
        group = self.group
        yield group._entry_sleep
        obs = group.obs
        if obs is not None and obs.tracer.enabled:
            obs.tracer.instant(
                "ipmon", "entry", syscall=req.name, vtid=thread.vtid,
                replica=self.replica_index, master=self.is_master,
            )
        remon_group = group.remon.group
        handler = group.handlers.get(req.name)
        broker = self.kernel.ikb
        if handler is None:
            result = yield from broker.route_to_monitor(thread, req)
            return result

        # MAYBE_CHECKED: conditional-policy decision. Deterministic given
        # the (shared) file map, so every replica reaches the same verdict
        # without communicating — except under a temporal policy, whose
        # stochastic exemptions only the master decides; slaves then
        # follow the master's record (FLAG_FORWARDED) instead.
        must_monitor = handler.maybe_checked(self, req)
        temporal = self.policy.temporal
        temporal_managed = temporal is not None and self.policy.is_conditional(req.name)
        if temporal_managed:
            if self.is_master:
                if must_monitor and temporal.should_exempt(req, self.kernel.sim.now):
                    must_monitor = False
                    group.stats["temporal_exemptions"] = (
                        group.stats.get("temporal_exemptions", 0) + 1
                    )
            else:
                must_monitor = False  # decided by the master's record
        elif must_monitor:
            group.stats["forwarded_conditional"] += 1
            result = yield from broker.route_to_monitor(thread, req)
            return result

        # CALCSIZE: records that cannot fit even an empty RB lane are
        # forwarded (deterministic as well).
        blob = serialize_args(req, self.space)
        blob_bytes = blob.encode()
        yield Sleep(costs.compare_cost_ns(blob.nbytes, len(blob.items)), cpu=True)
        max_result = handler.calcsize(self, req)
        record_bytes = len(blob_bytes) + max_result
        lane = group.rb.lane(thread.vtid)
        if lane is None or not lane.fits(record_bytes):
            group.stats["forwarded_size"] += 1
            result = yield from broker.route_to_monitor(thread, req)
            return result

        handler.observe(self, req)

        # Role dispatch. A freshly promoted master first *drains* the
        # records its dead predecessor published — it consumes them like
        # a slave, since they correspond exactly to the calls it is now
        # making — then switches to recording. A slave that observes the
        # master's death mid-wait retries as master once the promotion
        # lands on it.
        while True:
            if self.replica_index == remon_group.master_index:
                backlog = (
                    self.replica_index in lane.consumed
                    and lane.next_record_for(self.replica_index) is not None
                )
                if not backlog:
                    if self.replica_index in lane.consumed:
                        # Backlog drained: stop being a lane consumer so
                        # catch-up resets no longer wait on this cursor.
                        del lane.consumed[self.replica_index]
                        if lane.slaves_caught_up():
                            lane.catchup_waitq.notify_all(self.kernel.sim)
                    result = yield from self._master_path(
                        thread,
                        req,
                        token,
                        rb_base,
                        handler,
                        lane,
                        blob_bytes,
                        record_bytes,
                        must_monitor,
                    )
                    return result
            result = yield from self._slave_path(
                thread, req, token, handler, lane, blob_bytes
            )
            if result is not _RETRY_AS_MASTER:
                return result
            if not broker.has_outstanding(thread):
                # The token was revoked while we waited for the dead
                # master's results; re-issue one for the retry.
                token = broker.reissue_token(thread, req)
                group.stats["token_reissues"] += 1

    # ------------------------------------------------------------------
    # Master: log, execute, publish.
    # ------------------------------------------------------------------
    def _master_path(
        self,
        thread,
        req,
        token,
        rb_base,
        handler,
        lane,
        blob_bytes,
        record_bytes,
        must_monitor=False,
    ):
        costs = self.kernel.config.costs
        group = self.group
        broker = self.kernel.ikb

        # Wait for RB room; a full lane is reset under GHUMVEE
        # arbitration once every slave caught up (§3.2). Under a
        # DegradationPolicy the wait uses bounded exponential backoff
        # with a no-progress deadline, after which the most-lagged slave
        # is reported as stalled (and possibly quarantined).
        policy = group.remon.config.degradation
        backoff = RB_BACKOFF_INITIAL_NS if policy is not None else 0
        waited = 0
        last_progress = min(lane.consumed.values()) if lane.consumed else 0
        obs = group.obs
        room_wait_from = self.kernel.sim.now
        while not lane.has_room(record_bytes):
            if lane.slaves_caught_up():
                yield Sleep(costs.rb_overflow_sync_ns, cpu=False)
                lane.reset(self.kernel.sim)
                group.stats["rb_resets"] += 1
                continue
            event = lane.catchup_waitq.register()
            status, _ = yield from wait_interruptible(
                thread, event, backoff if policy is not None else None
            )
            if status == "interrupted":
                lane.catchup_waitq.unregister(event)
                broker.revoke_token(thread)
                return -E.EINTR
            if status == "timeout":
                lane.catchup_waitq.unregister(event)
                group.stats["rb_backoff_retries"] += 1
                progress = min(lane.consumed.values()) if lane.consumed else 0
                if progress != last_progress:
                    # A slow-but-progressing slave resets the deadline;
                    # only a flatlined cursor counts toward the stall.
                    last_progress = progress
                    waited = 0
                else:
                    waited += backoff
                backoff = min(backoff * 2, RB_BACKOFF_MAX_NS)
                if waited >= RB_WAIT_TIMEOUT_NS:
                    self._lane_stall(thread, req, lane)
                    waited = 0
                    last_progress = (
                        min(lane.consumed.values()) if lane.consumed else 0
                    )

        if obs is not None:
            obs.registry.histogram("ipmon_rb_wait_ns").observe(
                self.kernel.sim.now - room_wait_from
            )
            if obs.tracer.enabled:
                obs.tracer.instant(
                    "ipmon", "rb-publish", syscall=req.name,
                    vtid=thread.vtid, nbytes=record_bytes,
                )
        record = lane.reserve(record_bytes)
        group.rb.total_records += 1

        # Forwarded cases that slaves must learn about through the RB
        # record (FLAG_FORWARDED): pending-signal deferral (§3.8) and
        # non-exempted calls under a temporal policy (§3.4).
        if must_monitor or group.signals_pending():
            record.write_args(blob_bytes, FLAG_FORWARDED)
            lane.publish_args(self.kernel.sim)
            if must_monitor:
                group.stats["forwarded_conditional"] += 1
            else:
                group.stats["forwarded_signals"] += 1
            result = yield from broker.route_to_monitor(thread, req)
            record.write_results(result, b"")
            self._wake_record(record, costs)
            return result

        may_block = handler.may_block(self, req)
        flags = FLAG_MAY_BLOCK if may_block else 0
        record.write_args(blob_bytes, flags)
        yield Sleep(costs.rb_write_base_ns + costs.rb_copy_ns(len(blob_bytes)), cpu=True)
        lane.publish_args(self.kernel.sim)

        # Restart the call through IK-B with the token intact (step 3).
        restart = req.replace(site="ipmon", token=token)
        ok, result = yield from broker.restart_call(thread, restart)
        if not ok:
            policy = group.remon.config.degradation
            if policy is not None and policy.reissue_lost_tokens:
                # Benign token loss (DMON fault model): one re-issued,
                # still single-use token bound to the same call.
                token = broker.reissue_token(thread, req)
                group.stats["token_reissues"] += 1
                restart = req.replace(site="ipmon", token=token)
                ok, result = yield from broker.restart_call(thread, restart)
        if not ok:
            # Verification failed (cannot happen on the benign path; an
            # attack scenario may force it): fall back to the monitor.
            record.write_results(-E.EPERM, b"")
            self._wake_record(record, costs)
            result = yield from broker.route_to_monitor(thread, req)
            return result

        group.stats["unmonitored_calls"] += 1
        payload = b""
        if handler.disposition() == MASTERCALL:
            payload = handler.collect_results(self, req, result)
        record.write_results(result, payload)
        group.rb.total_bytes += record.total_bytes()
        yield Sleep(costs.rb_write_base_ns + costs.rb_copy_ns(len(payload)), cpu=True)
        self._wake_record(record, costs)
        return result

    def _wake_record(self, record, costs) -> None:
        """FUTEX_WAKE the record's condition variable — but only when a
        slave actually waits (§3.7's no-waiter optimization)."""
        if record.words()[1] > 0:
            addr = self._rb_base + record.state_word_offset()
            self.kernel.futexes.wake(self.space, addr, 1 << 30, self.kernel.sim)
            # The wake syscall itself costs time; charged to the master.
            # (In the real system this is an actual futex(2) call.)
        else:
            self.group.stats["futex_wakes_skipped"] += 1

    # ------------------------------------------------------------------
    # Stall reporting (degraded mode)
    # ------------------------------------------------------------------
    def _lane_stall(self, thread, req, lane) -> None:
        """Master-side: a slave stopped consuming this lane for the full
        no-progress window. Report the most-lagged live one."""
        remon = self.group.remon
        laggard = None
        lag_seq = None
        for index, seq in lane.consumed.items():
            if seq >= lane.master_seq:
                continue
            if index >= len(remon.group.processes):
                continue
            process = remon.group.processes[index]
            if process.exited or process.quarantined or process is self.process:
                continue
            if lag_seq is None or seq < lag_seq:
                laggard, lag_seq = process, seq
        if laggard is None:
            return
        remon.replica_fault(
            laggard,
            DivergenceReport(
                self.kernel.sim.now,
                thread.vtid,
                req.name,
                "replica %s stopped consuming RB lane %d (consumed %d of "
                "%d records)" % (laggard.name, lane.vtid, lag_seq, lane.master_seq),
                detected_by="ipmon",
                kind="stall",
            ),
        )

    def _master_stall(self, thread, req, lane) -> None:
        """Slave-side: the master stopped publishing (or finishing) this
        lane's records for the full no-progress window."""
        remon = self.group.remon
        master = remon.group.master()
        if master is self.process or master.exited or master.quarantined:
            return
        remon.replica_fault(
            master,
            DivergenceReport(
                self.kernel.sim.now,
                thread.vtid,
                req.name,
                "master %s stopped publishing records on RB lane %d"
                % (master.name, lane.vtid),
                detected_by="ipmon",
                kind="stall",
            ),
        )

    # ------------------------------------------------------------------
    # Slave: validate, wait, copy.
    # ------------------------------------------------------------------
    def _slave_path(self, thread, req, token, handler, lane, blob_bytes):
        costs = self.kernel.config.costs
        group = self.group
        broker = self.kernel.ikb

        # Locate this replica's next record, waiting for the master to
        # publish it if necessary. Under a DegradationPolicy the wait
        # backs off exponentially and eventually reports the master as
        # stalled; a promotion observed mid-wait re-roles this replica.
        group.rb.attach_slave_to_lane(lane, self.replica_index)
        policy = group.remon.config.degradation
        backoff = RB_BACKOFF_INITIAL_NS if policy is not None else 0
        waited = 0
        remon_group = group.remon.group
        while True:
            if (
                self.replica_index == remon_group.master_index
                and lane.next_record_for(self.replica_index) is None
            ):
                # Promoted while waiting, and no backlog left to drain.
                return _RETRY_AS_MASTER
            record = lane.next_record_for(self.replica_index)
            if record is not None:
                state, _waiters, args_len, flags = record.words()
                if state >= 1:
                    break
            event = lane.args_waitq.register()
            status, _ = yield from wait_interruptible(
                thread, event, backoff if policy is not None else None
            )
            if status == "interrupted":
                lane.args_waitq.unregister(event)
                broker.revoke_token(thread)
                return -E.EINTR
            if status == "timeout":
                lane.args_waitq.unregister(event)
                group.stats["rb_backoff_retries"] += 1
                waited += backoff
                backoff = min(backoff * 2, RB_BACKOFF_MAX_NS)
                if waited >= RB_WAIT_TIMEOUT_NS:
                    self._master_stall(thread, req, lane)
                    waited = 0

        if state not in (STATE_ARGS_READY, STATE_RESULTS_READY) or flags & ~(
            FLAG_MAY_BLOCK | FLAG_FORWARDED
        ):
            # Header words IP-MON never writes: only RB tampering (a
            # leaked pointer, §4) produces them. Same verdict as an
            # argument mismatch.
            lane.consume(self.replica_index, self.kernel.sim)
            broker.revoke_token(thread)
            self.group.remon.divergence(
                DivergenceReport(
                    self.kernel.sim.now,
                    thread.vtid,
                    req.name,
                    "RB record %d header corrupted (state=0x%x flags=0x%x)"
                    % (record.seq, state, flags),
                    detected_by="ipmon",
                )
            )
            return -E.EPERM  # unreachable in practice: remon kills us
        if flags & FLAG_FORWARDED:
            # Master forwarded this call to GHUMVEE (or the record was
            # poisoned when a dying master was quarantined mid-call); do
            # the same so the lockstep rendezvous completes. Checked
            # *before* the argument compare: poisoned records carry no
            # argument blob, and the rendezvous' own deep compare still
            # protects against an attacker-flipped FORWARDED flag.
            lane.consume(self.replica_index, self.kernel.sim)
            result = yield from broker.route_to_monitor(thread, req)
            return result

        # Sanity check: compare our own arguments against the master's
        # recorded deep copy (§3: minimizes asymmetrical attacks).
        master_blob = record.args_blob(args_len)
        yield Sleep(
            costs.rb_read_base_ns + costs.compare_cost_ns(len(master_blob)), cpu=True
        )
        if master_blob != blob_bytes:
            # Intentional crash: signals GHUMVEE through ptrace and shuts
            # the MVEE down (paper §3.3).
            lane.consume(self.replica_index, self.kernel.sim)
            broker.revoke_token(thread)
            self.group.remon.ipmon_divergence(
                thread, req, master_blob, blob_bytes
            )
            return -E.EPERM  # unreachable in practice: remon kills us

        if handler.disposition() == ALLCALL:
            # Execute our own call (process-local effect) with our token.
            restart = req.replace(site="ipmon", token=token)
            ok, result = yield from broker.restart_call(thread, restart)
            if not ok:
                if policy is not None and policy.reissue_lost_tokens:
                    token = broker.reissue_token(thread, req)
                    group.stats["token_reissues"] += 1
                    ok, result = yield from broker.restart_call(
                        thread, req.replace(site="ipmon", token=token)
                    )
            if not ok:
                result = yield from broker.route_to_monitor(thread, req)
            lane.consume(self.replica_index, self.kernel.sim)
            return result

        # MASTERCALL: abort our own call, wait for the master's results.
        broker.revoke_token(thread)
        interrupted = yield from self._await_results(thread, req, record, flags, costs)
        if interrupted:
            lane.consume(self.replica_index, self.kernel.sim)
            return -E.EINTR
        args_len, now_flags, result, result_len, _pad = record.tail()
        if now_flags & FLAG_FORWARDED and not flags & FLAG_FORWARDED:
            # The record was poisoned while we waited (master quarantined
            # mid-call): forward to the rendezvous like everyone else.
            lane.consume(self.replica_index, self.kernel.sim)
            result = yield from broker.route_to_monitor(thread, req)
            return result
        payload = record.payload(args_len, result_len)
        yield Sleep(costs.rb_read_base_ns + costs.rb_copy_ns(len(payload)), cpu=True)
        handler.apply_results(self, req, result, payload)
        lane.consume(self.replica_index, self.kernel.sim)
        return result

    def _await_results(self, thread, req, record, flags, costs):
        """Wait for RESULTS_READY: spin for non-blocking calls, futex for
        blocking ones (§3.7). Returns True if interrupted by a signal.

        A stall deadline applies only to records *without* MAY_BLOCK: a
        master legitimately parked in epoll_wait or accept may take
        arbitrarily long, so its death mid-blocking-call is covered by
        record poisoning plus an explicit futex wake instead.
        """
        spins = 0
        group = self.group
        policy = group.remon.config.degradation
        may_block = bool(flags & FLAG_MAY_BLOCK)
        use_futex = may_block and not group.force_spin
        backoff = RB_BACKOFF_INITIAL_NS if policy is not None else 0
        waited = 0
        while True:
            state = record.words()[0]
            if state == STATE_RESULTS_READY:
                return False
            if state != STATE_ARGS_READY and state != 0:
                # Tampered mid-wait (see the header check in
                # _slave_path): corruption is divergence.
                self.group.remon.divergence(
                    DivergenceReport(
                        self.kernel.sim.now,
                        thread.vtid,
                        req.name,
                        "RB record %d state word corrupted (0x%x)"
                        % (record.seq, state),
                        detected_by="ipmon",
                    )
                )
                return True
            if not use_futex:
                yield Sleep(costs.spin_read_ns, cpu=True)
                spins += 1
                group.stats["spin_iterations"] += 1
                if spins >= SPIN_LIMIT and not group.force_spin:
                    use_futex = True
                    group.stats["spin_fallbacks"] += 1
                continue
            group.stats["futex_waits"] += 1
            record.add_waiter(+1)
            addr = self._rb_base + record.state_word_offset()
            timeout = backoff if (policy is not None and not may_block) else None
            result = yield from self.kernel.futexes.wait(
                self.kernel, thread, self.space, addr, record.words()[0], timeout
            )
            record.add_waiter(-1)
            if result == -E.EINTR:
                return True
            if result == -E.ETIMEDOUT:
                group.stats["rb_backoff_retries"] += 1
                waited += backoff
                backoff = min(backoff * 2, RB_BACKOFF_MAX_NS)
                if waited >= RB_WAIT_TIMEOUT_NS:
                    self._master_stall(thread, req, record.lane)
                    waited = 0
                continue
            yield Sleep(costs.futex_wait_ns, cpu=False)
        return False
