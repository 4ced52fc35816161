"""The fault injector: deterministic fault delivery into a live MVEE.

Fault triggers are expressed either in virtual time (``at_ns``) or in
per-replica syscall counts (``after_syscalls``), both of which are
deterministic in the discrete-event simulation. The injector keeps all
runtime state (remaining counts, fired flags) internal, so a single
:class:`FaultPlan` can be replayed across runs without bleed-through.

Hook points (see ``Kernel.syscall_path`` / ``Kernel.invoke`` /
``InKernelBroker._forward_to_ipmon``):

* **crash** — the replica process is terminated (SIGKILL/SIGSEGV) at
  dispatch of its Nth syscall or at a virtual deadline;
* **stall** — the replica sleeps ``duration_ns`` inside dispatch,
  without publishing records or reaching its rendezvous;
* **error** — a raw handler invocation returns ``-errno`` (EIO, ENOMEM,
  EINTR, ...) instead of executing. Injected at :meth:`Kernel.invoke`,
  so a master-call error is replicated consistently to the slaves;
* **token loss** — IK-B "forgets" an authorization token right after
  issuing it, so IP-MON's restart fails verification;
* **RB corruption** — a byte of the next unconsumed record's argument
  blob is flipped, which a slave's PRECALL comparison must catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import FaultConfigError
from repro.kernel import constants as C

_LCG_MULT = 6364136223846793005
_LCG_ADD = 1442695040888963407
_MASK = (1 << 64) - 1


def _lcg(state: int) -> int:
    return (state * _LCG_MULT + _LCG_ADD) & _MASK


@dataclass
class CrashFault:
    """Terminate one replica with a signal (SIGKILL/SIGSEGV)."""

    replica: int
    at_ns: Optional[int] = None
    after_syscalls: Optional[int] = None
    signo: int = C.SIGKILL

    def __post_init__(self):
        if (self.at_ns is None) == (self.after_syscalls is None):
            raise FaultConfigError(
                "CrashFault needs exactly one of at_ns / after_syscalls"
            )


@dataclass
class ShardOwnerCrashFault:
    """Terminate whichever replica owns a rendezvous shard *at fire
    time* (distributed clusters only).

    Unlike :class:`CrashFault` the victim is not fixed in the plan: it
    is resolved against ``mvee.shard_owners()`` when the deadline
    arrives, so the fault always lands on a node that actually hosts
    per-shard monitor state — the scenario the epoch/handoff protocol
    exists for. With ``prefer_non_leader`` the first non-leader owner
    is chosen (isolating shard handoff from leader promotion); if the
    leader is the only owner it is crashed anyway.
    """

    at_ns: int
    signo: int = C.SIGKILL
    prefer_non_leader: bool = True


@dataclass
class StallFault:
    """Freeze one replica for ``duration_ns`` inside syscall dispatch."""

    replica: int
    duration_ns: int
    at_ns: Optional[int] = None
    after_syscalls: Optional[int] = None

    def __post_init__(self):
        if (self.at_ns is None) == (self.after_syscalls is None):
            raise FaultConfigError(
                "StallFault needs exactly one of at_ns / after_syscalls"
            )


@dataclass
class SyscallErrorFault:
    """Force ``-errno`` from the next matching raw handler invocations."""

    replica: int
    syscall: str
    errno: int
    count: int = 1
    skip_first: int = 0  # matching invocations to let through first


@dataclass
class TokenLossFault:
    """Drop IK-B authorization tokens issued to one replica."""

    replica: int
    count: int = 1
    skip_first: int = 0  # tokens to issue normally first


@dataclass
class RBCorruptionFault:
    """Flip a byte in the args blob of a pending RB record."""

    at_ns: int
    lane_vtid: Optional[int] = None  # None: first lane with a pending record
    flip_mask: int = 0xFF


@dataclass
class LinkDegradeFault:
    """Degrade one *directed* inter-node link for a window of virtual
    time (distributed clusters only): raise its loss/dup/reorder
    probabilities — and optionally its latency — at ``at_ns``, then
    restore the link's previous parameters ``duration_ns`` later.

    ``src``/``dst`` are node indices. The degradation is directed
    (src -> dst traffic only), matching the granularity the per-link
    circuit breakers monitor at; degrade both directions with two
    faults. Attaching a plan containing one of these arms the reliable
    transport from the start of the run.
    """

    at_ns: int
    src: int
    dst: int
    duration_ns: int
    loss_prob: float = 0.0
    dup_prob: float = 0.0
    reorder_prob: float = 0.0
    latency_ns: Optional[int] = None

    def __post_init__(self):
        if self.duration_ns <= 0:
            raise FaultConfigError("LinkDegradeFault needs duration_ns > 0")
        if self.src == self.dst:
            raise FaultConfigError("LinkDegradeFault needs src != dst")
        for name in ("loss_prob", "dup_prob", "reorder_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultConfigError(
                    "LinkDegradeFault %s must be in [0, 1], got %r"
                    % (name, value)
                )


@dataclass
class NodeRejoinFault:
    """Crash one replica at ``at_ns`` *and* force the lifecycle manager
    to replay-readmit it, even when ``LifecycleConfig.rejoin`` is off
    (distributed clusters with ``DistConfig.lifecycle`` armed only).

    Equivalent to a timed :class:`CrashFault` plus a one-shot rejoin
    grant, so recovery sweeps can price re-admission without globally
    enabling auto-rejoin for every crash in the plan.
    """

    replica: int
    at_ns: int
    signo: int = C.SIGKILL

    def __post_init__(self):
        if self.at_ns <= 0:
            raise FaultConfigError("NodeRejoinFault needs at_ns > 0")


@dataclass
class FaultPlan:
    """An ordered collection of faults, optionally generated from a seed."""

    faults: List = field(default_factory=list)

    def __iter__(self):
        return iter(self.faults)

    def __len__(self):
        return len(self.faults)

    @classmethod
    def random_crashes(
        cls,
        seed: int,
        replicas: int,
        duration_ns: int,
        crash_rate_hz: float,
        include_master: bool = True,
    ) -> "FaultPlan":
        """A deterministic plan of crash faults at the given rate.

        The crash count is ``rate * duration`` rounded to the nearest
        integer; times and victim replicas come from the same LCG the
        simulated kernel uses, so a (seed, rate, replicas) triple always
        produces the identical plan.
        """
        if replicas < 2:
            raise FaultConfigError("random_crashes needs at least 2 replicas")
        state = (seed or 1) & _MASK
        count = int(round(crash_rate_hz * duration_ns / 1e9))
        faults = []
        for _ in range(count):
            state = _lcg(state)
            at_ns = 1 + state % max(1, duration_ns)
            state = _lcg(state)
            if include_master:
                victim = state % replicas
            else:
                victim = 1 + state % (replicas - 1)
            faults.append(CrashFault(replica=victim, at_ns=at_ns))
        faults.sort(key=lambda f: (f.at_ns, f.replica))
        return cls(faults)


class FaultInjector:
    """Delivers one :class:`FaultPlan` into a kernel/MVEE pair.

    Use::

        kernel = Kernel()
        FaultInjector(plan).install(kernel)
        mvee = ReMon(kernel, program, config)   # binds itself
        result = mvee.run()
    """

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan or FaultPlan()
        self.kernel = None
        self.mvee = None
        self.obs = None
        self.stats: Dict[str, int] = {
            "crashes": 0,
            "stalls": 0,
            "errors": 0,
            "tokens_lost": 0,
            "rb_corruptions": 0,
            "link_degrades": 0,
            "skipped": 0,  # faults whose target was already gone
        }
        # Per-replica dispatch counts (drives after_syscalls triggers).
        self._dispatches: Dict[int, int] = {}
        # Count-triggered crash/stall faults per replica, time-triggered
        # stalls pending consumption at the replica's next dispatch.
        self._count_faults: Dict[int, List] = {}
        self._pending_stalls: Dict[int, List[int]] = {}
        # Mutable runtime state for error/token faults: [fault, skip, left].
        self._error_state: List[List] = []
        self._token_state: List[List] = []
        self._timed: List = []
        for fault in self.plan:
            if isinstance(fault, (CrashFault, StallFault)):
                if fault.at_ns is not None:
                    self._timed.append(fault)
                else:
                    self._count_faults.setdefault(fault.replica, []).append(fault)
            elif isinstance(fault, ShardOwnerCrashFault):
                self._timed.append(fault)
            elif isinstance(fault, SyscallErrorFault):
                self._error_state.append([fault, fault.skip_first, fault.count])
            elif isinstance(fault, TokenLossFault):
                self._token_state.append([fault, fault.skip_first, fault.count])
            elif isinstance(fault, RBCorruptionFault):
                self._timed.append(fault)
            elif isinstance(fault, LinkDegradeFault):
                self._timed.append(fault)
            elif isinstance(fault, NodeRejoinFault):
                self._timed.append(fault)
            else:
                raise FaultConfigError("unknown fault type: %r" % (fault,))

    @property
    def total_injected(self) -> int:
        return (
            self.stats["crashes"]
            + self.stats["stalls"]
            + self.stats["errors"]
            + self.stats["tokens_lost"]
            + self.stats["rb_corruptions"]
            + self.stats["link_degrades"]
        )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def install(self, kernel) -> "FaultInjector":
        self.kernel = kernel
        kernel.fault_injector = self
        now = kernel.sim.now
        for fault in self._timed:
            at = max(now + 1, fault.at_ns)
            if isinstance(fault, RBCorruptionFault):
                kernel.sim.call_at(at, self._fire_rb_corruption, fault, 0)
            elif isinstance(fault, LinkDegradeFault):
                kernel.sim.call_at(at, self._fire_link_degrade, fault)
            elif isinstance(fault, ShardOwnerCrashFault):
                kernel.sim.call_at(at, self._fire_shard_owner_crash, fault)
            elif isinstance(fault, CrashFault):
                kernel.sim.call_at(at, self._fire_crash, fault)
            elif isinstance(fault, NodeRejoinFault):
                kernel.sim.call_at(at, self._fire_node_rejoin, fault)
            else:
                kernel.sim.call_at(at, self._fire_stall, fault)
        return self

    def bind_mvee(self, mvee) -> None:
        """Called by the front end (a ``Supervisor``) once its replica
        group exists: the injector resolves every fault target through
        it."""
        self.mvee = mvee
        self.obs = mvee.obs

    def _obs_fault(self, kind: str, replica: Optional[int] = None) -> None:
        """Mirror one injected fault into the obs registry (and the
        flight recorder ring, so postmortem tails show the injection)."""
        obs = self.obs
        if obs is None:
            return
        obs.registry.counter("faults_injected_total").inc()
        obs.registry.counter("faults_" + kind).inc()
        if obs.recorder is not None and replica is not None:
            now = self.kernel.sim.now if self.kernel is not None else 0
            obs.recorder.record(replica, now, "fault", kind)

    def _replica_process(self, index: int):
        if self.mvee is not None:
            processes = self.mvee.group.processes
            if 0 <= index < len(processes):
                return processes[index]
            return None
        if self.kernel is not None:
            for process in self.kernel.processes.values():
                if process.replica_index == index:
                    return process
        return None

    # ------------------------------------------------------------------
    # Timed faults
    # ------------------------------------------------------------------
    def _fire_crash(self, fault: CrashFault) -> None:
        process = self._replica_process(fault.replica)
        if process is None or process.exited:
            self.stats["skipped"] += 1
            return
        self.stats["crashes"] += 1
        self._obs_fault("crash", fault.replica)
        self.kernel.terminate_process(process, 128 + fault.signo, signo=fault.signo)

    def _fire_node_rejoin(self, fault: NodeRejoinFault) -> None:
        process = self._replica_process(fault.replica)
        if process is None or process.exited:
            self.stats["skipped"] += 1
            return
        if self.mvee is not None:
            self.mvee.grant_rejoin(fault.replica)
        self.stats["crashes"] += 1
        self._obs_fault("crash", fault.replica)
        self.kernel.terminate_process(process, 128 + fault.signo, signo=fault.signo)

    def _fire_shard_owner_crash(self, fault: ShardOwnerCrashFault) -> None:
        mvee = self.mvee
        owners = mvee.shard_owners() if mvee is not None else ()
        if not owners:  # a front end without shards: nothing to target
            self.stats["skipped"] += 1
            return
        victim = owners[0]
        if fault.prefer_non_leader:
            leader = mvee.group.master_index
            for owner in owners:
                if owner != leader:
                    victim = owner
                    break
        process = self._replica_process(victim)
        if process is None or process.exited:
            self.stats["skipped"] += 1
            return
        self.stats["crashes"] += 1
        self._obs_fault("crash", victim)
        self.kernel.terminate_process(process, 128 + fault.signo, signo=fault.signo)

    def _fire_link_degrade(self, fault: LinkDegradeFault) -> None:
        if self.mvee is None or not self.mvee.degrade_link(fault):
            self.stats["skipped"] += 1  # no such inter-node link
            return
        self.stats["link_degrades"] += 1
        self._obs_fault("link_degrade", fault.src)

    def _fire_stall(self, fault: StallFault) -> None:
        process = self._replica_process(fault.replica)
        if process is None or process.exited:
            self.stats["skipped"] += 1
            return
        # Consumed (and charged) at the replica's next syscall dispatch.
        self._pending_stalls.setdefault(fault.replica, []).append(fault.duration_ns)

    def _fire_rb_corruption(self, fault: RBCorruptionFault, attempt: int) -> None:
        lanes = self.mvee.rb_lanes() if self.mvee is not None else None
        if lanes is None:
            # The front end has no in-process RB to corrupt.
            self.stats["skipped"] += 1
            return
        record = self._find_pending_record(fault, lanes)
        if record is None:
            # No record in flight right now; retry briefly, then give up.
            if attempt < 200 and not self.mvee.shutting_down:
                self.kernel.sim.call_at(
                    self.kernel.sim.now + 50_000, self._fire_rb_corruption, fault, attempt + 1
                )
            else:
                self.stats["skipped"] += 1
            return
        from repro.core.rb import HEADER_SIZE

        region = record.region
        if not record.args_blob(record.words()[2]):
            self.stats["skipped"] += 1
            return
        pos = record.offset + HEADER_SIZE
        region.write(pos, bytes(((region.read(pos, 1)[0] ^ fault.flip_mask) & 0xFF,)))
        self.stats["rb_corruptions"] += 1
        self._obs_fault("rb_corruption")

    def _find_pending_record(self, fault: RBCorruptionFault, lanes: dict):
        candidates = (
            [lanes[fault.lane_vtid]]
            if fault.lane_vtid is not None and fault.lane_vtid in lanes
            else list(lanes.values())
        )
        for lane in candidates:
            for index in sorted(lane.consumed):
                record = lane.next_record_for(index)
                if record is not None and record.words()[0] >= 1 and record.args_len:
                    return record
        return None

    # ------------------------------------------------------------------
    # Dispatch hook (Kernel.syscall_path)
    # ------------------------------------------------------------------
    def on_syscall_entry(self, thread, req) -> Optional[Tuple[str, int]]:
        """Consulted at every syscall dispatch of a replica thread.

        Returns None (no fault), ("crash", signo) after terminating the
        process, or ("stall", duration_ns) — the kernel sleeps and
        re-checks liveness.
        """
        index = thread.process.replica_index
        if index is None:
            return None
        count = self._dispatches.get(index, 0) + 1
        self._dispatches[index] = count
        pending = self._pending_stalls.get(index)
        if pending:
            duration = pending.pop(0)
            self.stats["stalls"] += 1
            self._obs_fault("stall", index)
            return ("stall", duration)
        faults = self._count_faults.get(index)
        if not faults:
            return None
        for fault in faults:
            if count >= fault.after_syscalls:
                faults.remove(fault)
                if isinstance(fault, CrashFault):
                    self.stats["crashes"] += 1
                    self._obs_fault("crash", index)
                    self.kernel.terminate_process(
                        thread.process, 128 + fault.signo, signo=fault.signo
                    )
                    return ("crash", fault.signo)
                self.stats["stalls"] += 1
                self._obs_fault("stall", index)
                return ("stall", fault.duration_ns)
        return None

    # ------------------------------------------------------------------
    # Raw-invocation hook (Kernel.invoke)
    # ------------------------------------------------------------------
    def on_invoke(self, thread, req) -> Optional[int]:
        """Returns a positive errno to force ``-errno``, else None."""
        if not self._error_state:
            return None
        index = thread.process.replica_index
        if index is None:
            return None
        for state in self._error_state:
            fault, skip, left = state
            if left <= 0 or fault.replica != index or fault.syscall != req.name:
                continue
            if skip > 0:
                state[1] = skip - 1
                continue
            state[2] = left - 1
            self.stats["errors"] += 1
            self._obs_fault("error", index)
            return fault.errno
        return None

    # ------------------------------------------------------------------
    # IK-B hook (token issuance)
    # ------------------------------------------------------------------
    def steal_token(self, thread, req) -> bool:
        """True if the token just issued for this call should be lost."""
        if not self._token_state:
            return False
        index = thread.process.replica_index
        if index is None:
            return False
        for state in self._token_state:
            fault, skip, left = state
            if left <= 0 or fault.replica != index:
                continue
            if skip > 0:
                state[1] = skip - 1
                continue
            state[2] = left - 1
            self.stats["tokens_lost"] += 1
            self._obs_fault("token_loss", index)
            return True
        return False
