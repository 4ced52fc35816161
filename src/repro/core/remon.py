"""ReMon: the public entry point wiring all components together."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.epoll_map import EpollShadowMap
from repro.core.events import DivergenceReport, MveeResult
from repro.core.fdtable import MonitorFdTable
from repro.core.ghumvee import Ghumvee
from repro.core.ikb import InKernelBroker
from repro.core.ipmon import IpMonGroup, IpmonReplica
from repro.core.policies import DegradationPolicy, Level, RelaxationPolicy
from repro.core.rr_agent import RecordReplayAgent
from repro.core.supervisor import Supervisor
from repro.diversity.aslr import make_layouts
from repro.errors import MonitorError
from repro.guest.program import Program
from repro.guest.runtime import GuestRuntime
from repro.sim import Sleep


@dataclass
class ReMonConfig:
    """Configuration for one MVEE instance."""

    replicas: int = 2
    level: Level = Level.NONSOCKET_RW
    rb_size: int = 16 << 20
    aslr: bool = True
    dcl: bool = True
    allow_shared_memory: bool = False
    temporal: Optional[object] = None  # a TemporalPolicy, if any
    #: Ablation knob (§3.7): disable futex condvars, slaves always spin.
    ipmon_force_spin: bool = False
    #: §4 extension: IK-B periodically moves the RB to a fresh virtual
    #: address in every replica (None = disabled).
    rb_remap_interval_ns: Optional[int] = None
    #: §3.5: GHUMVEE arbitrates IP-MON registration and "can potentially
    #: prevent the registration altogether". When False, registrations
    #: are vetoed and the MVEE runs CP-only despite the relaxed level.
    allow_ipmon_registration: bool = True
    #: Graceful degradation (None = classic ReMon: every replica anomaly
    #: fail-stops the MVEE). See :class:`DegradationPolicy`.
    degradation: Optional[DegradationPolicy] = None
    #: Distributed execution (None = classic single-machine ReMon). When
    #: set to a :class:`repro.dist.DistConfig`, replicas run on separate
    #: simulated nodes (one per replica); use
    #: :func:`repro.dist.run_distributed` or :class:`repro.dist.DistMvee`
    #: to drive such a config.
    dist: Optional[object] = None
    #: Observability (repro.obs), for single-machine and distributed
    #: runs alike. None = metrics-only defaults: the
    #: registry still serves RunResult.stats, but spans and the flight
    #: recorder stay off and add zero virtual time.
    obs: Optional[object] = None
    seed: int = 0

    def policy(self) -> RelaxationPolicy:
        return RelaxationPolicy(self.level, temporal=self.temporal)


class ReMon(Supervisor):
    """A configured MVEE supervising N replicas of one program.

    Typical use::

        kernel = Kernel()
        mvee = ReMon(kernel, program, ReMonConfig(replicas=2))
        result = mvee.run()
    """

    def __init__(self, kernel, program: Program, config: Optional[ReMonConfig] = None):
        super().__init__(config or ReMonConfig(), kernel.sim)
        self.kernel = kernel
        self.program = program
        if self.config.replicas < 1:
            raise MonitorError("an MVEE needs at least one replica")
        self.policy = self.config.policy()
        self.fd_metadata = MonitorFdTable()
        self.epoll_map = EpollShadowMap(self.config.replicas)
        #: Exceptions from monitor coroutines; surfaced by finalize().
        self.monitor_failures: List[BaseException] = []
        self.layouts = make_layouts(
            self.config.replicas,
            seed=self.config.seed,
            aslr=self.config.aslr,
            dcl=self.config.dcl,
        )
        self._runtimes: List[GuestRuntime] = []
        self._started = False
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        kernel = self.kernel
        kernel.attach_obs(self.obs)
        self.program.install_files(kernel)
        pressure = kernel.config.costs.memory_pressure_per_replica
        sensitivity = getattr(self.program, "cache_sensitivity", 1.0)
        factor = 1.0 + pressure * (self.config.replicas - 1) * sensitivity
        for layout in self.layouts:
            process = kernel.create_process(
                "%s.r%d" % (self.program.name, layout.index),
                mmap_base=layout.mmap_base,
                brk_base=layout.brk_base,
            )
            process.compute_factor = factor
            self.group.add(process)

        # Cross-process monitor.
        self.ghumvee = Ghumvee(self)
        self.ghumvee.attach_all()

        # Kernel broker (shared per kernel).
        self.broker = getattr(kernel, "ikb", None)
        if self.broker is None:
            self.broker = InKernelBroker(kernel)
            kernel.syscall_hooks.append(self.broker)

        # In-process monitor, unless the policy disables it.
        self.ipmon: Optional[IpMonGroup] = None
        if self.config.level != Level.NO_IPMON:
            self.ipmon = IpMonGroup(
                self,
                self.policy,
                self.config.rb_size,
                force_spin=self.config.ipmon_force_spin,
            )
            for process, layout in zip(self.group.processes, self.layouts):
                replica = IpmonReplica(
                    self.ipmon,
                    process,
                    layout.index,
                    self.fd_metadata.region,
                )
                replica.map_buffers()

        # Record/replay agent for user-space synchronization.
        self.rr_agent = (
            RecordReplayAgent(kernel, self.config.replicas)
            if self.config.replicas > 1
            else None
        )

        for process, layout in zip(self.group.processes, self.layouts):
            if self.rr_agent is not None:
                agent = self.rr_agent

                def hook(ctx, _agent=agent):
                    ctx.rr_agent = _agent

                process.ctx_hook = hook
            runtime = GuestRuntime(
                kernel, process, self._wrapped_program(), layout=layout
            )
            self._runtimes.append(runtime)

        # Fault injection (repro.faults): let an installed injector
        # resolve replica indexes to this group's processes.
        if kernel.fault_injector is not None:
            kernel.fault_injector.bind_mvee(self)

    def _wrapped_program(self) -> Program:
        """The program each replica runs: with IP-MON, its registration
        preamble and then the program; without, the program itself (no
        wrapper generator for every item to pass through)."""
        base = self.program
        if self.ipmon is None:
            return base

        def main(ctx):
            yield from ctx.process.ipmon_replica.registration_preamble(ctx)
            result = yield from base.main(ctx)
            return result

        return Program(base.name, main, seed=base.seed)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for runtime in self._runtimes:
            runtime.start()
        interval = self.config.rb_remap_interval_ns
        if interval and self.ipmon is not None:
            self.kernel.sim.spawn(self._rb_remap_loop(interval), name="ikb-remap")

    def _rb_remap_loop(self, interval_ns: int):
        while not self.shutting_down and not self.group.all_exited():
            yield Sleep(interval_ns)
            if self.shutting_down or self.group.all_exited():
                return
            for replica in self.ipmon.replicas:
                if not replica.process.exited:
                    replica.remap_rb()

    def _raise_failures(self) -> None:
        if self.monitor_failures:
            primary = self.monitor_failures[0]
            # Surface every other monitor failure on the raised error so
            # a cascade (e.g. two replicas' monitors dying in one event)
            # is not silently reduced to its first symptom.
            if hasattr(primary, "add_note"):
                for extra in self.monitor_failures[1:]:
                    primary.add_note(
                        "additional monitor failure: %r" % (extra,)
                    )
            raise primary
        super()._raise_failures()

    def _collect_stats(self, result: MveeResult, registry) -> None:
        result.monitored_calls = self.ghumvee.stats["monitored_calls"]
        if self.ipmon is not None:
            result.unmonitored_calls = self.ipmon.stats["unmonitored_calls"]
            result.rb_resets = self.ipmon.stats["rb_resets"]
        result.deferred_signals = self.ghumvee.stats["signals_deferred"]
        registry.ingest("", self.ghumvee.stats, source="ghumvee")
        registry.ingest("broker_", self.broker.stats, source="broker")
        if self.ipmon is not None:
            registry.ingest("ipmon_", self.ipmon.stats, source="ipmon")
        if self.rr_agent is not None:
            registry.ingest("rr_", self.rr_agent.stats, source="rr")
        registry.expose(
            "rb_backoff_retries", self._ipmon_stats().get("rb_backoff_retries", 0)
        )

    def _ipmon_stats(self) -> dict:
        return self.ipmon.stats if self.ipmon is not None else {}

    def rb_lanes(self) -> Optional[dict]:
        return self.ipmon.rb.lanes if self.ipmon is not None else None

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _postmortem_context(self, report: DivergenceReport):
        ipmon_stats = self._ipmon_stats()
        attribution = {
            "vtid": report.vtid,
            "replica": report.replica,
            "master_index": self.group.master_index,
            "quarantined": list(self.result.quarantined_replicas),
        }
        backoff = {
            "rendezvous_backoff_retries": self.ghumvee.stats[
                "rendezvous_backoff_retries"
            ],
            "rb_backoff_retries": ipmon_stats.get("rb_backoff_retries", 0),
            "rb_resets": ipmon_stats.get("rb_resets", 0),
        }
        return attribution, backoff

    def _teardown_delay_ns(self) -> int:
        # Detection is not teardown: the monitor must wake up and kill
        # the replicas, which takes a ptrace round trip. Monitored calls
        # stop being serviced immediately (GHUMVEE parks all stops once
        # a divergence is flagged), but an unmonitored call already in
        # flight can still complete — the §4 run-ahead window.
        return self.kernel.config.costs.ptrace_roundtrip_ns()

    def ipmon_divergence(self, thread, req, master_blob, own_blob) -> None:
        report = DivergenceReport(
            self.kernel.sim.now,
            thread.vtid,
            req.name,
            "slave argument record differs from master's (%d vs %d bytes)"
            % (len(own_blob), len(master_blob)),
            detected_by="ipmon",
            replica_args=[master_blob, own_blob],
            replica=thread.process.replica_index,
        )
        self.divergence(report)

    # ------------------------------------------------------------------
    # Graceful degradation (config.degradation)
    # ------------------------------------------------------------------
    def crash_would_degrade(self, process) -> bool:
        """Would this replica's death be absorbed (quarantined) rather
        than fail-stop the MVEE? GHUMVEE consults this before tearing
        down lockstep state for a dying replica, so that the quarantine
        path can shrink the rendezvous quorum in a controlled way."""
        policy = self.config.degradation
        if policy is None or self.shutting_down or self.diverged:
            return False
        if process.quarantined:
            return True
        if policy.classify_kind("crash") != "benign":
            return False
        if (
            process.replica_index == self.group.master_index
            and not policy.promote_master
        ):
            return False
        return len(self._survivors_excluding(process)) >= policy.min_quorum

    def _release(self, index: int, was_master: bool,
                 report: DivergenceReport) -> None:
        """Detach the quarantined replica from ptrace, release its RB
        lanes and lockstep slots, and shrink the rendezvous quorum."""
        self.ghumvee.on_replica_quarantined(index, was_master)
        if self.ipmon is not None:
            self.ipmon.on_replica_quarantined(index, was_master)
        if self.rr_agent is not None:
            self.rr_agent.drop_replica(index)
        self.ghumvee.tracer.detach(self.group.processes[index])

    def _promote(self, dead_index: int) -> None:
        """Re-point master-side state at the lowest surviving replica:
        real open files migrate over its shadow descriptors, the epoll
        shadow map re-keys, and the rr_agent records from it onward."""
        survivors = self.group.survivors()
        if not survivors:
            return
        new_master = survivors[0]  # processes are kept in index order
        new_index = new_master.replica_index
        old_master = self.group.processes[dead_index]
        for fd in old_master.fdtable.fds():
            entry = old_master.fdtable.get(fd)
            if entry is None or entry.ofd.file.kind == "shadow":
                continue
            target = new_master.fdtable.get(fd)
            if target is not None and target.ofd.file.kind != "shadow":
                continue  # the survivor already owns a real file here
            new_master.fdtable.install(fd, entry.ofd, entry.cloexec)
        self.group.master_index = new_index
        self.epoll_map.promote(new_index)
        if self.rr_agent is not None:
            self.rr_agent.promote(new_index)
        self.degradation_stats["master_promotions"] += 1

    def on_replica_thread_exit(self, stop) -> None:
        process = stop.thread.process
        if not process.exited:
            return
        # A replica that dies while the others run on — and not as part
        # of an agreed exit_group — is a fault: a benign crash to absorb
        # under a DegradationPolicy, otherwise the classic divergence
        # (diversity turned the attack into an observable crash, §4).
        if (
            not self.shutting_down
            and not self.ghumvee.group_exiting
            and not process.quarantined
            and not self.group.all_exited()
        ):
            self.replica_fault(
                process,
                DivergenceReport(
                    self.kernel.sim.now,
                    stop.thread.vtid,
                    stop.req.name if stop.req else "",
                    "replica %s terminated unexpectedly (sig=%d)"
                    % (process.name, stop.signo),
                    detected_by="exit",
                    kind="crash",
                ),
            )
        # Checked *after* fault handling: a quarantined master hands the
        # clock to its successor instead of freezing wall time.
        self._replica_exited(process, sets_wall_time=True)
