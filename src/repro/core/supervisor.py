"""The fault policy every MVEE front end shares (DESIGN.md §7).

GHUMVEE fail-stops on any replica anomaly; a :class:`~repro.core.
policies.DegradationPolicy` relaxes only the benign half of that rule.
:class:`Supervisor` implements that policy once, for both the
single-machine :class:`~repro.core.remon.ReMon` and the distributed
:class:`~repro.dist.cluster.DistMvee`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.events import DivergenceReport, MveeResult
from repro.obs import Obs


class ReplicaGroup:
    """The ordered set of replica processes (index 0 starts as master;
    a DegradationPolicy may promote a survivor when the master dies)."""

    def __init__(self):
        self.processes: List = []
        self.master_index = 0

    def add(self, process) -> None:
        process.replica_index = len(self.processes)
        self.processes.append(process)

    def master(self):
        return self.processes[self.master_index]

    def survivors(self, exclude=None):
        """Live, unquarantined processes in index order, less ``exclude``."""
        return [
            p
            for p in self.processes
            if p is not exclude and not p.exited and not p.quarantined
        ]

    def all_exited(self) -> bool:
        return all(process.exited for process in self.processes)

    def __len__(self):
        return len(self.processes)


class Supervisor:
    """Divergence, shutdown, quarantine and result assembly for one
    replica group. A subclass builds the group, defines ``start()``, and
    supplies what differs between front ends through these hooks:
    ``_teardown_delay_ns()`` (detection to kill),
    ``_postmortem_context(report)`` (the attribution and backoff dicts),
    ``_promote(dead_index)``, ``_release(index, was_master, report)``
    (free a quarantined replica's monitor state once it is marked,
    promoted away from and killed) and ``_collect_stats(result, registry)``.
    The fault injector finds its targets through ``shard_owners()``,
    ``degrade_link(fault)``, ``grant_rejoin(index)`` and ``rb_lanes()``;
    a front end without the target keeps the default, and the fault
    counts as skipped.
    """

    def __init__(self, config, sim):
        self.config = config
        self.sim = sim
        self.group = ReplicaGroup()
        self.result = MveeResult()
        self.shutting_down = False
        self.master_exit_ns: Optional[int] = None
        self.degradation_stats = {
            "replicas_quarantined": 0,
            "master_promotions": 0,
        }
        #: Observability (repro.obs); config.obs None = metrics only.
        self.obs = Obs.create(config.obs, sim)
        if self.obs.tracer.enabled and sim.trace_sink is None:
            sim.trace_sink = self.obs.tracer

    @property
    def diverged(self) -> bool:
        return self.result.diverged

    def run(self, until: Optional[int] = None,
            max_steps: Optional[int] = None) -> MveeResult:
        self.start()
        self.sim.run(until=until, max_steps=max_steps)
        return self.finalize()

    def _wake_everyone(self) -> None:
        """Wake threads parked on monitor state so they observe a
        teardown (no-op unless the subclass parks threads itself)."""

    # ------------------------------------------------------------------
    # Fault targets (repro.faults)
    # ------------------------------------------------------------------
    def shard_owners(self) -> Tuple[int, ...]:
        """Replicas that own rendezvous shards: none without shards."""
        return ()

    def degrade_link(self, fault) -> bool:
        """Apply a ``LinkDegradeFault``: False without inter-node links."""
        return False

    def grant_rejoin(self, index: int) -> None:
        """Let a ``NodeRejoinFault`` victim be re-admitted after its
        crash: nothing to grant without a lifecycle."""

    def rb_lanes(self) -> Optional[dict]:
        """The in-process RB's lanes by vtid; ``None`` without an RB."""
        return None

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _record_postmortem(self, reason: str, report: DivergenceReport) -> None:
        """Snapshot the flight recorder (if enabled) into the result."""
        attribution, backoff = self._postmortem_context(report)
        postmortem = self.obs.emit_postmortem(
            reason, report, attribution=attribution, backoff=backoff
        )
        if postmortem is not None:
            self.result.postmortems.append(postmortem)

    def divergence(self, report: DivergenceReport) -> None:
        if self.shutting_down or self.result.divergence is not None:
            return
        self.result.divergence = report
        self._record_postmortem("divergence", report)
        if self.group.all_exited():
            # Nothing left to kill, and the simulator clock may already
            # have stopped advancing — scheduling a delayed shutdown
            # would either be a no-op or raise for being in the past.
            if not self.result.shutdown_reason:
                self.result.shutdown_reason = "divergence: %s" % report.detail
            return
        self.sim.call_at(
            self.sim.now + self._teardown_delay_ns(),
            self.shutdown, "divergence: %s" % report.detail,
        )

    def shutdown(self, reason: str) -> None:
        if self.shutting_down:
            return
        self.shutting_down = True
        self.result.shutdown_reason = reason
        for process in self.group.processes:
            if not process.exited:
                process.kernel.terminate_process(process, 137, signo=9)
        self._wake_everyone()

    # ------------------------------------------------------------------
    # Graceful degradation (config.degradation)
    # ------------------------------------------------------------------
    def replica_fault(self, process, report: DivergenceReport) -> None:
        """A replica crashed, stalled or lost its link. Quarantine it
        when the policy classifies the fault benign and quorum holds;
        otherwise take the classic fail-stop path via :meth:`divergence`."""
        if self.shutting_down or self.diverged or process.quarantined:
            return
        policy = self.config.degradation
        if policy is None or policy.classify(report) != "benign":
            self.divergence(report)
            return
        survivors = self.group.survivors(exclude=process)
        if len(survivors) < policy.min_quorum:
            report.detail += " [quorum lost: %d survivors < min_quorum %d]" % (
                len(survivors),
                policy.min_quorum,
            )
            self.divergence(report)
            return
        self.quarantine(process, report)

    def quarantine(self, process, report: DivergenceReport) -> None:
        """Remove one replica from the group and continue with N−1,
        promoting a new master when the master is the one lost (the
        paper's fail-stop policy relaxed to a quorum rule; every
        *mismatch* still fail-stops)."""
        index = process.replica_index
        was_master = index == self.group.master_index
        policy = self.config.degradation
        if was_master and (policy is None or not policy.promote_master):
            self.divergence(report)
            return
        process.quarantined = True
        self.result.fault_events.append(report)
        if report.replica is None:
            report.replica = index
        self.result.quarantined_replicas.append(index)
        self.degradation_stats["replicas_quarantined"] += 1
        self._record_postmortem("quarantine", report)
        # Promotion must precede termination: fd migration reads the
        # dying master's still-intact descriptor table.
        if was_master:
            self._promote(index)
        if not process.exited:
            process.kernel.terminate_process(process, 137, signo=9)
        self._release(index, was_master, report)

    def _replica_exited(self, process, sets_wall_time: bool) -> None:
        """A replica's process exited: a live master's exit fixes the
        run's wall time (when ``sets_wall_time``), and the last exit
        names the shutdown reason."""
        if (
            sets_wall_time
            and process.replica_index == self.group.master_index
            and not process.quarantined
            and self.master_exit_ns is None
        ):
            self.master_exit_ns = self.sim.now
        if self.group.all_exited() and not self.result.shutdown_reason:
            self.result.shutdown_reason = "all replicas exited"

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    def _raise_failures(self) -> None:
        for process in self.group.processes:
            if process.quarantined:
                # A quarantined replica was killed mid-flight by design;
                # whatever its guest task raised *is* the absorbed fault.
                continue
            for thread in process.threads.values():
                task = thread.task
                if task is not None and task.failure is not None:
                    raise task.failure

    def finalize(self) -> MveeResult:
        self._raise_failures()
        result = self.result
        result.exit_codes = [p.exit_code for p in self.group.processes]
        result.wall_time_ns = (
            self.master_exit_ns
            if self.master_exit_ns is not None
            else self.sim.now
        )
        # All component stats flow through the obs registry adapter
        # (ingest is idempotent, so finalize may run twice).
        registry = self.obs.registry
        self._collect_stats(result, registry)
        registry.ingest("", self.degradation_stats, source="degradation")
        injector = self.group.processes[0].kernel.fault_injector
        registry.expose(
            "faults_injected",
            injector.total_injected if injector is not None else 0,
        )
        result.stats = registry.stats_view()
        self.obs.export_files(result.postmortems)
        return result
