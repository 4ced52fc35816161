"""Harness for running attack scenarios and classifying outcomes."""

from __future__ import annotations

from typing import Callable, Optional

from repro.core import Level, ReMon, ReMonConfig
from repro.kernel import Kernel


class AttackOutcome:
    """What happened when a scenario ran against a monitor."""

    def __init__(self):
        #: Did the attacker's externally visible action (exfiltration,
        #: file write, unmonitored sensitive call) actually execute?
        self.effect_occurred = False
        #: Description of the effect, when it occurred.
        self.effect: str = ""
        #: Did the monitor detect anything? ("ghumvee", "ipmon", "exit",
        #: "varan", or "" for undetected)
        self.detected_by: str = ""
        self.detection_time_ns: Optional[int] = None
        self.notes: dict = {}

    @property
    def blocked(self) -> bool:
        return not self.effect_occurred

    @property
    def detected(self) -> bool:
        return bool(self.detected_by)

    def __repr__(self):
        return "AttackOutcome(effect=%r, detected_by=%r)" % (
            self.effect_occurred,
            self.detected_by or None,
        )


def run_attack(
    program_factory: Callable,
    level: Level = Level.NONSOCKET_RW,
    replicas: int = 2,
    aslr: bool = True,
    dcl: bool = True,
    temporal=None,
    kernel: Optional[Kernel] = None,
    max_steps: int = 20_000_000,
    **config_kwargs,
):
    """Run an attack program under ReMon.

    ``program_factory(outcome)`` builds the guest program; the program
    records attack effects into the shared :class:`AttackOutcome`.
    Extra keyword arguments flow into :class:`ReMonConfig`. Returns
    ``(outcome, mvee_result)``.
    """
    outcome = AttackOutcome()
    kernel = kernel or Kernel()
    program = program_factory(outcome)
    config = ReMonConfig(
        replicas=replicas,
        level=level,
        aslr=aslr,
        dcl=dcl,
        temporal=temporal,
        **config_kwargs,
    )
    mvee = ReMon(kernel, program, config)
    result = mvee.run(max_steps=max_steps)
    if result.diverged:
        outcome.detected_by = result.divergence.detected_by
        outcome.detection_time_ns = result.divergence.time_ns
    return outcome, result


def run_attack_dist(
    program_factory: Callable,
    nodes: int = 3,
    level: Level = Level.SOCKET_RW,
    heterogeneous: bool = True,
    leak_node: Optional[int] = None,
    leak_family: bool = False,
    leak_offset: int = 0x1234,
    max_steps: int = 400_000_000,
    **config_kwargs,
):
    """Run an attack program against a distributed cluster.

    ``leak_node`` simulates a complete single-node layout leak: before
    the run starts, ``outcome.notes["payload_addr"]`` is seeded with a
    code address harvested from that node's *real* layout (code base +
    ``leak_offset``), exactly what an infoleak on that one machine
    would hand the attacker. ``leak_family`` is the catastrophic case
    a shared cluster seed permits — the attacker reconstructed every
    node's layout and tailors a payload per node (the list form of the
    leaked address). ``outcome.notes["node_layouts"]`` always carries
    every node's layout so callers can run
    :func:`repro.attacks.scenarios.dcl_analysis` over the cluster.
    Returns ``(outcome, mvee_result)``.
    """
    from repro.dist import DistConfig, DistMvee

    outcome = AttackOutcome()
    program = program_factory(outcome)
    config = ReMonConfig(
        replicas=nodes,
        level=level,
        dist=DistConfig(heterogeneous=heterogeneous),
        **config_kwargs,
    )
    mvee = DistMvee(program, config)
    outcome.notes["node_layouts"] = [node.layout for node in mvee.nodes]
    if leak_family:
        outcome.notes["payload_addr"] = [
            node.layout.code_base + leak_offset for node in mvee.nodes
        ]
    elif leak_node is not None:
        leaked = mvee.nodes[leak_node].layout
        outcome.notes["leak_node"] = leak_node
        outcome.notes["payload_addr"] = leaked.code_base + leak_offset
    result = mvee.run(max_steps=max_steps)
    if result.diverged:
        outcome.detected_by = result.divergence.detected_by
        outcome.detection_time_ns = result.divergence.time_ns
    return outcome, result


def run_attack_varan(
    program_factory: Callable,
    replicas: int = 2,
    ring_entries: int = 256,
    kernel: Optional[Kernel] = None,
    max_steps: int = 20_000_000,
):
    """Run an attack program under the VARAN-style baseline."""
    from repro.baselines.varan import Varan, VaranConfig

    outcome = AttackOutcome()
    kernel = kernel or Kernel()
    program = program_factory(outcome)
    varan = Varan(kernel, program, VaranConfig(replicas=replicas, ring_entries=ring_entries))
    result = varan.run(max_steps=max_steps)
    if result.divergence is not None:
        outcome.detected_by = result.divergence.detected_by
        outcome.detection_time_ns = result.divergence.time_ns
    return outcome, result
