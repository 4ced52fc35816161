"""Cross-node layout-leak attacks against distributed clusters.

The DMON gap the heterogeneous profiles close (DESIGN.md §13): with one
layout family per run, leaking the cluster seed (equivalently, one
monitor's view of the family) lets the attacker tailor a payload for
every node and compromise the fleet in lockstep — no divergence, no
detection. Per-node profiles make a single-node leak worth exactly one
node: the harvested address maps nowhere else, every other node takes a
wild jump, and the cluster kills the attack in one round.
"""

from __future__ import annotations

from repro.attacks import scenarios
from repro.attacks.analysis import run_attack_dist
from repro.core import Level, ReMonConfig
from repro.dist import DistConfig, run_distributed
from repro.guest.program import Program

MAX_STEPS = 400_000_000


class TestSingleNodeLeak:
    def test_leaked_node0_layout_maps_nowhere_else(self):
        """The acceptance property: a node-0 leak yields zero valid
        code addresses on every other node of a heterogeneous run."""
        outcome, result = run_attack_dist(
            scenarios.layout_leak_program, nodes=3,
            heterogeneous=True, leak_node=0, max_steps=MAX_STEPS,
        )
        layouts = outcome.notes["node_layouts"]
        addr = outcome.notes["payload_addr"]
        assert scenarios.dcl_analysis([layouts[0]], addr) == [0]
        for layout in layouts[1:]:
            assert scenarios.dcl_analysis([layout], addr) == []
        # Sweep the leaked node's whole code region: disjoint arenas
        # mean *no* address harvested from node 0 maps on a peer.
        leaked = layouts[0]
        for offset in range(0, leaked.code_size, leaked.code_size // 16):
            probe = leaked.code_base + offset
            assert scenarios.dcl_analysis(layouts[1:], probe) == []

    def test_leak_compromises_at_most_the_leaked_node(self):
        outcome, result = run_attack_dist(
            scenarios.layout_leak_program, nodes=3,
            heterogeneous=True, leak_node=0, max_steps=MAX_STEPS,
        )
        assert outcome.notes.get("compromised", []) in ([], [0])
        # The wild jumps on the uncompromised nodes surface as crashes
        # and the cluster shuts the attack down: no secret leaves.
        assert outcome.blocked
        assert outcome.detected
        assert result.exit_codes[0] != 0  # the compromised node is killed

    def test_homogeneous_family_leak_defeats_the_cluster(self):
        """The gap being closed: a shared seed reconstructs every
        node's layout, the attacker tailors per-node payloads, and the
        fleet is compromised in lockstep — undetected."""
        outcome, result = run_attack_dist(
            scenarios.layout_leak_program, nodes=3,
            heterogeneous=False, leak_family=True, max_steps=MAX_STEPS,
        )
        assert sorted(outcome.notes.get("compromised", [])) == [0, 1, 2]
        assert outcome.effect_occurred
        assert not outcome.detected


def _benign_program():
    def main(ctx):
        libc = ctx.libc
        for _ in range(8):
            _pid = yield ctx.sys.getpid()
        fd = yield from libc.open("/data/input.txt")
        assert fd >= 0
        yield from libc.read(fd, 64)
        yield from libc.close(fd)
        return 0

    return Program("benign", main, files={"/data/input.txt": b"bytes"})


def _run_benign(heterogeneous):
    config = ReMonConfig(
        replicas=3,
        level=Level.NONSOCKET_RW,
        dist=DistConfig(heterogeneous=heterogeneous),
    )
    return run_distributed(_benign_program(), config, max_steps=MAX_STEPS)


class TestFaultFreeParity:
    def test_heterogeneous_run_is_clean_and_matches_homogeneous(self):
        """Fault-free heterogeneous runs finish with every exit code 0
        and digest-match behaviour identical to homogeneous: the
        canonical form hides the per-node encodings completely."""
        homo = _run_benign(heterogeneous=False)
        hetero = _run_benign(heterogeneous=True)
        assert not homo.diverged and not hetero.diverged
        assert homo.exit_codes == [0, 0, 0]
        assert hetero.exit_codes == [0, 0, 0]
        for key in (
            "dist_rendezvous_calls",
            "dist_rendezvous_completed",
            "dist_local_calls",
            "dist_replicated_calls",
        ):
            assert homo.stats[key] == hetero.stats[key], key
        assert hetero.stats.get("dist_async_mismatches", 0) == 0
        # Heterogeneity is visible only where it should be: the
        # diversity accounting and the canonicalization bill.
        assert "dist_heterogeneous" not in homo.stats
        assert hetero.stats["dist_heterogeneous"] == 1
        assert hetero.stats["dist_abi_variants"] >= 2
        assert hetero.stats["dist_arena_variants"] == 3
        assert hetero.stats["dist_canonical_calls"] > 0
