"""Per-node diversity profiles (DMON-style heterogeneity, DESIGN.md §13).

A homogeneous cluster draws every node's layout from **one** seeded
family: leak node 0's layout (or the cluster seed) and an attacker can
reconstruct every other node's addresses — a single exposure defeats
the whole cluster, exactly the gap DMON closes by running variants on
heterogeneous platforms.

A :class:`NodeProfile` is the simulated analogue of a heterogeneous
platform. Each node gets:

* **its own DCL arena** — a ``ARENA_STRIDE``-sized private slab of the
  code address space (``CODE_ANCHOR + node * ARENA_STRIDE``). A node's
  whole replica family lives inside its arena, so families are pairwise
  disjoint *across nodes*, not just slices within one family.
* **its own ASLR seed stream** — the cluster seed is mixed through
  splitmix64 with the node index before it ever seeds an RNG. The mix
  is one-way: a leaked per-node seed does not invert to the cluster
  seed, so one node's stream says nothing about any sibling's.
* **its own guest ABI** (:class:`~repro.core.canonical.AbiProfile`) —
  divergent scalar widths and struct padding, so even *data* encodings
  differ byte-for-byte across nodes and raw-byte comparison stops
  working by construction (forcing the canonical digest pipeline).

With ``heterogeneous=False`` (the default) every node shares the
canonical profile and layout construction follows the exact historical
RNG stream — byte-identical to the pre-profile design.
"""

from __future__ import annotations

from typing import List

from repro.core.canonical import CANONICAL_ABI, AbiProfile
from repro.diversity.aslr import (
    CODE_ANCHOR,
    DEFAULT_CODE_SIZE,
    ReplicaLayout,
    make_layouts,
)

#: Private code-arena slab per node: 2**34 bytes holds 64 DCL slices
#: (``max(code_size * 4, 1 << 28)`` each), and the anchor gap up to
#: ``BRK_ANCHOR`` fits ~85 arenas — far beyond simulated cluster sizes.
ARENA_STRIDE = 1 << 34

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    """One splitmix64 output step: a 64-bit one-way avalanche mix."""
    value = (value + _SPLITMIX_GAMMA) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def node_seed(cluster_seed: int, node: int) -> int:
    """The per-node ASLR seed: deterministic per (cluster_seed, node),
    one-way in both inputs."""
    return _splitmix64((cluster_seed & _MASK64) + (node + 1) * _SPLITMIX_GAMMA)


class NodeProfile:
    """One node's diversity transform: arena, seed stream, and ABI."""

    __slots__ = (
        "node",
        "cluster_seed",
        "heterogeneous",
        "aslr_seed",
        "arena_base",
        "abi",
    )

    def __init__(
        self,
        node: int,
        cluster_seed: int,
        heterogeneous: bool,
        aslr_seed: int,
        arena_base: int,
        abi: AbiProfile,
    ):
        self.node = node
        self.cluster_seed = cluster_seed
        self.heterogeneous = heterogeneous
        self.aslr_seed = aslr_seed
        self.arena_base = arena_base
        self.abi = abi

    def make_family(
        self,
        count: int,
        aslr: bool = True,
        dcl: bool = True,
        code_size: int = DEFAULT_CODE_SIZE,
    ) -> List[ReplicaLayout]:
        """This node's layout family, entirely inside its own arena and
        drawn from its own seed stream."""
        return make_layouts(
            count,
            seed=self.aslr_seed,
            aslr=aslr,
            dcl=dcl,
            code_size=code_size,
            code_anchor=self.arena_base,
        )

    def make_layout(
        self,
        aslr: bool = True,
        dcl: bool = True,
        code_size: int = DEFAULT_CODE_SIZE,
    ) -> ReplicaLayout:
        """The single layout this node actually boots (index rewritten
        to the node number so process naming stays stable)."""
        layout = self.make_family(1, aslr=aslr, dcl=dcl, code_size=code_size)[0]
        layout.index = self.node
        return layout

    def __repr__(self):
        return (
            "NodeProfile(node=%d, hetero=%s, arena=0x%x, %r)"
            % (self.node, self.heterogeneous, self.arena_base, self.abi)
        )


def make_node_profiles(
    count: int,
    cluster_seed: int = 0,
    heterogeneous: bool = False,
) -> List[NodeProfile]:
    """Assign one diversity profile per node.

    Deterministic per ``(cluster_seed, node)``; the homogeneous default
    gives every node the canonical profile (shared seed, shared arena,
    canonical ABI) so nothing downstream changes.
    """
    profiles: List[NodeProfile] = []
    for node in range(count):
        if not heterogeneous:
            profiles.append(
                NodeProfile(
                    node,
                    cluster_seed,
                    False,
                    aslr_seed=cluster_seed,
                    arena_base=CODE_ANCHOR,
                    abi=CANONICAL_ABI,
                )
            )
            continue
        seed = node_seed(cluster_seed, node)
        abi_bits = _splitmix64(seed ^ 0xAB1D1FF5)
        abi = AbiProfile(
            scalar_width=16 if abi_bits & 1 else 8,
            item_pad=(abi_bits >> 1) % 8,
        )
        profiles.append(
            NodeProfile(
                node,
                cluster_seed,
                True,
                aslr_seed=seed,
                arena_base=CODE_ANCHOR + node * ARENA_STRIDE,
                abi=abi,
            )
        )
    return profiles


def export_profile_stats(registry, profiles: List[NodeProfile]) -> None:
    """Publish diversity accounting, which exists only under per-node
    profiles: homogeneous runs keep a stats view bit-identical to the
    pre-profile design (the §13 invisibility contract)."""
    if not any(profile.heterogeneous for profile in profiles):
        return
    registry.expose("dist_heterogeneous", 1)
    registry.expose("dist_abi_variants", len({p.abi for p in profiles}))
    registry.expose("dist_arena_variants", len({p.arena_base for p in profiles}))
