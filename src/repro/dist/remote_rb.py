"""Remote replication-buffer mirror.

Single-machine ReMon replicates master results to slaves through the
IP-MON replication buffer: shared memory, so a slave just spins/sleeps
until the master's record appears. Across nodes there is no shared
memory — the leader *pushes* result records over the transport and each
follower keeps a local mirror of the in-flight window of the leader's
RB, laid out like the RB itself: one lane per virtual thread, indexed
by the per-thread sequence number (paper §3.2).

Records are retained after adoption (not trimmed on consume) so that a
follower promoted to leader after a crash can re-broadcast results the
dead leader shipped to *it* but possibly not to every peer — the
distributed analogue of the RB surviving its writer.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Optional, Set, Tuple

from repro.kernel.waitq import WaitQueue

Key = Tuple[int, int]  # (vtid, seq)

#: Read-only stand-in for a thread with no lane yet.
_NO_LANE = MappingProxyType({})


class RemoteRecord:
    """One mirrored syscall result: return value + serialised out-buffers."""

    __slots__ = ("result", "payload", "name")

    def __init__(self, result: int, payload: bytes = b"", name: str = ""):
        self.result = result
        self.payload = payload
        self.name = name

    def __repr__(self):
        return "RemoteRecord(%s=%d, %d bytes)" % (
            self.name, self.result, len(self.payload)
        )


class RBMirror:
    """A node's local mirror of the leader's replication buffer.

    Every map is a set of per-thread lanes, ``vtid -> {seq: ...}``
    (``vtid -> {seq}`` for ``consumed``), like the RB's own lanes.
    Entries live for the whole run, and a flat map keyed by a fresh
    ``(vtid, seq)`` tuple kept one tuple alive per entry per map; lanes
    store only the small-int ``seq`` keys (DESIGN.md §8).
    """

    def __init__(self, node_index: int):
        self.node_index = node_index
        self.records: Dict[int, Dict[int, RemoteRecord]] = {}
        #: Adopted records; they stay in ``records`` for re-broadcast.
        self.consumed: Dict[int, Set[int]] = {}
        #: Rendezvous verdicts pushed by the leader (1 ok, 0 diverged).
        self.releases: Dict[int, Dict[int, int]] = {}
        #: Canonical digest each agreed round was decided on (0 when the
        #: verdict predates digest-carrying releases or was a mismatch).
        #: Replayed re-admissions verify against these (DESIGN.md §13).
        self.release_digests: Dict[int, Dict[int, int]] = {}
        self.waitq = WaitQueue("rb-mirror-%d" % node_index)
        self.records_received = 0
        self.records_adopted = 0
        self.releases_received = 0
        self.duplicates_dropped = 0

    # -- result records ----------------------------------------------------
    def put(self, vtid: int, seq: int, record: RemoteRecord, sim=None) -> None:
        lane = self.records.get(vtid)
        if lane is None:
            lane = self.records[vtid] = {}
        elif seq in lane:
            # Failover re-broadcasts make duplicates normal, not a bug.
            self.duplicates_dropped += 1
            return
        lane[seq] = record
        self.records_received += 1
        if sim is not None:
            self.waitq.notify_all(sim)

    def get(self, vtid: int, seq: int) -> Optional[RemoteRecord]:
        return self.records.get(vtid, _NO_LANE).get(seq)

    def consume(self, vtid: int, seq: int) -> None:
        """Mark a record adopted (it stays available for re-broadcast)."""
        if seq not in self.records.get(vtid, _NO_LANE):
            return
        done = self.consumed.get(vtid)
        if done is None:
            done = self.consumed[vtid] = set()
        elif seq in done:
            return
        done.add(seq)
        self.records_adopted += 1

    def unconsumed(self) -> Dict[Key, RemoteRecord]:
        """Records held but not yet adopted locally — the window a new
        leader re-broadcasts after a failover. Grouped by thread, not in
        arrival order: the caller sorts."""
        window: Dict[Key, RemoteRecord] = {}
        for vtid, lane in self.records.items():
            done = self.consumed.get(vtid, ())
            for seq, record in lane.items():
                if seq not in done:
                    window[(vtid, seq)] = record
        return window

    # -- rendezvous releases ----------------------------------------------
    def release(
        self, vtid: int, seq: int, verdict: int, sim=None, digest: int = 0
    ) -> None:
        lane = self.releases.get(vtid)
        if lane is None:
            lane = self.releases[vtid] = {}
        if seq not in lane:
            lane[seq] = verdict
            if digest:
                digests = self.release_digests.get(vtid)
                if digests is None:
                    digests = self.release_digests[vtid] = {}
                digests[seq] = digest
            self.releases_received += 1
        if sim is not None:
            self.waitq.notify_all(sim)

    def verdict(self, vtid: int, seq: int) -> Optional[int]:
        return self.releases.get(vtid, _NO_LANE).get(seq)

    def verdict_digest(self, vtid: int, seq: int) -> int:
        """The canonical digest an agreed round was decided on (0 when
        unknown: pre-digest releases, or a diverged round)."""
        return self.release_digests.get(vtid, _NO_LANE).get(seq, 0)

    def wake(self, sim) -> None:
        """Wake any waiter (membership changed, shutdown, promotion)."""
        self.waitq.notify_all(sim)
