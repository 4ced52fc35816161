"""Bounded replay window: the recorded state a replacement replays.

The rr insight (O'Callahan et al.) applied to the MVEE: a replica's
entire divergence-relevant input is what crossed the monitor — the RB
mirror records the leader shipped and the rendezvous verdicts the
sharded monitor released. Record those two streams as they happen and a
fresh process, being deterministic, can be driven back to the live
frontier by replaying them instead of restarting the world.

The window is bounded by ``manager.REPLAY_WINDOW`` entries. On overflow
it stops recording and refuses all later rejoins — a replay from a
window with a hole would silently diverge, and refusal is the only answer that
keeps the §4 security argument intact. (The "checkpoint" the leader
keeps is the program image itself: every node boots from the identical
installed filesystem, so the window never needs a base snapshot.)
"""

from __future__ import annotations

from typing import List, Tuple

from repro.dist.wire import STATE_RECORD, STATE_VERDICT


class ReplayWindow:
    """Append-only recorded stream of RB records + rendezvous verdicts."""

    __slots__ = ("limit", "entries", "overflowed", "records", "verdicts")

    def __init__(self, limit: int):
        self.limit = limit
        #: (kind, vtid, seq, artifact): kind is a ``wire.STATE_*``; the
        #: artifact is a (verdict,
        #: canonical-digest) pair or the RemoteRecord, in recorded
        #: (= release/put) order.
        self.entries: List[Tuple[int, int, int, object]] = []
        self.overflowed = False
        self.records = 0
        self.verdicts = 0

    def __len__(self) -> int:
        return len(self.entries)

    def _push(self, kind: int, vtid: int, seq: int, artifact) -> None:
        if self.overflowed:
            return
        if len(self.entries) >= self.limit:
            self.overflowed = True
            return
        self.entries.append((kind, vtid, seq, artifact))

    def record(self, vtid: int, seq: int, record) -> None:
        """A leader-replicated result entered the mirrors."""
        self.records += 1
        self._push(STATE_RECORD, vtid, seq, record)

    def release(self, vtid: int, seq: int, verdict: int, digest: int = 0) -> None:
        """A rendezvous verdict was released to every node. ``digest``
        is the canonical digest the round agreed on (0 on mismatch):
        replayed re-admissions verify their own canonical bytes against
        it instead of trusting the bare verdict (DESIGN.md §13)."""
        self.verdicts += 1
        self._push(STATE_VERDICT, vtid, seq, (verdict, digest))

    def snapshot(self) -> List[Tuple[int, int, int, object]]:
        """The window as of now, in recorded order (ship this)."""
        return list(self.entries)
