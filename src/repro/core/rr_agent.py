"""The record/replay agent for user-space synchronization (paper §2.3).

Multi-threaded replicas are non-deterministic: two threads racing on a
mutex may acquire it in different orders in different replicas, leading
to diverging system-call sequences even on identical inputs. ReMon
embeds a small agent in each replica that forces all replicas to pass
user-space synchronization points in the same order: the master records
the global order in which its threads pass them; the slaves release
their threads in exactly that order.

Guest code participates through ``ctx.sync_point(key)``, which the
guest-level mutex/condvar implementations call on every operation —
including the uncontended fast paths that never enter the kernel (the
ones VARAN cannot see, §6).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.kernel.waitq import WaitQueue, wait_interruptible
from repro.sim import Sleep

#: Cost of one agent interposition (a few atomic ops in the real agent).
SYNC_POINT_COST_NS = 60


class RecordReplayAgent:
    """Group-level agent shared by all replicas."""

    def __init__(self, kernel, replica_count: int):
        self.kernel = kernel
        self.replica_count = replica_count
        self.master_index = 0
        #: The master-recorded global order: list of (vtid, op_key_hash).
        self.order: List[Tuple[int, int]] = []
        #: Next order slot each slave replica will release.
        self.positions: Dict[int, int] = {i: 0 for i in range(1, replica_count)}
        self._waitqs: Dict[int, WaitQueue] = {
            i: WaitQueue("rr:%d" % i) for i in range(1, replica_count)
        }
        self.stats = {"recorded": 0, "replayed": 0, "waits": 0, "promotions": 0}

    def _key_hash(self, op_key) -> int:
        return hash(op_key) & 0xFFFFFFFF

    # -- degraded mode ------------------------------------------------------
    def promote(self, new_master_index: int) -> None:
        """The recording master died; a survivor takes over. The new
        master first *drains* the dead master's recorded tail (its own
        position entry persists until it catches up — the remaining
        slaves keep replaying that tail too), then records onward."""
        self.master_index = new_master_index
        self.stats["promotions"] += 1
        waitq = self._waitqs.get(new_master_index)
        if waitq is not None:
            # Threads blocked waiting for the dead master to record more
            # must wake up and re-evaluate their role.
            waitq.notify_all(self.kernel.sim)

    def drop_replica(self, index: int) -> None:
        """Forget a quarantined replica's replay cursor. The recorded
        order is never truncated — survivors still replay all of it."""
        self.positions.pop(index, None)
        waitq = self._waitqs.pop(index, None)
        if waitq is not None:
            waitq.notify_all(self.kernel.sim)

    def sync_point(self, ctx, op_key):
        """Coroutine: called from guest context at a sync operation."""
        replica_index = ctx.process.replica_index
        if replica_index is None:
            return
        yield Sleep(SYNC_POINT_COST_NS, cpu=True)
        vtid = ctx.thread.vtid
        while True:
            pos = self.positions.get(replica_index)
            if replica_index == self.master_index and (
                pos is None or pos >= len(self.order)
            ):
                if pos is not None:
                    # Promoted master finished draining its predecessor's
                    # recorded tail; from here on it records.
                    del self.positions[replica_index]
                self.order.append((vtid, self._key_hash(op_key)))
                self.stats["recorded"] += 1
                for queue in self._waitqs.values():
                    queue.notify_all(self.kernel.sim)
                return
            if pos is not None and pos < len(self.order):
                want_vtid, _key = self.order[pos]
                if want_vtid == vtid:
                    self.positions[replica_index] = pos + 1
                    self.stats["replayed"] += 1
                    # Other threads of this replica may be waiting for the
                    # slot we just vacated.
                    waitq = self._waitqs.get(replica_index)
                    if waitq is not None:
                        waitq.notify_all(self.kernel.sim)
                    return
            waitq = self._waitqs.get(replica_index)
            if waitq is None:
                return  # replica was quarantined mid-wait; thread is moribund
            self.stats["waits"] += 1
            event = waitq.register()
            status, _ = yield from wait_interruptible(ctx.thread, event)
            if status == "interrupted":
                waitq.unregister(event)
                return
