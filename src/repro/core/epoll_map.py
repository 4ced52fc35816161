"""The epoll shadow mapping (paper §3.9).

epoll lets applications attach a 64-bit ``data`` value — usually a
pointer — to each registered descriptor, and the kernel echoes it back
from ``epoll_wait``. Diversified replicas use *different* pointer values
for the same logical descriptor, so blindly replicating the master's
``epoll_wait`` results would hand slaves the master's pointers.

The shadow map records, per epoll instance and per registered fd, each
replica's own ``data`` value. The master's results are translated to
neutral fd numbers before entering the replication buffer, and each
slave maps the fds back to its own ``data`` values on the way out.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class EpollShadowMap:
    def __init__(self, replica_count: int):
        self.replica_count = replica_count
        self.master_index = 0
        # (epfd, fd) -> list of per-replica data values
        self._data: Dict[Tuple[int, int], List[Optional[int]]] = {}
        # epfd -> {master_data_value: fd}
        self._reverse: Dict[int, Dict[int, int]] = {}

    def promote(self, new_master_index: int) -> None:
        """Master replacement (degraded mode).

        The kernel-side epoll instances migrated to the new master still
        hold the *old* master's ``data`` values for every registration
        made before the crash, so the existing reverse map stays valid
        for translating their events. Only registrations made from now
        on carry the new master's values — ``record_ctl_add`` adds those
        as they happen. So: switch who counts as master, keep the map."""
        self.master_index = new_master_index

    def record_ctl_add(self, epfd: int, fd: int, replica_index: int, data: int) -> None:
        key = (epfd, fd)
        values = self._data.get(key)
        if values is None:
            values = [None] * self.replica_count
            self._data[key] = values
        values[replica_index] = data
        if replica_index == self.master_index:
            self._reverse.setdefault(epfd, {})[data] = fd

    def record_ctl_del(self, epfd: int, fd: int, replica_index: int = 0) -> None:
        """Remove one replica's registration.

        Each replica's view is cleared only when *that replica* observes
        its own EPOLL_CTL_DEL: under loose synchronization the master
        runs ahead, and slaves must still be able to translate events
        recorded before the deletion (paper §3.9's mapping is replica-
        local state).
        """
        key = (epfd, fd)
        values = self._data.get(key)
        if values is None:
            return
        if replica_index == self.master_index:
            # After a promotion the kernel-held data value may be a
            # *previous* master's tag — drop every recorded value.
            reverse = self._reverse.get(epfd, {})
            for value in values:
                if value is not None:
                    reverse.pop(value, None)
        values[replica_index] = None
        if all(value is None for value in values):
            del self._data[key]

    # -- translation -------------------------------------------------------
    def master_data_to_fd(self, epfd: int, data: int) -> Optional[int]:
        return self._reverse.get(epfd, {}).get(data)

    def fd_to_replica_data(self, epfd: int, fd: int, replica_index: int) -> Optional[int]:
        values = self._data.get((epfd, fd))
        if values is None:
            return None
        return values[replica_index]

    def neutralize_events(self, epfd: int, events: List[Tuple[int, int]]):
        """Master-side: replace data values with fds. Unknown data values
        pass through untranslated (flagged)."""
        out = []
        for revents, data in events:
            fd = self.master_data_to_fd(epfd, data)
            if fd is None:
                out.append((revents, data, 0))
            else:
                out.append((revents, fd, 1))
        return out

    def localize_events(self, epfd: int, neutral, replica_index: int):
        """Replica-side: map fds back to this replica's data values."""
        out = []
        for revents, value, translated in neutral:
            if translated:
                data = self.fd_to_replica_data(epfd, value, replica_index)
                out.append((revents, data if data is not None else value))
            else:
                out.append((revents, value))
        return out
