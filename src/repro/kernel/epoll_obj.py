"""epoll instances (paper §3.9).

Level-triggered epoll keyed by fd, carrying the userspace ``data`` field
(usually a pointer in real programs — which is exactly what makes epoll
hard for MVEEs and forces IP-MON's shadow mapping).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.kernel import constants as C
from repro.kernel import errno_codes as E
from repro.kernel.vfs import FileObject
from repro.kernel.waitq import wait_interruptible


class EpollInstance(FileObject):
    kind = "epoll"

    def __init__(self, name: str = "epoll"):
        super().__init__(name)
        # fd -> (requested events mask, u64 data, watched FileObject)
        self.interest: Dict[int, Tuple[int, int, FileObject]] = {}

    def ctl(self, op: int, fd: int, events: int, data: int, file: FileObject) -> int:
        if op == C.EPOLL_CTL_ADD:
            if fd in self.interest:
                return -E.EEXIST
            self.interest[fd] = (events, data, file)
            return 0
        if op == C.EPOLL_CTL_MOD:
            if fd not in self.interest:
                return -E.ENOENT
            self.interest[fd] = (events, data, file)
            return 0
        if op == C.EPOLL_CTL_DEL:
            if fd not in self.interest:
                return -E.ENOENT
            del self.interest[fd]
            return 0
        return -E.EINVAL

    def ready_events(self, kernel) -> List[Tuple[int, int, int]]:
        """Scan the interest list; returns [(fd, revents, data)]."""
        out = []
        for fd, (want, data, file) in sorted(self.interest.items()):
            mask = file.poll_mask(kernel)
            hit = mask & (want | C.EPOLLERR | C.EPOLLHUP)
            if hit:
                out.append((fd, hit, data))
        return out

    def wait(self, kernel, thread, maxevents: int, timeout_ns):
        """Coroutine: block until >=1 watched fd is ready (or timeout).

        Returns a list of (fd, revents, data) tuples, possibly empty on
        timeout, or -EINTR.
        """
        while True:
            ready = self.ready_events(kernel)
            if ready:
                return ready[:maxevents]
            if timeout_ns == 0:
                return []
            # Register on every watched object plus our own queue (for
            # EPOLL_CTL_ADD while blocked).
            events = []
            own = self.pollq.register()
            events.append((self.pollq, own))
            for _fd, (_want, _data, file) in self.interest.items():
                ev = file.pollq.register()
                events.append((file.pollq, ev))
            # Wait on a merged event: fire the first queue event that
            # fires into a single fresh event via adapter tasks would be
            # heavy; instead we wait on our own event and have the kernel
            # poke it, so register a lightweight forwarder.
            merged = kernel.merge_events([ev for _q, ev in events])
            status, _ = yield from wait_interruptible(thread, merged, timeout_ns)
            for queue, ev in events:
                queue.unregister(ev)
            if status == "interrupted":
                return -E.EINTR
            if status == "timeout":
                ready = self.ready_events(kernel)
                return ready[:maxevents]

    def poll_mask(self, kernel) -> int:
        return C.POLLIN if self.ready_events(kernel) else 0
