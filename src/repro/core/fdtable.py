"""GHUMVEE's descriptor metadata and the IP-MON file map (paper §3.6).

GHUMVEE arbitrates every call that creates, modifies or destroys file
descriptors, so it can maintain authoritative metadata: the type of each
descriptor (regular / pipe / socket / poll-fd / special) and whether it
is in non-blocking mode. Replicas map a read-only page of this metadata
— one byte per descriptor — which IP-MON's MAYBE_CHECKED handlers use to
apply conditional relaxation policies and to predict whether a call can
block (§3.7).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.kernel.constants import PAGE_SIZE
from repro.kernel.memory import SharedRegion

#: File-map type codes (one byte per fd; high bit = non-blocking).
TYPE_CODES = {
    "unknown": 0,
    "reg": 1,
    "dir": 2,
    "chr": 3,
    "pipe": 4,
    "sock": 5,
    "listen": 6,
    "epoll": 7,
    "timerfd": 8,
    "special": 9,
    "symlink": 1,
    "shadow": 0,
}
CODE_TO_KIND = {
    1: "reg",
    2: "dir",
    3: "chr",
    4: "pipe",
    5: "sock",
    6: "listen",
    7: "epoll",
    8: "timerfd",
    9: "special",
}
NONBLOCK_BIT = 0x80


class FdInfo:
    __slots__ = ("kind", "nonblocking", "special")

    def __init__(self, kind: str, nonblocking: bool = False, special: bool = False):
        self.kind = kind
        self.nonblocking = nonblocking
        self.special = special

    def __repr__(self):
        return "FdInfo(%s%s%s)" % (
            self.kind,
            ", nonblocking" if self.nonblocking else "",
            ", special" if self.special else "",
        )


class MonitorFdTable:
    """The monitor-side fd metadata plus its shared read-only page."""

    def __init__(self, max_fds: int = PAGE_SIZE):
        self.max_fds = max_fds
        self._info: Dict[int, FdInfo] = {}
        #: The page replicas map read-only (the actual IP-MON file map).
        self.region = SharedRegion(PAGE_SIZE, "ipmon-filemap")
        # stdio: stdin char device, stdout/stderr console.
        self.record_open(0, "chr")
        self.record_open(1, "chr")
        self.record_open(2, "chr")

    # -- monitor-side updates -------------------------------------------
    def record_open(
        self, fd: int, kind: str, nonblocking: bool = False, special: bool = False
    ) -> None:
        if fd < 0:
            return
        self._info[fd] = FdInfo(kind, nonblocking, special)
        self._write_byte(fd)

    def record_close(self, fd: int) -> None:
        self._info.pop(fd, None)
        if 0 <= fd < self.max_fds:
            self.region.write(fd, b"\x00")

    def record_nonblocking(self, fd: int, nonblocking: bool) -> None:
        info = self._info.get(fd)
        if info is not None:
            info.nonblocking = nonblocking
            self._write_byte(fd)

    def record_dup(self, oldfd: int, newfd: int) -> None:
        info = self._info.get(oldfd)
        if info is not None:
            self.record_open(newfd, info.kind, info.nonblocking, info.special)

    def _write_byte(self, fd: int) -> None:
        if not 0 <= fd < self.max_fds:
            return
        info = self._info[fd]
        code = TYPE_CODES.get(info.kind, 0)
        if info.special:
            code = TYPE_CODES["special"]
        if info.nonblocking:
            code |= NONBLOCK_BIT
        self.region.write(fd, bytes((code,)))

    # -- queries -----------------------------------------------------------
    def info(self, fd: int) -> Optional[FdInfo]:
        return self._info.get(fd)

    def kind_of(self, fd: int) -> Optional[str]:
        info = self._info.get(fd)
        return info.kind if info is not None else None

    def is_nonblocking(self, fd: int) -> bool:
        info = self._info.get(fd)
        return bool(info and info.nonblocking)

    def open_fds(self):
        return sorted(self._info)


class FileMapView:
    """IP-MON's replica-side view: reads the shared metadata page.

    In the real system this is a read-only mapping in the replica's
    address space; tampering with it is impossible. Here we read the
    shared region directly (each replica maps it at its own address).
    """

    def __init__(self, region: SharedRegion):
        self.region = region

    def fd_kind(self, fd: int) -> Optional[str]:
        if not 0 <= fd < self.region.length:
            return None
        code = self.region.read(fd, 1)[0]
        return CODE_TO_KIND.get(code & ~NONBLOCK_BIT)

    def is_nonblocking(self, fd: int) -> bool:
        if not 0 <= fd < self.region.length:
            return False
        return bool(self.region.read(fd, 1)[0] & NONBLOCK_BIT)

    def may_block(self, name: str, fd: int) -> bool:
        """Predict whether a call on ``fd`` can block (paper §3.7):
        non-blocking descriptors always return immediately."""
        kind = self.fd_kind(fd)
        if kind in ("reg", "dir", "chr", None):
            return False
        return not self.is_nonblocking(fd)
