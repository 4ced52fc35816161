"""Virtual filesystem: file objects, descriptions, and an in-memory tree.

The file-object model mirrors Linux: a *file object* (inode-like entity,
possibly shared between processes), an *open file description* carrying
the offset and status flags, and per-process descriptor tables pointing
at descriptions. This split matters to the MVEE: GHUMVEE's fd metadata
and IP-MON's file map (paper §3.6) track exactly this structure.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from repro.kernel import constants as C
from repro.kernel import errno_codes as E
from repro.kernel.structs import pack_stat
from repro.kernel.waitq import WaitQueue

_ino_counter = itertools.count(2)


class FileObject:
    """Base class for everything a descriptor can point at.

    ``kind`` is one of ``reg``, ``dir``, ``symlink``, ``chr``, ``pipe``,
    ``sock``, ``listen``, ``epoll``, ``timerfd``, ``special`` — the same
    classification GHUMVEE keeps in its fd metadata table.
    """

    kind = "reg"
    #: Extended attributes (only regular files carry any).
    xattrs: Mapping[bytes, bytes] = MappingProxyType({})
    #: ``(entry, pid)`` of a /proc file GHUMVEE filters, else None.
    proc_entry: Optional[Tuple[str, int]] = None

    def __init__(self, name: str = ""):
        self.name = name
        self.ino = next(_ino_counter)
        self.refcount = 0
        self.pollq = WaitQueue("poll:%s" % name)

    # -- lifecycle -------------------------------------------------------
    def release(self) -> None:
        self.refcount -= 1
        if self.refcount <= 0:
            self.on_last_close()

    def on_last_close(self) -> None:
        """Called when the last description referencing this object dies."""

    # -- readiness -------------------------------------------------------
    def poll_mask(self, kernel) -> int:
        """Current poll/epoll readiness bits."""
        return C.POLLIN | C.POLLOUT

    def notify_pollers(self, kernel) -> None:
        """Wake everything waiting for a readiness change on this object."""
        self.pollq.notify_all(kernel.sim)

    # -- I/O ---------------------------------------------------------------
    # Subclasses override; default is "not supported".
    def read(self, kernel, thread, ofd, count: int):
        return -E.EINVAL
        yield  # pragma: no cover - makes this a generator

    def write(self, kernel, thread, ofd, data: bytes):
        return -E.EINVAL
        yield  # pragma: no cover

    # -- metadata ----------------------------------------------------------
    def st_mode(self) -> int:
        return C.S_IFREG | 0o644

    def size(self) -> int:
        return 0

    def readable_bytes(self, ofd) -> int:
        """Bytes a read through ``ofd`` could return now (FIONREAD)."""
        return 0

    def stat_bytes(self) -> bytes:
        return pack_stat(
            st_dev=1,
            st_ino=self.ino,
            st_mode=self.st_mode(),
            st_nlink=1,
            st_uid=0,
            st_gid=0,
            st_size=self.size(),
        )

    def __repr__(self):
        return "%s(%s, ino=%d)" % (type(self).__name__, self.name, self.ino)


class OpenFileDescription:
    """Offset + status flags shared by dup()ed descriptors."""

    __slots__ = ("file", "offset", "flags", "refcount")

    def __init__(self, file: FileObject, flags: int = 0):
        self.file = file
        self.offset = 0
        self.flags = flags
        self.refcount = 0
        file.refcount += 1

    @property
    def nonblocking(self) -> bool:
        return bool(self.flags & C.O_NONBLOCK)

    @property
    def readable(self) -> bool:
        return (self.flags & C.O_ACCMODE) in (C.O_RDONLY, C.O_RDWR)

    @property
    def writable(self) -> bool:
        return (self.flags & C.O_ACCMODE) in (C.O_WRONLY, C.O_RDWR)

    def release(self) -> None:
        self.refcount -= 1
        if self.refcount <= 0:
            self.file.release()

    def __repr__(self):
        return "OFD(%r, off=%d, flags=%o)" % (self.file, self.offset, self.flags)


# ---------------------------------------------------------------------------
# Concrete filesystem nodes
# ---------------------------------------------------------------------------
class RegularFile(FileObject):
    kind = "reg"

    def __init__(self, name: str = "", data: bytes = b""):
        super().__init__(name)
        self.data = bytearray(data)
        self.xattrs: Dict[bytes, bytes] = {}

    def st_mode(self) -> int:
        return C.S_IFREG | 0o644

    def readable_bytes(self, ofd) -> int:
        return max(0, len(self.data) - ofd.offset)

    def size(self) -> int:
        return len(self.data)

    def read(self, kernel, thread, ofd, count: int):
        start = ofd.offset
        chunk = bytes(self.data[start : start + count])
        ofd.offset += len(chunk)
        return chunk
        yield  # pragma: no cover

    def pread(self, offset: int, count: int) -> bytes:
        return bytes(self.data[offset : offset + count])

    def write(self, kernel, thread, ofd, data: bytes):
        if ofd.flags & C.O_APPEND:
            ofd.offset = len(self.data)
        self.pwrite(ofd.offset, data)
        ofd.offset += len(data)
        return len(data)
        yield  # pragma: no cover

    def pwrite(self, offset: int, data: bytes) -> int:
        end = offset + len(data)
        if end > len(self.data):
            self.data.extend(b"\x00" * (end - len(self.data)))
        self.data[offset:end] = data
        return len(data)

    def truncate(self, length: int) -> None:
        if length < len(self.data):
            del self.data[length:]
        else:
            self.data.extend(b"\x00" * (length - len(self.data)))


class Directory(FileObject):
    kind = "dir"

    def __init__(self, name: str = ""):
        super().__init__(name)
        self.children: Dict[str, FileObject] = {}

    def st_mode(self) -> int:
        return C.S_IFDIR | 0o755

    def size(self) -> int:
        return 4096

    def entries(self) -> List[Tuple[str, FileObject]]:
        return sorted(self.children.items())


class Symlink(FileObject):
    kind = "symlink"

    def __init__(self, name: str, target: str):
        super().__init__(name)
        self.target = target

    def st_mode(self) -> int:
        return C.S_IFLNK | 0o777

    def size(self) -> int:
        return len(self.target)


class CharDevice(FileObject):
    """/dev/null, /dev/zero and a deterministic /dev/urandom."""

    kind = "chr"

    def __init__(self, name: str, mode: str, seed: int = 0):
        super().__init__(name)
        self.mode = mode
        self._state = seed or 0x9E3779B97F4A7C15

    def st_mode(self) -> int:
        return C.S_IFCHR | 0o666

    def _next_bytes(self, count: int) -> bytes:
        out = bytearray()
        state = self._state
        while len(out) < count:
            state = (state * 6364136223846793005 + 1442695040888963407) & (1 << 64) - 1
            out += state.to_bytes(8, "little")
        self._state = state
        return bytes(out[:count])

    def read(self, kernel, thread, ofd, count: int):
        if self.mode == "null":
            return b""
        if self.mode == "zero":
            return b"\x00" * count
        return self._next_bytes(count)
        yield  # pragma: no cover

    def write(self, kernel, thread, ofd, data: bytes):
        return len(data)
        yield  # pragma: no cover


class ConsoleFile(FileObject):
    """Per-process stdout/stderr sink capturing output for inspection."""

    kind = "chr"

    def __init__(self, owner: str = ""):
        super().__init__("console:%s" % owner)
        self.output = bytearray()

    def st_mode(self) -> int:
        return C.S_IFCHR | 0o620

    def size(self) -> int:
        return len(self.output)

    def poll_mask(self, kernel) -> int:
        return C.POLLOUT

    def read(self, kernel, thread, ofd, count: int):
        return -E.EBADF
        yield  # pragma: no cover

    def write(self, kernel, thread, ofd, data: bytes):
        self.output += data
        return len(data)
        yield  # pragma: no cover

    def text(self) -> str:
        return self.output.decode("utf-8", "replace")


class SyntheticFile(FileObject):
    """A read-only file whose content is produced by a callable at open
    time — used for /proc entries such as ``/proc/<pid>/maps``.

    GHUMVEE marks these *special* (paper §3.1/§3.6) and forcibly monitors
    every access so it can filter the data replicas read.
    """

    kind = "special"

    def __init__(self, name: str, producer):
        super().__init__(name)
        self.producer = producer
        self.snapshot: Optional[bytes] = None

    def st_mode(self) -> int:
        return C.S_IFREG | 0o444

    def content(self) -> bytes:
        if self.snapshot is None:
            self.snapshot = self.producer()
        return self.snapshot

    def read(self, kernel, thread, ofd, count: int):
        data = self.content()
        chunk = data[ofd.offset : ofd.offset + count]
        ofd.offset += len(chunk)
        return bytes(chunk)
        yield  # pragma: no cover

    def pread(self, offset: int, count: int) -> bytes:
        return bytes(self.content()[offset : offset + count])


# ---------------------------------------------------------------------------
# Filesystem tree + path resolution
# ---------------------------------------------------------------------------
class Filesystem:
    """An in-memory tree with POSIX-ish path resolution."""

    MAX_SYMLINK_DEPTH = 8

    def __init__(self):
        self.root = Directory("/")
        self.root.refcount = 1  # never reaped
        for path in ("/tmp", "/etc", "/dev", "/proc", "/data", "/var", "/var/www"):
            self.mkdir(path)
        self.add_file("/dev/null", CharDevice("null", "null"))
        self.add_file("/dev/zero", CharDevice("zero", "zero"))
        self.add_file("/dev/urandom", CharDevice("urandom", "urandom"))

    # -- construction helpers -------------------------------------------
    def mkdir(self, path: str) -> Directory:
        parts = [p for p in path.split("/") if p]
        node = self.root
        for part in parts:
            child = node.children.get(part)
            if child is None:
                child = Directory(part)
                child.refcount = 1
                node.children[part] = child
            if not isinstance(child, Directory):
                raise NotADirectoryError(path)
            node = child
        return node

    def add_file(self, path: str, node: FileObject) -> FileObject:
        dirname, _, basename = path.rpartition("/")
        parent = self.mkdir(dirname or "/")
        node.name = basename
        node.refcount = 1  # pinned by the directory entry
        parent.children[basename] = node
        return node

    def write_file(self, path: str, data: bytes) -> RegularFile:
        node = RegularFile(data=data)
        self.add_file(path, node)
        return node

    def symlink(self, path: str, target: str) -> Symlink:
        node = Symlink("", target)
        self.add_file(path, node)
        return node

    # -- resolution --------------------------------------------------------
    def resolve(
        self, path: str, cwd: str = "/", follow: bool = True, _depth: int = 0
    ) -> Tuple[Optional[FileObject], int]:
        """Resolve ``path`` relative to ``cwd``.

        Returns ``(node, 0)`` on success or ``(None, errno)`` on failure.
        """
        if _depth > self.MAX_SYMLINK_DEPTH:
            return None, E.ELOOP
        if not path:
            return None, E.ENOENT
        if not path.startswith("/"):
            path = cwd.rstrip("/") + "/" + path
        parts = [p for p in path.split("/") if p and p != "."]
        node: FileObject = self.root
        for index, part in enumerate(parts):
            if not isinstance(node, Directory):
                return None, E.ENOTDIR
            if part == "..":
                # Minimal semantics: stay at root (no parent pointers).
                continue
            child = node.children.get(part)
            if child is None:
                return None, E.ENOENT
            is_last = index == len(parts) - 1
            if isinstance(child, Symlink) and (follow or not is_last):
                rest = "/".join(parts[index + 1 :])
                target = child.target
                if rest:
                    target = target.rstrip("/") + "/" + rest
                return self.resolve(target, cwd="/", follow=follow, _depth=_depth + 1)
            node = child
        return node, 0

    def parent_of(self, path: str, cwd: str = "/") -> Tuple[Optional[Directory], str, int]:
        """Resolve the parent directory of ``path``; returns
        ``(dir, basename, errno)``."""
        if not path.startswith("/"):
            path = cwd.rstrip("/") + "/" + path
        dirname, _, basename = path.rstrip("/").rpartition("/")
        if not basename:
            return None, "", E.EINVAL
        node, err = self.resolve(dirname or "/")
        if node is None:
            return None, "", err
        if not isinstance(node, Directory):
            return None, "", E.ENOTDIR
        return node, basename, 0
