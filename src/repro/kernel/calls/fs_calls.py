"""Filesystem and descriptor system calls."""

from __future__ import annotations

import struct

from repro.kernel import constants as C
from repro.kernel import errno_codes as E
from repro.kernel.calls._helpers import drive, get_entry
from repro.kernel.pipes import Pipe
from repro.kernel.structs import pack_dirent, read_iovecs
from repro.kernel.syscalls import syscall
from repro.kernel.vfs import (
    Directory,
    OpenFileDescription,
    RegularFile,
    Symlink,
    SyntheticFile,
)

# ---------------------------------------------------------------------------
# open / close / dup
# ---------------------------------------------------------------------------


def _do_open(kernel, thread, path: str, flags: int, mode: int) -> int:
    process = thread.process
    if path.startswith("/proc/"):
        node = kernel.procfs_lookup(thread, path)
        err = E.ENOENT if node is None else 0
    else:
        node, err = kernel.fs.resolve(path, cwd=process.cwd)
    if node is None:
        if not flags & C.O_CREAT or err != E.ENOENT:
            return -err
        parent, basename, perr = kernel.fs.parent_of(path, cwd=process.cwd)
        if parent is None:
            return -perr
        node = RegularFile(basename)
        node.refcount = 1
        parent.children[basename] = node
    elif flags & C.O_CREAT and flags & C.O_EXCL:
        return -E.EEXIST
    if flags & C.O_DIRECTORY and not isinstance(node, Directory):
        return -E.ENOTDIR
    if isinstance(node, Directory) and (flags & C.O_ACCMODE) != C.O_RDONLY:
        return -E.EISDIR
    if isinstance(node, SyntheticFile):
        node.snapshot = None  # regenerate content for this open
    if flags & C.O_TRUNC and isinstance(node, RegularFile):
        node.truncate(0)
    ofd = OpenFileDescription(node, flags)
    if flags & C.O_APPEND and isinstance(node, RegularFile):
        ofd.offset = len(node.data)
    return process.fdtable.alloc(ofd, cloexec=bool(flags & C.O_CLOEXEC))


@syscall("open")
def sys_open(kernel, thread, path_addr, flags=0, mode=0o644):
    path = thread.process.space.read_cstr(path_addr).decode("utf-8", "replace")
    return _do_open(kernel, thread, path, flags, mode)


@syscall("openat")
def sys_openat(kernel, thread, dirfd, path_addr, flags=0, mode=0o644):
    path = thread.process.space.read_cstr(path_addr).decode("utf-8", "replace")
    if not path.startswith("/") and dirfd != C.AT_FDCWD:
        return -E.EBADF  # dirfd-relative paths are out of scope
    return _do_open(kernel, thread, path, flags, mode)


@syscall("close")
def sys_close(kernel, thread, fd):
    result = thread.process.fdtable.close(fd)
    if result == 0:
        kernel.on_fd_closed(thread.process, fd)
    return result


@syscall("dup")
def sys_dup(kernel, thread, fd):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    return thread.process.fdtable.alloc(entry.ofd)


@syscall("dup2")
def sys_dup2(kernel, thread, oldfd, newfd):
    entry, err = get_entry(thread, oldfd)
    if entry is None:
        return err
    if oldfd == newfd:
        return newfd
    thread.process.fdtable.install(newfd, entry.ofd)
    return newfd


@syscall("pipe")
def sys_pipe(kernel, thread, fds_addr):
    return _do_pipe(kernel, thread, fds_addr, 0)


@syscall("pipe2")
def sys_pipe2(kernel, thread, fds_addr, flags=0):
    return _do_pipe(kernel, thread, fds_addr, flags)


def _do_pipe(kernel, thread, fds_addr, flags):
    pipe = Pipe(kernel)
    nb = flags & C.O_NONBLOCK
    rfd = thread.process.fdtable.alloc(
        OpenFileDescription(pipe.read_end, C.O_RDONLY | nb),
        cloexec=bool(flags & C.O_CLOEXEC),
    )
    wfd = thread.process.fdtable.alloc(
        OpenFileDescription(pipe.write_end, C.O_WRONLY | nb),
        cloexec=bool(flags & C.O_CLOEXEC),
    )
    if rfd < 0 or wfd < 0:
        return -E.EMFILE
    thread.process.space.write(fds_addr, struct.pack("<ii", rfd, wfd))
    return 0


# ---------------------------------------------------------------------------
# read / write families
# ---------------------------------------------------------------------------
@syscall("read")
def sys_read(kernel, thread, fd, buf, count):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    if not entry.ofd.readable:
        return -E.EBADF
    result = yield from drive(entry.ofd.file.read(kernel, thread, entry.ofd, count))
    if isinstance(result, int):
        return result
    thread.process.space.write(buf, result)
    yield kernel.copy_cost(len(result))
    return len(result)


@syscall("pread64")
def sys_pread64(kernel, thread, fd, buf, count, offset):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    node = entry.ofd.file
    if not isinstance(node, RegularFile):
        return -E.ESPIPE
    data = node.pread(offset, count)
    thread.process.space.write(buf, data)
    yield kernel.copy_cost(len(data))
    return len(data)


@syscall("readv")
def sys_readv(kernel, thread, fd, iov_addr, iovcnt):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    space = thread.process.space
    iovecs = read_iovecs(space, iov_addr, iovcnt)
    total = sum(length for _base, length in iovecs)
    result = yield from drive(entry.ofd.file.read(kernel, thread, entry.ofd, total))
    if isinstance(result, int):
        return result
    _scatter(space, iovecs, result)
    yield kernel.copy_cost(len(result))
    return len(result)


@syscall("preadv")
def sys_preadv(kernel, thread, fd, iov_addr, iovcnt, offset):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    node = entry.ofd.file
    if not isinstance(node, RegularFile):
        return -E.ESPIPE
    space = thread.process.space
    iovecs = read_iovecs(space, iov_addr, iovcnt)
    total = sum(length for _base, length in iovecs)
    data = node.pread(offset, total)
    _scatter(space, iovecs, data)
    yield kernel.copy_cost(len(data))
    return len(data)


def _scatter(space, iovecs, data: bytes) -> None:
    cursor = 0
    for base, length in iovecs:
        if cursor >= len(data):
            break
        chunk = data[cursor : cursor + length]
        space.write(base, chunk)
        cursor += len(chunk)


@syscall("write")
def sys_write(kernel, thread, fd, buf, count):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    if not entry.ofd.writable:
        return -E.EBADF
    data = thread.process.space.read(buf, count)
    yield kernel.copy_cost(len(data))
    result = yield from drive(entry.ofd.file.write(kernel, thread, entry.ofd, data))
    return result


@syscall("pwrite64")
def sys_pwrite64(kernel, thread, fd, buf, count, offset):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    node = entry.ofd.file
    if not isinstance(node, RegularFile):
        return -E.ESPIPE
    data = thread.process.space.read(buf, count)
    yield kernel.copy_cost(len(data))
    return node.pwrite(offset, data)


@syscall("writev")
def sys_writev(kernel, thread, fd, iov_addr, iovcnt):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    space = thread.process.space
    data = _gather(space, read_iovecs(space, iov_addr, iovcnt))
    yield kernel.copy_cost(len(data))
    result = yield from drive(entry.ofd.file.write(kernel, thread, entry.ofd, data))
    return result


@syscall("pwritev")
def sys_pwritev(kernel, thread, fd, iov_addr, iovcnt, offset):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    node = entry.ofd.file
    if not isinstance(node, RegularFile):
        return -E.ESPIPE
    space = thread.process.space
    data = _gather(space, read_iovecs(space, iov_addr, iovcnt))
    yield kernel.copy_cost(len(data))
    return node.pwrite(offset, data)


def _gather(space, iovecs) -> bytes:
    return b"".join(space.read(base, length) for base, length in iovecs)


@syscall("lseek")
def sys_lseek(kernel, thread, fd, offset, whence):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    node = entry.ofd.file
    if node.kind in ("pipe", "sock", "listen", "epoll"):
        return -E.ESPIPE
    if whence == C.SEEK_SET:
        new = offset
    elif whence == C.SEEK_CUR:
        new = entry.ofd.offset + offset
    elif whence == C.SEEK_END:
        new = node.size() + offset
    else:
        return -E.EINVAL
    if new < 0:
        return -E.EINVAL
    entry.ofd.offset = new
    return new


@syscall("ftruncate")
def sys_ftruncate(kernel, thread, fd, length):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    node = entry.ofd.file
    if not isinstance(node, RegularFile):
        return -E.EINVAL
    node.truncate(length)
    return 0


@syscall("sendfile")
def sys_sendfile(kernel, thread, out_fd, in_fd, offset_addr, count):
    out_entry, err = get_entry(thread, out_fd)
    if out_entry is None:
        return err
    in_entry, err = get_entry(thread, in_fd)
    if in_entry is None:
        return err
    node = in_entry.ofd.file
    if not isinstance(node, RegularFile):
        return -E.EINVAL
    space = thread.process.space
    if offset_addr:
        offset = space.read_u64(offset_addr)
    else:
        offset = in_entry.ofd.offset
    data = node.pread(offset, count)
    result = yield from drive(
        out_entry.ofd.file.write(kernel, thread, out_entry.ofd, data)
    )
    if isinstance(result, int) and result < 0:
        return result
    sent = result
    if offset_addr:
        space.write_u64(offset_addr, offset + sent)
    else:
        in_entry.ofd.offset = offset + sent
    return sent


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------
def _stat_path(kernel, thread, path_addr, statbuf, follow=True):
    path = thread.process.space.read_cstr(path_addr).decode("utf-8", "replace")
    if path.startswith("/proc/"):
        node = kernel.procfs_lookup(thread, path)
        err = E.ENOENT if node is None else 0
    else:
        node, err = kernel.fs.resolve(path, cwd=thread.process.cwd, follow=follow)
    if node is None:
        return -err
    thread.process.space.write(statbuf, node.stat_bytes())
    return 0


@syscall("stat")
def sys_stat(kernel, thread, path_addr, statbuf):
    return _stat_path(kernel, thread, path_addr, statbuf, follow=True)


@syscall("lstat")
def sys_lstat(kernel, thread, path_addr, statbuf):
    return _stat_path(kernel, thread, path_addr, statbuf, follow=False)


@syscall("newfstatat")
def sys_newfstatat(kernel, thread, dirfd, path_addr, statbuf, flags=0):
    return _stat_path(kernel, thread, path_addr, statbuf, follow=True)


@syscall("fstat")
def sys_fstat(kernel, thread, fd, statbuf):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    thread.process.space.write(statbuf, entry.ofd.file.stat_bytes())
    return 0


def _access_impl(kernel, thread, path_addr, mode):
    path = thread.process.space.read_cstr(path_addr).decode("utf-8", "replace")
    node, err = kernel.fs.resolve(path, cwd=thread.process.cwd)
    if node is None:
        return -err
    return 0


@syscall("access")
def sys_access(kernel, thread, path_addr, mode):
    return _access_impl(kernel, thread, path_addr, mode)


@syscall("faccessat")
def sys_faccessat(kernel, thread, dirfd, path_addr, mode, flags=0):
    return _access_impl(kernel, thread, path_addr, mode)


def _readlink_impl(kernel, thread, path_addr, buf, bufsize):
    path = thread.process.space.read_cstr(path_addr).decode("utf-8", "replace")
    node, err = kernel.fs.resolve(path, cwd=thread.process.cwd, follow=False)
    if node is None:
        return -err
    if not isinstance(node, Symlink):
        return -E.EINVAL
    target = node.target.encode()[:bufsize]
    thread.process.space.write(buf, target)
    return len(target)


@syscall("readlink")
def sys_readlink(kernel, thread, path_addr, buf, bufsize):
    return _readlink_impl(kernel, thread, path_addr, buf, bufsize)


@syscall("readlinkat")
def sys_readlinkat(kernel, thread, dirfd, path_addr, buf, bufsize):
    return _readlink_impl(kernel, thread, path_addr, buf, bufsize)


def _getxattr_impl(kernel, thread, path_addr, name_addr, buf, size):
    space = thread.process.space
    path = space.read_cstr(path_addr).decode("utf-8", "replace")
    name = space.read_cstr(name_addr)
    node, err = kernel.fs.resolve(path, cwd=thread.process.cwd)
    if node is None:
        return -err
    value = getattr(node, "xattrs", {}).get(name)
    if value is None:
        return -E.ENODATA
    if size == 0:
        return len(value)
    if size < len(value):
        return -E.ERANGE
    space.write(buf, value)
    return len(value)


@syscall("getxattr")
def sys_getxattr(kernel, thread, path_addr, name_addr, buf, size):
    return _getxattr_impl(kernel, thread, path_addr, name_addr, buf, size)


@syscall("lgetxattr")
def sys_lgetxattr(kernel, thread, path_addr, name_addr, buf, size):
    return _getxattr_impl(kernel, thread, path_addr, name_addr, buf, size)


@syscall("fgetxattr")
def sys_fgetxattr(kernel, thread, fd, name_addr, buf, size):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    name = thread.process.space.read_cstr(name_addr)
    value = getattr(entry.ofd.file, "xattrs", {}).get(name)
    if value is None:
        return -E.ENODATA
    if size == 0:
        return len(value)
    if size < len(value):
        return -E.ERANGE
    thread.process.space.write(buf, value)
    return len(value)


@syscall("getdents")
def sys_getdents(kernel, thread, fd, dirp, count):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    node = entry.ofd.file
    if not isinstance(node, Directory):
        return -E.ENOTDIR
    entries = node.entries()
    out = bytearray()
    index = entry.ofd.offset
    while index < len(entries):
        name, child = entries[index]
        record = pack_dirent(child.ino, name.encode(), 0)
        if len(out) + len(record) > count:
            break
        out += record
        index += 1
    if index == entry.ofd.offset and index < len(entries):
        return -E.EINVAL  # buffer too small for even one record
    entry.ofd.offset = index
    thread.process.space.write(dirp, bytes(out))
    return len(out)


# ---------------------------------------------------------------------------
# namespace modification
# ---------------------------------------------------------------------------
@syscall("unlink")
def sys_unlink(kernel, thread, path_addr):
    path = thread.process.space.read_cstr(path_addr).decode("utf-8", "replace")
    parent, basename, err = kernel.fs.parent_of(path, cwd=thread.process.cwd)
    if parent is None:
        return -err
    node = parent.children.get(basename)
    if node is None:
        return -E.ENOENT
    if isinstance(node, Directory):
        return -E.EISDIR
    del parent.children[basename]
    node.release()
    return 0


@syscall("mkdir")
def sys_mkdir(kernel, thread, path_addr, mode=0o755):
    path = thread.process.space.read_cstr(path_addr).decode("utf-8", "replace")
    parent, basename, err = kernel.fs.parent_of(path, cwd=thread.process.cwd)
    if parent is None:
        return -err
    if basename in parent.children:
        return -E.EEXIST
    child = Directory(basename)
    child.refcount = 1
    parent.children[basename] = child
    return 0


@syscall("rename")
def sys_rename(kernel, thread, old_addr, new_addr):
    space = thread.process.space
    old = space.read_cstr(old_addr).decode("utf-8", "replace")
    new = space.read_cstr(new_addr).decode("utf-8", "replace")
    old_parent, old_name, err = kernel.fs.parent_of(old, cwd=thread.process.cwd)
    if old_parent is None:
        return -err
    node = old_parent.children.get(old_name)
    if node is None:
        return -E.ENOENT
    new_parent, new_name, err = kernel.fs.parent_of(new, cwd=thread.process.cwd)
    if new_parent is None:
        return -err
    del old_parent.children[old_name]
    node.name = new_name
    new_parent.children[new_name] = node
    return 0


# ---------------------------------------------------------------------------
# sync family, fcntl, ioctl, advice
# ---------------------------------------------------------------------------
@syscall("sync")
def sys_sync(kernel, thread):
    return 0


@syscall("syncfs")
def sys_syncfs(kernel, thread, fd):
    entry, err = get_entry(thread, fd)
    return 0 if entry is not None else err


@syscall("fsync")
def sys_fsync(kernel, thread, fd):
    entry, err = get_entry(thread, fd)
    return 0 if entry is not None else err


@syscall("fdatasync")
def sys_fdatasync(kernel, thread, fd):
    entry, err = get_entry(thread, fd)
    return 0 if entry is not None else err


@syscall("fadvise64")
def sys_fadvise64(kernel, thread, fd, offset=0, length=0, advice=0):
    entry, err = get_entry(thread, fd)
    return 0 if entry is not None else err


FIONREAD = 0x541B
FIONBIO = 0x5421


@syscall("ioctl")
def sys_ioctl(kernel, thread, fd, cmd, arg=0):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    if cmd == FIONBIO:
        enable = thread.process.space.read_u32(arg) if arg else 0
        if enable:
            entry.ofd.flags |= C.O_NONBLOCK
        else:
            entry.ofd.flags &= ~C.O_NONBLOCK
        kernel.on_fd_flags_changed(thread.process, fd)
        return 0
    if cmd == FIONREAD:
        node = entry.ofd.file
        available = 0
        if hasattr(node, "rcvbuf"):
            available = len(node.rcvbuf)
        elif hasattr(node, "pipe"):
            available = len(node.pipe.buffer)
        elif isinstance(node, RegularFile):
            available = max(0, len(node.data) - entry.ofd.offset)
        if arg:
            thread.process.space.write_u32(arg, available)
        return 0
    return -E.ENOTTY


@syscall("fcntl")
def sys_fcntl(kernel, thread, fd, cmd, arg=0):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    if cmd == C.F_GETFL:
        return entry.ofd.flags
    if cmd == C.F_SETFL:
        settable = C.O_NONBLOCK | C.O_APPEND
        entry.ofd.flags = (entry.ofd.flags & ~settable) | (arg & settable)
        kernel.on_fd_flags_changed(thread.process, fd)
        return 0
    if cmd == C.F_GETFD:
        return C.FD_CLOEXEC if entry.cloexec else 0
    if cmd == C.F_SETFD:
        entry.cloexec = bool(arg & C.FD_CLOEXEC)
        return 0
    if cmd == C.F_DUPFD:
        return thread.process.fdtable.alloc(entry.ofd, lowest=arg)
    return -E.EINVAL
