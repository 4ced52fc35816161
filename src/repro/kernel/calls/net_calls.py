"""Socket system calls."""

from __future__ import annotations

import struct

from repro.kernel import constants as C
from repro.kernel import errno_codes as E
from repro.kernel.calls._helpers import drive, get_entry
from repro.kernel.sockets import ListeningSocket, StreamSocket, connect_sockets
from repro.kernel.structs import (
    SOCKADDR_SIZE,
    pack_sockaddr,
    read_iovecs,
    unpack_sockaddr,
)
from repro.kernel.syscalls import syscall
from repro.kernel.vfs import OpenFileDescription
from repro.kernel.waitq import wait_interruptible


def _host_ip(thread) -> str:
    return getattr(thread.process, "host_ip", "127.0.0.1")


@syscall("socket")
def sys_socket(kernel, thread, domain, type_, protocol=0):
    if domain not in (C.AF_INET, C.AF_UNIX):
        return -E.EINVAL
    base_type = type_ & ~(C.SOCK_NONBLOCK | C.SOCK_CLOEXEC)
    if base_type != C.SOCK_STREAM:
        return -E.EINVAL  # datagram sockets are out of scope
    sock = StreamSocket(kernel, _host_ip(thread))
    flags = C.O_RDWR
    if type_ & C.SOCK_NONBLOCK:
        flags |= C.O_NONBLOCK
    ofd = OpenFileDescription(sock, flags)
    return thread.process.fdtable.alloc(ofd, cloexec=bool(type_ & C.SOCK_CLOEXEC))


@syscall("bind")
def sys_bind(kernel, thread, fd, addr_ptr, addrlen):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    sock = entry.ofd.file
    if not isinstance(sock, StreamSocket):
        return -E.ENOTSOCK
    raw = thread.process.space.read(addr_ptr, SOCKADDR_SIZE)
    _family, ip, port = unpack_sockaddr(raw)
    sock.local_addr = (ip if ip != "0.0.0.0" else _host_ip(thread), port)
    sock.requested_addr = (ip, port)
    return 0


@syscall("listen")
def sys_listen(kernel, thread, fd, backlog=128):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    sock = entry.ofd.file
    if isinstance(sock, ListeningSocket):
        return 0
    if not isinstance(sock, StreamSocket):
        return -E.ENOTSOCK
    if sock.connected:
        return -E.EISCONN
    listener = ListeningSocket(kernel, sock.host_ip, name="listen:%d" % fd)
    listener.local_addr = sock.local_addr
    listener.backlog_limit = max(1, backlog)
    listener.sockopts = dict(sock.sockopts)
    bind_addr = getattr(sock, "requested_addr", sock.local_addr)
    result = kernel.network.bind_listener(
        (bind_addr[0], sock.local_addr[1]), listener
    )
    if result < 0:
        return result
    # Swap the OFD's file object: the fd now refers to the listener.
    listener.refcount += 1
    old = entry.ofd.file
    entry.ofd.file = listener
    old.release()
    ctl = getattr(kernel, "admission_control", None)
    if ctl is not None:
        ctl.attach(listener)
    return 0


def _do_accept(kernel, thread, fd, addr_ptr, len_ptr, flags):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    listener = entry.ofd.file
    if not isinstance(listener, ListeningSocket):
        return -E.EINVAL
    result = yield from listener.accept_one(
        kernel, thread, entry.ofd.nonblocking
    )
    if isinstance(result, int):
        return result
    conn = result
    ofd_flags = C.O_RDWR
    if flags & C.SOCK_NONBLOCK:
        ofd_flags |= C.O_NONBLOCK
    ofd = OpenFileDescription(conn, ofd_flags)
    newfd = thread.process.fdtable.alloc(
        ofd, cloexec=bool(flags & C.SOCK_CLOEXEC)
    )
    if newfd < 0:
        return newfd
    if addr_ptr and conn.peer_addr is not None:
        thread.process.space.write(
            addr_ptr, pack_sockaddr(C.AF_INET, conn.peer_addr[0], conn.peer_addr[1])
        )
        if len_ptr:
            thread.process.space.write_u32(len_ptr, SOCKADDR_SIZE)
    kernel.on_fd_opened(thread.process, newfd)
    return newfd


@syscall("accept")
def sys_accept(kernel, thread, fd, addr_ptr=0, len_ptr=0):
    result = yield from _do_accept(kernel, thread, fd, addr_ptr, len_ptr, 0)
    return result


@syscall("accept4")
def sys_accept4(kernel, thread, fd, addr_ptr=0, len_ptr=0, flags=0):
    result = yield from _do_accept(kernel, thread, fd, addr_ptr, len_ptr, flags)
    return result


@syscall("connect")
def sys_connect(kernel, thread, fd, addr_ptr, addrlen):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    sock = entry.ofd.file
    if not isinstance(sock, StreamSocket):
        return -E.ENOTSOCK
    if sock.connected:
        return -E.EISCONN
    if sock.connecting:
        return -E.EALREADY
    raw = thread.process.space.read(addr_ptr, SOCKADDR_SIZE)
    _family, ip, port = unpack_sockaddr(raw)
    result = yield from drive(connect_sockets(kernel, sock, (ip, port)))
    if result < 0:
        return result
    if entry.ofd.nonblocking:
        return -E.EINPROGRESS
    while sock.connecting:
        event = sock.connq.register()
        status, _ = yield from wait_interruptible(thread, event)
        if status == "interrupted":
            sock.connq.unregister(event)
            return -E.EINTR
    if sock.error:
        err_code = sock.error
        sock.error = 0
        return -err_code
    return 0


@syscall("shutdown")
def sys_shutdown(kernel, thread, fd, how):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    sock = entry.ofd.file
    if not isinstance(sock, StreamSocket):
        return -E.ENOTSOCK
    return sock.shutdown(how)


@syscall("getsockname")
def sys_getsockname(kernel, thread, fd, addr_ptr, len_ptr):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    sock = entry.ofd.file
    if not isinstance(sock, (StreamSocket, ListeningSocket)):
        return -E.ENOTSOCK
    thread.process.space.write(
        addr_ptr, pack_sockaddr(C.AF_INET, sock.local_addr[0], sock.local_addr[1])
    )
    if len_ptr:
        thread.process.space.write_u32(len_ptr, SOCKADDR_SIZE)
    return 0


@syscall("getpeername")
def sys_getpeername(kernel, thread, fd, addr_ptr, len_ptr):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    sock = entry.ofd.file
    if not isinstance(sock, StreamSocket):
        return -E.ENOTSOCK
    if sock.peer_addr is None:
        return -E.ENOTCONN
    thread.process.space.write(
        addr_ptr, pack_sockaddr(C.AF_INET, sock.peer_addr[0], sock.peer_addr[1])
    )
    if len_ptr:
        thread.process.space.write_u32(len_ptr, SOCKADDR_SIZE)
    return 0


@syscall("getsockopt")
def sys_getsockopt(kernel, thread, fd, level, optname, optval, optlen):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    sock = entry.ofd.file
    if not isinstance(sock, (StreamSocket, ListeningSocket)):
        return -E.ENOTSOCK
    if level == C.SOL_SOCKET and optname == C.SO_ERROR:
        value = getattr(sock, "error", 0)
        if isinstance(sock, StreamSocket):
            sock.error = 0
    else:
        value = sock.sockopts.get((level, optname), 0)
    if optval:
        thread.process.space.write_u32(optval, value)
    return 0


@syscall("setsockopt")
def sys_setsockopt(kernel, thread, fd, level, optname, optval, optlen):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    sock = entry.ofd.file
    if not isinstance(sock, (StreamSocket, ListeningSocket)):
        return -E.ENOTSOCK
    value = 0
    if optval and optlen >= 4:
        value = thread.process.space.read_u32(optval)
    sock.sockopts[(level, optname)] = value
    return 0


@syscall("sendto")
def sys_sendto(kernel, thread, fd, buf, length, flags=0, dest_addr=0, addrlen=0):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    sock = entry.ofd.file
    if not isinstance(sock, StreamSocket):
        return -E.ENOTSOCK
    data = thread.process.space.read(buf, length)
    yield kernel.copy_cost(len(data))
    result = sock.send_bytes(data)
    if result == -E.EPIPE:
        kernel.send_signal_to_thread(thread, C.SIGPIPE)
    return result


@syscall("recvfrom")
def sys_recvfrom(kernel, thread, fd, buf, length, flags=0, src_addr=0, len_ptr=0):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    sock = entry.ofd.file
    if not isinstance(sock, StreamSocket):
        return -E.ENOTSOCK
    result = yield from sock.read(kernel, thread, entry.ofd, length)
    if isinstance(result, int):
        return result
    thread.process.space.write(buf, result)
    yield kernel.copy_cost(len(result))
    if src_addr and sock.peer_addr is not None:
        thread.process.space.write(
            src_addr, pack_sockaddr(C.AF_INET, sock.peer_addr[0], sock.peer_addr[1])
        )
        if len_ptr:
            thread.process.space.write_u32(len_ptr, SOCKADDR_SIZE)
    return len(result)


# msghdr layout (simplified): iov_addr u64, iovlen u64
MSGHDR_FMT = "<QQ"
MSGHDR_SIZE = struct.calcsize(MSGHDR_FMT)


def _read_msg_iovecs(space, msg_addr):
    iov_addr, iovlen = struct.unpack(
        MSGHDR_FMT, space.read(msg_addr, MSGHDR_SIZE)
    )
    return read_iovecs(space, iov_addr, iovlen)


@syscall("sendmsg")
def sys_sendmsg(kernel, thread, fd, msg_addr, flags=0):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    sock = entry.ofd.file
    if not isinstance(sock, StreamSocket):
        return -E.ENOTSOCK
    space = thread.process.space
    iovecs = _read_msg_iovecs(space, msg_addr)
    data = b"".join(space.read(base, length) for base, length in iovecs)
    yield kernel.copy_cost(len(data))
    result = sock.send_bytes(data)
    if result == -E.EPIPE:
        kernel.send_signal_to_thread(thread, C.SIGPIPE)
    return result


@syscall("recvmsg")
def sys_recvmsg(kernel, thread, fd, msg_addr, flags=0):
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    sock = entry.ofd.file
    if not isinstance(sock, StreamSocket):
        return -E.ENOTSOCK
    space = thread.process.space
    iovecs = _read_msg_iovecs(space, msg_addr)
    total = sum(length for _base, length in iovecs)
    result = yield from sock.read(kernel, thread, entry.ofd, total)
    if isinstance(result, int):
        return result
    cursor = 0
    for base, length in iovecs:
        if cursor >= len(result):
            break
        chunk = result[cursor : cursor + length]
        space.write(base, chunk)
        cursor += len(chunk)
    yield kernel.copy_cost(len(result))
    return len(result)


@syscall("sendmmsg")
def sys_sendmmsg(kernel, thread, fd, msgvec_addr, vlen, flags=0):
    sent = 0
    for index in range(vlen):
        result = yield from sys_sendmsg(
            kernel, thread, fd, msgvec_addr + index * MSGHDR_SIZE, flags
        )
        if result < 0:
            return result if sent == 0 else sent
        sent += 1
    return sent


@syscall("recvmmsg")
def sys_recvmmsg(kernel, thread, fd, msgvec_addr, vlen, flags=0, timeout=0):
    received = 0
    for index in range(vlen):
        result = yield from sys_recvmsg(
            kernel, thread, fd, msgvec_addr + index * MSGHDR_SIZE, flags
        )
        if result < 0:
            return result if received == 0 else received
        received += 1
        if result == 0:
            break
    return received
