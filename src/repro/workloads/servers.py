"""Server applications reconstructed for the §5.2 evaluation.

Each server the paper measured is modelled with its real concurrency
architecture and per-request system-call pattern:

============ ======== ========== ========= ======================
server        workers  I/O model  response  per-request extras
============ ======== ========== ========= ======================
apache        4        accept     10 KiB    file pread + log write
thttpd        1        poll       4 KiB     file pread
lighttpd      1        epoll      4 KiB     file pread + log write
nginx         4        epoll      4 KiB     file pread
redis         1        epoll      64 B      —
memcached     4        epoll      128 B     —
beanstalkd    1        epoll      128 B     —
============ ======== ========== ========= ======================

All servers speak the same tiny line-oriented protocol the clients in
:mod:`repro.workloads.clients` generate: a fixed-size request line; the
response is a header plus a payload. A request beginning with ``QUIT``
asks the server to shut down.

Shutdown is deliberately data-race-free: no worker ever polls a flag
another thread wrote to memory. The worker that services QUIT closes
the shared listener (accept model) or pokes a never-drained shutdown
pipe registered in every sibling's readiness set (poll/epoll models),
and the main thread joins workers by reading one byte per sibling from
a join pipe. Every loop exit is therefore driven by a system-call
result. That is the discipline the paper demands of MVEE-able
programs — racy flag polls make per-thread syscall counts depend on
scheduling, which desynchronises lockstep replicas (and, in the
distributed fleet, the leader and its followers resume replicated
calls at different offsets, so such races *will* fire).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.guest.program import Compute, Program
from repro.kernel import constants as C
from repro.kernel.structs import POLLFD_SIZE, pack_pollfd, unpack_pollfd

REQUEST_SIZE = 64
HEADER = b"OK 200\n"


@dataclass
class ServerSpec:
    name: str
    port: int
    workers: int = 1
    io_model: str = "epoll"  # epoll | poll | accept
    response_bytes: int = 4096
    file_io: bool = False
    log_writes: bool = False
    service_ns: int = 8_000

    def program(self) -> Program:
        return build_server_program(self)


#: The nine §5.2 configurations (server names match Figure 5's labels).
SERVERS = {
    "apache-ab": ServerSpec(
        "apache-ab", 8100, workers=4, io_model="accept", response_bytes=10240,
        file_io=True, log_writes=True, service_ns=110_000,
    ),
    "thttpd-ab": ServerSpec(
        "thttpd-ab", 8101, workers=1, io_model="poll", response_bytes=4096,
        file_io=True, service_ns=90_000,
    ),
    "lighttpd-ab": ServerSpec(
        "lighttpd-ab", 8102, workers=1, io_model="epoll", response_bytes=4096,
        file_io=True, log_writes=True, service_ns=80_000,
    ),
    "lighttpd-http_load": ServerSpec(
        "lighttpd-http_load", 8103, workers=1, io_model="epoll",
        response_bytes=4096, file_io=True, log_writes=True, service_ns=80_000,
    ),
    "lighttpd-wrk": ServerSpec(
        "lighttpd-wrk", 8104, workers=1, io_model="epoll", response_bytes=4096,
        file_io=True, log_writes=True, service_ns=80_000,
    ),
    "nginx-wrk": ServerSpec(
        "nginx-wrk", 8105, workers=4, io_model="epoll", response_bytes=4096,
        file_io=True, service_ns=60_000,
    ),
    "redis": ServerSpec(
        "redis", 8106, workers=1, io_model="epoll", response_bytes=64,
        service_ns=15_000,
    ),
    "memcached": ServerSpec(
        "memcached", 8107, workers=4, io_model="epoll", response_bytes=128,
        service_ns=15_000,
    ),
    "beanstalkd": ServerSpec(
        "beanstalkd", 8108, workers=1, io_model="epoll", response_bytes=128,
        service_ns=18_000,
    ),
}

EPOLL_IDLE_TIMEOUT_MS = 25


def build_server_program(spec: ServerSpec) -> Program:
    """Compile a server spec into a guest program."""

    def main(ctx):
        libc = ctx.libc
        # Every real network server does this: a peer that hangs up
        # mid-response must not kill the process.
        yield ctx.sys.rt_sigaction(C.SIGPIPE, C.SIG_IGN)
        listener = yield from libc.socket()
        assert listener >= 0, listener
        ret = yield from libc.bind(listener, "0.0.0.0", spec.port)
        assert ret == 0, ret
        ret = yield from libc.listen(listener, 128)
        assert ret == 0, ret
        yield from libc.set_nonblocking(listener)

        # Shutdown pipe: the QUIT worker writes one byte and nobody ever
        # reads it, so the read end stays level-triggered-readable in
        # every sibling's poll/epoll interest set. Join pipe: each
        # sibling writes one byte on exit and main reads exactly
        # ``workers - 1`` of them — both signals travel through syscall
        # results, never through racy cross-thread memory reads.
        sd_r, sd_w = yield from libc.pipe()
        assert sd_r >= 0, sd_r
        join_r, join_w = yield from libc.pipe()
        assert join_r >= 0, join_r
        shared = {
            "listener": listener,
            "sd_r": sd_r,
            "sd_w": sd_w,
            "join_w": join_w,
        }

        def spawn_worker(cctx, payload):
            def body():
                yield from _worker(cctx, spec, payload)
                ret = yield from cctx.libc.write(payload["join_w"], b".")
                assert ret == 1, ret

            return body()

        for _ in range(spec.workers - 1):
            tid = yield ctx.spawn_thread(spawn_worker, shared)
            assert tid > 0, tid

        yield from _worker(ctx, spec, shared)
        for _ in range(spec.workers - 1):
            ret, _ = yield from libc.read(join_r, 1)
            assert ret == 1, ret
        return 0

    files = {}
    if spec.file_io:
        files["/var/www/%s.payload" % spec.name] = bytes(spec.response_bytes)
    return Program(spec.name, main, seed=11, files=files)


def _worker(ctx, spec: ServerSpec, shared):
    if spec.io_model == "accept":
        yield from _accept_worker(ctx, spec, shared)
    elif spec.io_model == "poll":
        yield from _poll_worker(ctx, spec, shared)
    else:
        yield from _epoll_worker(ctx, spec, shared)


def _open_resources(ctx, spec):
    libc = ctx.libc
    # "stop" is this worker's private QUIT latch (each worker owns its
    # resources dict), so reading it back is race-free by construction.
    resources = {"stop": False}
    if spec.file_io:
        fd = yield from libc.open("/var/www/%s.payload" % spec.name)
        assert fd >= 0, fd
        resources["file_fd"] = fd
    if spec.log_writes:
        fd = yield from libc.open(
            "/var/log_%s.txt" % spec.name, C.O_WRONLY | C.O_CREAT | C.O_APPEND
        )
        assert fd >= 0, fd
        resources["log_fd"] = fd
    return resources


def _handle_request(ctx, spec, resources, conn, request: bytes):
    """Service one request; returns False when it was QUIT."""
    libc = ctx.libc
    if request.startswith(b"QUIT"):
        resources["stop"] = True
        return False
    yield Compute(spec.service_ns)
    if spec.file_io:
        ret, _data = yield from libc.pread(
            resources["file_fd"], min(spec.response_bytes, 4096), 0
        )
        assert ret >= 0, ret
    body = HEADER + b"x" * spec.response_bytes
    sent = yield from libc.send(conn, body)
    if spec.log_writes and sent > 0:
        yield from libc.write(resources["log_fd"], b"GET /payload 200\n")
    return sent > 0


def _accept_worker(ctx, spec, shared):
    """Blocking thread-per-connection model (apache prefork style).

    The QUIT worker closes the shared listener — a monitored, globally
    ordered call — and every sibling exits when its next accept()
    reports EBADF, so shutdown never reads another thread's memory.
    """
    libc = ctx.libc
    resources = yield from _open_resources(ctx, spec)
    listener = shared["listener"]
    while True:
        conn = yield from libc.accept(listener)
        if conn == -11:  # EAGAIN: racing with other workers
            yield from libc.nanosleep(200_000)
            continue
        if conn < 0:  # EBADF: a sibling saw QUIT and closed the listener
            break
        keep_going = True
        while keep_going:
            ret, request = yield from libc.recv(conn, REQUEST_SIZE)
            if ret <= 0:
                break
            keep_going = yield from _handle_request(
                ctx, spec, resources, conn, request
            )
        yield from libc.close(conn)
        if resources["stop"]:
            yield from libc.close(listener)
            break


def _poll_worker(ctx, spec, shared):
    """poll(2)-based single-threaded loop (thttpd style)."""
    libc = ctx.libc
    resources = yield from _open_resources(ctx, spec)
    listener = shared["listener"]
    shutdown_fd = shared["sd_r"]
    conns = []
    MAXFDS = 64
    fds_buf = yield from libc.malloc(MAXFDS * POLLFD_SIZE)
    running = True
    while running:
        watch = [listener, shutdown_fd] + conns
        for index, fd in enumerate(watch):
            ctx.mem.write(
                fds_buf + index * POLLFD_SIZE, pack_pollfd(fd, C.POLLIN, 0)
            )
        ready = yield ctx.sys.poll(fds_buf, len(watch), EPOLL_IDLE_TIMEOUT_MS)
        if ready <= 0:
            continue
        for index, fd in enumerate(watch):
            raw = ctx.mem.read(fds_buf + index * POLLFD_SIZE, POLLFD_SIZE)
            _fd, _ev, revents = unpack_pollfd(raw)
            if not revents:
                continue
            if fd == shutdown_fd:
                # A sibling saw QUIT and poked the shutdown pipe; the
                # byte is never drained, so the event is level-triggered
                # and every worker's poll set reports it.
                running = False
                continue
            if fd == listener:
                conn = yield from libc.accept(listener)
                if conn >= 0:
                    conns.append(conn)
                continue
            ret, request = yield from libc.recv(fd, REQUEST_SIZE)
            if ret <= 0:
                yield from libc.close(fd)
                conns.remove(fd)
                continue
            alive = yield from _handle_request(ctx, spec, resources, fd, request)
            if not alive:
                yield from libc.close(fd)
                conns.remove(fd)
                if resources["stop"]:
                    yield from libc.write(shared["sd_w"], b"x")
                    running = False


def _epoll_worker(ctx, spec, shared):
    """epoll-based loop (lighttpd/nginx/redis/memcached/beanstalkd)."""
    libc = ctx.libc
    resources = yield from _open_resources(ctx, spec)
    listener = shared["listener"]
    epfd = yield from libc.epoll_create()
    assert epfd >= 0, epfd
    # Real servers store a connection-object pointer in epoll data; we
    # mimic that by tagging descriptors with a per-replica "pointer"
    # derived from the heap — exercising the shadow map (§3.9).
    listener_tag = ctx.process.space.brk_base + listener
    ret = yield from libc.epoll_ctl(
        epfd, C.EPOLL_CTL_ADD, listener, C.EPOLLIN, data=listener_tag
    )
    assert ret == 0, ret
    shutdown_tag = ctx.process.space.brk_base + 0x2000 + shared["sd_r"]
    ret = yield from libc.epoll_ctl(
        epfd, C.EPOLL_CTL_ADD, shared["sd_r"], C.EPOLLIN, data=shutdown_tag
    )
    assert ret == 0, ret
    tag_to_fd = {listener_tag: listener}
    running = True
    while running:
        count, events = yield from libc.epoll_wait(
            epfd, maxevents=16, timeout_ms=EPOLL_IDLE_TIMEOUT_MS
        )
        if count < 0:
            break
        for _revents, tag in events:
            if tag == shutdown_tag:
                # A sibling saw QUIT and poked the shutdown pipe; the
                # byte is never drained, so the event is level-triggered
                # and every worker's epoll reports it.
                running = False
                continue
            fd = tag_to_fd.get(tag)
            if fd is None:
                continue
            if fd == listener:
                conn = yield from libc.accept(listener)
                if conn < 0:
                    continue
                yield from libc.set_nonblocking(conn)
                conn_tag = ctx.process.space.brk_base + 0x1000 + conn
                tag_to_fd[conn_tag] = conn
                ret = yield from libc.epoll_ctl(
                    epfd, C.EPOLL_CTL_ADD, conn, C.EPOLLIN, data=conn_tag
                )
                assert ret == 0, ret
                continue
            ret, request = yield from libc.recv(fd, REQUEST_SIZE)
            if ret == -11:  # EAGAIN
                continue
            if ret <= 0:
                yield from libc.epoll_ctl(epfd, C.EPOLL_CTL_DEL, fd)
                yield from libc.close(fd)
                tag_to_fd.pop(
                    next((t for t, f in tag_to_fd.items() if f == fd), None), None
                )
                continue
            alive = yield from _handle_request(ctx, spec, resources, fd, request)
            if not alive:
                yield from libc.epoll_ctl(epfd, C.EPOLL_CTL_DEL, fd)
                yield from libc.close(fd)
                tag_to_fd.pop(
                    next((t for t, f in tag_to_fd.items() if f == fd), None), None
                )
                if resources["stop"]:
                    yield from libc.write(shared["sd_w"], b"x")
                    running = False
