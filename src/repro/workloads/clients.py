"""Benchmark clients: ab, wrk and http_load analogues (§5.2).

Clients run as ordinary (un-replicated) simulated processes on a
separate host, so every request crosses the simulated network and pays
its latency — the variable the paper's three scenarios (0.1 ms LAN,
2 ms realistic, 5 ms comparison) sweep.

The three tools differ the way the real ones do:

* **ab** — fixed concurrency, a new connection per request
  (``keepalive=False`` is ab's default);
* **wrk** — fixed concurrency with keep-alive connections;
* **http_load** — like ab but rate-paced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.guest.program import Program
from repro.kernel import constants as C
from repro.kernel import errno_codes as E
from repro.obs.metrics import Histogram
from repro.workloads.servers import HEADER, REQUEST_SIZE


@dataclass
class ClientSpec:
    tool: str = "ab"  # ab | wrk | http_load
    concurrency: int = 8
    total_requests: int = 120
    #: pacing gap between requests per connection (http_load style)
    pace_ns: int = 0

    @property
    def keepalive(self) -> bool:
        return self.tool == "wrk"


CLIENT_HOST = "10.0.0.99"


class ClientResult:
    """Filled in by the client program as it runs."""

    def __init__(self):
        self.started_ns: Optional[int] = None
        self.finished_ns: Optional[int] = None
        #: Virtual time of the last completed request; the duration
        #: fallback when a run ends before the program stamps
        #: ``finished_ns`` (throughput then still uses virtual time
        #: actually spent serving, never wall-clock or zero).
        self.last_completed_ns: Optional[int] = None
        self.completed = 0
        self.errors = 0
        #: Connections shed by the server: RST at connect time (reject
        #: policy) vs. connect timeout (silent-drop policy).
        self.refused = 0
        self.dropped = 0
        self.bytes_received = 0
        #: Per-request latency (send -> full response), virtual ns.
        self.latency = Histogram("client_req_latency_ns")

    @property
    def duration_ns(self) -> int:
        if self.started_ns is None:
            return 0
        end = self.finished_ns
        if end is None:
            end = self.last_completed_ns
        if end is None:
            return 0
        return end - self.started_ns

    def throughput_rps(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.completed / (self.duration_ns / 1e9)

    def latency_percentile(self, p: float) -> int:
        value = self.latency.percentile(p)
        return value if value is not None else 0

    def stats(self) -> dict:
        """Summary for RunResult.stats: counts plus the latency tail."""
        return {
            "completed": self.completed,
            "errors": self.errors,
            "refused": self.refused,
            "dropped": self.dropped,
            "bytes_received": self.bytes_received,
            "duration_ns": self.duration_ns,
            "throughput_rps": round(self.throughput_rps(), 3),
            "latency_p50_ns": self.latency_percentile(50),
            "latency_p99_ns": self.latency_percentile(99),
        }


def build_client_program(
    server_ip: str,
    port: int,
    spec: ClientSpec,
    result: ClientResult,
    name: str = "client",
) -> Program:
    """A load generator driving ``spec.total_requests`` requests."""

    request_line = b"GET /payload".ljust(REQUEST_SIZE, b".")

    def do_request(ctx, fd):
        libc = ctx.libc
        start = ctx.kernel.sim.now
        sent = yield from libc.send(fd, request_line)
        if sent != REQUEST_SIZE:
            return False
        ret, header = yield from libc.recv(fd, 4096)
        if ret <= 0:
            return False
        result.bytes_received += ret
        now = ctx.kernel.sim.now
        result.latency.observe(now - start)
        result.last_completed_ns = now
        return True

    def take(counter) -> bool:
        if counter["issued"] >= spec.total_requests:
            return False
        counter["issued"] += 1
        return True

    def connection_worker(ctx, counter):
        libc = ctx.libc
        if spec.keepalive:
            if not take(counter):
                return
            fd = yield from libc.socket()
            ret = yield from libc.connect(fd, server_ip, port)
            if fd < 0 or ret != 0:
                result.errors += 1
                return
            while True:
                ok = yield from do_request(ctx, fd)
                if ok:
                    result.completed += 1
                else:
                    result.errors += 1
                    break
                if not take(counter):
                    break
                if spec.pace_ns:
                    yield from libc.nanosleep(spec.pace_ns)
            yield from libc.close(fd)
            return
        while take(counter):
            fd = yield from libc.socket()
            if fd < 0:
                result.errors += 1
                continue
            ret = yield from libc.connect(fd, server_ip, port)
            if ret != 0:
                result.errors += 1
                yield from libc.close(fd)
                continue
            ok = yield from do_request(ctx, fd)
            if ok:
                result.completed += 1
            else:
                result.errors += 1
            yield from libc.close(fd)
            if spec.pace_ns:
                yield from libc.nanosleep(spec.pace_ns)

    def main(ctx):
        libc = ctx.libc
        # Give the server time to bind its port.
        yield from libc.nanosleep(2_000_000)
        result.started_ns = ctx.kernel.sim.now
        counter = {"issued": 0}
        done_word = yield from libc.malloc(4)
        ctx.mem.write_u32(done_word, 0)
        workers = max(1, spec.concurrency)

        def spawn(cctx, payload):
            def body():
                yield from connection_worker(cctx, payload)
                value = cctx.mem.read_u32(done_word) + 1
                cctx.mem.write_u32(done_word, value)
                yield from cctx.libc.futex_wake(done_word, 1)

            return body()

        for _ in range(workers - 1):
            yield ctx.spawn_thread(spawn, counter)
        yield from connection_worker(ctx, counter)
        while ctx.mem.read_u32(done_word) < workers - 1:
            current = ctx.mem.read_u32(done_word)
            yield from libc.futex_wait(done_word, current)
        result.finished_ns = ctx.kernel.sim.now
        # Ask the server to shut down.
        fd = yield from libc.socket()
        ret = yield from libc.connect(fd, server_ip, port)
        if ret == 0:
            yield from libc.send(fd, b"QUIT".ljust(REQUEST_SIZE, b"."))
            yield from libc.close(fd)
        return 0

    return Program(name, main, seed=23)


@dataclass
class MuxClientSpec:
    """A connection-multiplexing load generator (repro.fleet).

    One client process drives many concurrent keepalive connections
    through nonblocking connects and sharded epoll event loops, making
    10k+ connections per run tractable: the simulated epoll is an
    O(interest-set) scan per wakeup, so connections are split across
    worker threads each owning at most ``shard_size`` descriptors.
    """

    connections: int = 256
    requests_per_conn: int = 1
    #: Max connections per epoll/worker thread.
    shard_size: int = 64
    #: Aggregate gap between connection openings: the offered SYN rate
    #: is ``1e9 / connect_pace_ns`` per second regardless of how many
    #: shards the connections split into (each shard opens every
    #: ``pace * shards`` ns, staggered by ``pace * index``).
    connect_pace_ns: int = 20_000
    #: Think time between keepalive requests on one connection.
    request_pace_ns: int = 0
    #: Expected response body size (HEADER is added automatically).
    response_bytes: int = 64
    #: Host-side hook run before the shutdown connection (the fleet
    #: runner disarms admission control here so QUIT always lands).
    drain_hook: Optional[Callable[[], None]] = field(default=None, repr=False)

    @property
    def expected_reply(self) -> int:
        return len(HEADER) + self.response_bytes


def build_mux_client_program(
    server_ip: str,
    port: int,
    spec: MuxClientSpec,
    result: ClientResult,
    name: str = "mux-client",
) -> Program:
    request_line = b"GET /payload".ljust(REQUEST_SIZE, b".")
    expected = spec.expected_reply
    shard_count = max(
        1, -(-spec.connections // spec.shard_size)  # ceil division
    )

    def classify_connect_failure(err):
        if err == E.ETIMEDOUT:
            result.dropped += 1
        else:
            result.refused += 1

    def close_conn(libc, epfd, fd, state):
        yield from libc.epoll_ctl(epfd, C.EPOLL_CTL_DEL, fd)
        yield from libc.close(fd)
        state.pop(fd, None)

    def send_request(ctx, fd, st):
        sent = yield from ctx.libc.send(fd, request_line)
        if sent != REQUEST_SIZE:
            return False
        st["sent_at"] = ctx.kernel.sim.now
        st["got"] = 0
        return True

    def shard_worker(ctx, shard_conns):
        libc = ctx.libc
        epfd = yield from libc.epoll_create()
        state = {}
        to_open = shard_conns
        while to_open or state:
            if to_open:
                to_open -= 1
                fd = yield from libc.socket(nonblocking=True)
                if fd < 0:
                    result.errors += 1
                else:
                    ret = yield from libc.connect(fd, server_ip, port)
                    if ret not in (0, -E.EINPROGRESS):
                        result.errors += 1
                        yield from libc.close(fd)
                    else:
                        yield from libc.epoll_ctl(
                            epfd, C.EPOLL_CTL_ADD, fd,
                            C.POLLIN | C.POLLOUT, data=fd,
                        )
                        state[fd] = {"phase": "connecting", "got": 0, "done": 0,
                                     "sent_at": 0}
                if spec.connect_pace_ns:
                    yield from libc.nanosleep(
                        spec.connect_pace_ns * shard_count
                    )
            if not state:
                continue
            # Poll without blocking while still opening connections (the
            # pace sleep above is the clock); block briefly once all are
            # in flight so shed connections' timeouts can fire.
            timeout_ms = 0 if to_open else 20
            count, events = yield from libc.epoll_wait(
                epfd, maxevents=spec.shard_size, timeout_ms=timeout_ms
            )
            if count <= 0:
                continue
            for revents, data in events:
                fd = data
                st = state.get(fd)
                if st is None:
                    continue
                if st["phase"] == "connecting":
                    if revents & (C.POLLERR | C.POLLHUP):
                        err = yield from libc.getsockopt(fd)
                        classify_connect_failure(err)
                        yield from close_conn(libc, epfd, fd, state)
                        continue
                    if revents & C.POLLOUT:
                        st["phase"] = "active"
                        ok = yield from send_request(ctx, fd, st)
                        if not ok:
                            result.errors += 1
                            yield from close_conn(libc, epfd, fd, state)
                            continue
                        # Connected and request in flight: only POLLIN
                        # matters now (a connected socket is always
                        # writable and would spin the event loop).
                        yield from libc.epoll_ctl(
                            epfd, C.EPOLL_CTL_MOD, fd, C.POLLIN, data=fd
                        )
                    continue
                if revents & (C.POLLERR | C.POLLHUP) and not (revents & C.POLLIN):
                    result.errors += 1
                    yield from close_conn(libc, epfd, fd, state)
                    continue
                if not revents & C.POLLIN:
                    continue
                ret, data_bytes = yield from libc.recv(fd, 4096)
                if ret == -E.EAGAIN:
                    continue
                if ret <= 0:
                    result.errors += 1
                    yield from close_conn(libc, epfd, fd, state)
                    continue
                result.bytes_received += ret
                st["got"] += ret
                if st["got"] < expected:
                    continue
                now = ctx.kernel.sim.now
                result.completed += 1
                result.latency.observe(now - st["sent_at"])
                result.last_completed_ns = now
                st["done"] += 1
                if st["done"] >= spec.requests_per_conn:
                    yield from close_conn(libc, epfd, fd, state)
                    continue
                if spec.request_pace_ns:
                    yield from libc.nanosleep(spec.request_pace_ns)
                ok = yield from send_request(ctx, fd, st)
                if not ok:
                    result.errors += 1
                    yield from close_conn(libc, epfd, fd, state)
        yield from libc.close(epfd)

    def main(ctx):
        libc = ctx.libc
        # Give the server time to bind its port.
        yield from libc.nanosleep(2_000_000)
        result.started_ns = ctx.kernel.sim.now
        done_word = yield from libc.malloc(4)
        ctx.mem.write_u32(done_word, 0)
        base = spec.connections // shard_count
        extra = spec.connections % shard_count
        sizes = [base + (1 if i < extra else 0) for i in range(shard_count)]
        # Stagger shard start by one aggregate pace slot each so SYNs
        # from different shards interleave into one evenly-spaced
        # stream instead of arriving in lockstep bursts.
        stagger = spec.connect_pace_ns if shard_count > 1 else 0

        def spawn(cctx, payload):
            index, conns = payload

            def body():
                if stagger and index:
                    yield from cctx.libc.nanosleep(stagger * index)
                yield from shard_worker(cctx, conns)
                value = cctx.mem.read_u32(done_word) + 1
                cctx.mem.write_u32(done_word, value)
                yield from cctx.libc.futex_wake(done_word, 1)

            return body()

        for i in range(1, shard_count):
            yield ctx.spawn_thread(spawn, (i, sizes[i]))
        yield from shard_worker(ctx, sizes[0])
        while ctx.mem.read_u32(done_word) < shard_count - 1:
            current = ctx.mem.read_u32(done_word)
            yield from libc.futex_wait(done_word, current)
        result.finished_ns = ctx.kernel.sim.now
        if spec.drain_hook is not None:
            spec.drain_hook()
        # Ask the server to shut down; retry in case the final
        # connection races a still-full accept queue.
        for _ in range(8):
            fd = yield from libc.socket()
            ret = yield from libc.connect(fd, server_ip, port)
            if ret == 0:
                yield from libc.send(fd, b"QUIT".ljust(REQUEST_SIZE, b"."))
                yield from libc.close(fd)
                break
            yield from libc.close(fd)
            yield from libc.nanosleep(5_000_000)
        return 0

    return Program(name, main, seed=29)


def run_server_benchmark(
    kernel,
    server_program: Program,
    spec: ClientSpec,
    port: int,
    server_runner,
) -> ClientResult:
    """Drive one client/server pair to completion.

    ``server_runner(kernel, server_program)`` must start the server on
    ``kernel`` (natively, under ReMon or under VARAN) without running the
    simulation; this function then starts the client and runs the world.
    A handle with a ``finalize`` (a ReMon) is finalized afterwards, which
    raises any guest failure. Returns the populated :class:`ClientResult`.
    """
    from repro.guest import GuestRuntime

    result = ClientResult()
    handle = server_runner(kernel, server_program)
    client_process = kernel.create_process("client", host_ip=CLIENT_HOST)
    client = build_client_program("10.0.0.1", port, spec, result)
    GuestRuntime(kernel, client_process, client).start()
    kernel.sim.run(max_steps=400_000_000)
    finalize = getattr(handle, "finalize", None)
    if finalize is not None:
        finalize()
    del handle
    return result
