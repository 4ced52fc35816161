"""Synthetic guest programs with controlled system-call profiles.

A :class:`SyntheticWorkload` describes a benchmark as compute time plus
a rate of system calls split across six categories, one per relaxation
tier of Table 1 (plus the always-monitored management tier):

========== ===============================  =========================
category    representative calls             exempt from level
========== ===============================  =========================
``base``    getpid, gettimeofday, time       BASE_LEVEL
``file_ro`` pread64, fstat, lseek, futex     NONSOCKET_RO_LEVEL
``futex``   futex wake (process-local)       NONSOCKET_RO_LEVEL
``file_rw`` pwrite64, fdatasync              NONSOCKET_RW_LEVEL
``sock_ro`` recvfrom on a loopback socket    SOCKET_RO_LEVEL
``sock_rw`` sendto on a loopback socket      SOCKET_RW_LEVEL
``mgmt``    open/close, mmap/munmap pairs    never (always monitored)
========== ===============================  =========================

The generated program is fully deterministic: every replica draws the
same schedule from the shared program seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Tuple

from repro.guest.program import Compute, Program
from repro.kernel import constants as C

CATEGORIES = ("base", "file_ro", "futex", "file_rw", "sock_ro", "sock_rw", "mgmt")

#: Syscalls per op for each category (mgmt ops are call pairs).
CALLS_PER_OP = {
    "base": 1,
    "file_ro": 1,
    "futex": 1,
    "file_rw": 1,
    "sock_ro": 1,
    "sock_rw": 1,
    "mgmt": 2,
}

IO_CHUNK = 512


@dataclass
class CategoryMix:
    """Calls-per-second of native runtime for each category."""

    rates: Dict[str, float] = field(default_factory=dict)

    def total_rate(self) -> float:
        return sum(self.rates.values())

    def __post_init__(self):
        unknown = set(self.rates) - set(CATEGORIES)
        if unknown:
            raise ValueError("unknown syscall categories: %r" % sorted(unknown))


@dataclass
class SyntheticWorkload:
    """A reconstructed benchmark."""

    name: str
    native_ms: float
    mix: CategoryMix
    threads: int = 1
    #: Multiplier on the cost model's per-replica memory pressure,
    #: capturing how cache-sensitive this benchmark is.
    cache_sensitivity: float = 1.0
    seed: int = 1234

    def native_ns(self) -> int:
        return int(self.native_ms * 1_000_000)

    def schedule(self) -> List[str]:
        """The deterministic multiset of ops (shared by all replicas)."""
        rates = tuple(sorted(self.mix.rates.items()))
        return list(_schedule(self.seed, self.native_ms, rates))


@lru_cache(maxsize=32)
def _schedule(seed: int, native_ms: float, rates: Tuple) -> Tuple[str, ...]:
    """The shuffled op sequence, a pure function of its arguments.

    Memoized because a run builds each workload's program more than
    once (the native baseline, then each MVEE), and the shuffle is most
    of the cost of a build (~0.7 ms for 6.5 k ops).
    """
    duration_s = native_ms / 1000.0
    rng = random.Random(seed)
    mix = dict(rates)
    ops: List[str] = []
    for category in CATEGORIES:
        count = int(round(mix.get(category, 0.0) * duration_s / CALLS_PER_OP[category]))
        ops.extend([category] * count)
    rng.shuffle(ops)
    return tuple(ops)


def build_program(workload: SyntheticWorkload) -> Program:
    """Compile a workload description into a runnable guest program."""

    schedule = workload.schedule()
    threads = max(1, workload.threads)
    # Round-robin the schedule across worker threads.
    per_thread: List[List[str]] = [schedule[i::threads] for i in range(threads)]
    total_ns = workload.native_ns()
    needs_socket = any(op.startswith("sock") for op in schedule)
    needs_file = any(op in ("file_ro", "file_rw", "mgmt") for op in schedule)
    sock_ro_bytes = sum(IO_CHUNK for op in schedule if op == "sock_ro")

    def worker_body(ctx, ops, resources):
        libc = ctx.libc
        if not ops:
            # A purely compute-bound thread (e.g. swaptions): no
            # syscalls, just the benchmark's native running time.
            yield Compute(total_ns)
            return
        count = max(1, len(ops))
        gap = max(1, total_ns // count)
        futex_word = yield from libc.malloc(4)
        ctx.mem.write_u32(futex_word, 0)
        for op in ops:
            yield Compute(gap)
            if op == "base":
                choice = ctx.rng.random()
                if choice < 0.4:
                    yield ctx.sys.getpid()
                elif choice < 0.7:
                    ns = yield from libc.clock_gettime()
                    assert ns >= 0
                else:
                    yield ctx.sys.gettid()
            elif op == "file_ro":
                choice = ctx.rng.random()
                if choice < 0.7:
                    offset = ctx.rng.randrange(8) * IO_CHUNK
                    ret, _data = yield from libc.pread(
                        resources["ro_fd"], IO_CHUNK, offset
                    )
                    assert ret >= 0, ret
                else:
                    ret, _st = yield from libc.fstat(resources["ro_fd"])
                    assert ret == 0, ret
            elif op == "futex":
                ret = yield from libc.futex_wake(futex_word, 1)
                assert ret >= 0, ret
            elif op == "file_rw":
                if ctx.rng.random() < 0.9:
                    ret = yield from libc.pwrite(
                        resources["rw_fd"], b"x" * IO_CHUNK, 0
                    )
                    assert ret == IO_CHUNK, ret
                else:
                    ret = yield ctx.sys.fdatasync(resources["rw_fd"])
                    assert ret == 0, ret
            elif op == "sock_ro":
                ret, _data = yield from libc.recv(resources["sock_r"], IO_CHUNK)
                assert ret == IO_CHUNK, ret
            elif op == "sock_rw":
                ret = yield from libc.send(resources["sock_w"], b"y" * IO_CHUNK)
                assert ret == IO_CHUNK, ret
            elif op == "mgmt":
                if ctx.rng.random() < 0.5:
                    fd = yield from libc.open("/data/%s.bin" % workload.name)
                    assert fd >= 0, fd
                    yield from libc.close(fd)
                else:
                    addr = yield ctx.sys.mmap(
                        0,
                        C.PAGE_SIZE,
                        C.PROT_READ | C.PROT_WRITE,
                        C.MAP_PRIVATE | C.MAP_ANONYMOUS,
                        -1,
                        0,
                    )
                    assert addr > 0
                    yield ctx.sys.munmap(addr, C.PAGE_SIZE)

    def main(ctx):
        libc = ctx.libc
        resources = {}
        if needs_file:
            resources["ro_fd"] = yield from libc.open("/data/%s.bin" % workload.name)
            assert resources["ro_fd"] >= 0
            resources["rw_fd"] = yield from libc.open(
                "/tmp/%s.out" % workload.name, C.O_RDWR | C.O_CREAT
            )
            assert resources["rw_fd"] >= 0
        if needs_socket:
            yield from _setup_loopback(ctx, resources, sock_ro_bytes)

        done_word = yield from libc.malloc(4)
        ctx.mem.write_u32(done_word, 0)
        remaining = {"count": threads - 1}

        def spawn_worker(cctx, payload):
            ops_for_thread = payload

            def body():
                yield from worker_body(cctx, ops_for_thread, resources)
                value = cctx.mem.read_u32(done_word) + 1
                cctx.mem.write_u32(done_word, value)
                yield from cctx.libc.futex_wake(done_word, 1)

            return body()

        for tindex in range(1, threads):
            tid = yield ctx.spawn_thread(spawn_worker, per_thread[tindex])
            assert tid > 0

        yield from worker_body(ctx, per_thread[0], resources)

        # Join workers.
        while ctx.mem.read_u32(done_word) < remaining["count"]:
            current = ctx.mem.read_u32(done_word)
            yield from libc.futex_wait(done_word, current)
        return 0

    def _setup_loopback(ctx, resources, prefill_bytes):
        libc = ctx.libc
        port = 17000 + (workload.seed % 1000)
        listener = yield from libc.socket()
        assert listener >= 0
        ret = yield from libc.bind(listener, "0.0.0.0", port)
        assert ret == 0, ret
        ret = yield from libc.listen(listener)
        assert ret == 0
        client = yield from libc.socket()
        ret = yield from libc.connect(client, ctx.process.host_ip, port)
        assert ret == 0, ret
        server_side = yield from libc.accept(listener)
        assert server_side >= 0, server_side
        resources["sock_w"] = client
        resources["sock_r"] = server_side
        # Pre-fill so sock_ro ops never block: the loopback carries all
        # the bytes the schedule will read, ahead of time.
        remaining = prefill_bytes
        while remaining > 0:
            chunk = min(remaining, 65536)
            ret = yield from libc.send(resources["sock_w"], b"z" * chunk)
            assert ret == chunk, ret
            remaining -= chunk

    files = {}
    if needs_file:
        files["/data/%s.bin" % workload.name] = bytes(IO_CHUNK * 16)
    program = Program(workload.name, main, seed=workload.seed, files=files)
    program.cache_sensitivity = workload.cache_sensitivity
    program.workload = workload
    return program
