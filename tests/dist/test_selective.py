"""Replication-policy classification tests, and a full-replication run
of a call the mirror lane once crashed on."""

from __future__ import annotations

from repro.core import Level, ReMonConfig
from repro.dist import DistConfig, run_distributed
from repro.dist.selective import (
    LOCAL,
    REPLICATED,
    full_replication,
    selective_replication,
    syscall_class,
)
from repro.guest.program import Program
from repro.kernel.structs import pack_iovec


def test_selective_keeps_reproducible_calls_local():
    policy = selective_replication()
    for name in ("read", "pread64", "fstat", "getpid", "lseek", "uname",
                 "open", "close", "brk"):
        assert policy.classify(name) == LOCAL, name
    # fd-polymorphic calls stay local on regular files...
    assert policy.classify("read", fd_kind="reg") == LOCAL
    assert policy.classify("write", fd_kind="reg") == LOCAL


def test_selective_replicates_external_io_and_time():
    policy = selective_replication()
    for name in ("recvfrom", "recvmsg", "sendto", "sendmsg", "sendfile"):
        assert policy.classify(name) == REPLICATED, name
    # ... and cross the network on sockets.
    assert policy.classify("read", fd_kind="sock") == REPLICATED
    assert policy.classify("write", fd_kind="sock") == REPLICATED
    for name in ("clock_gettime", "gettimeofday", "time"):
        assert policy.classify(name) == REPLICATED, name


def test_time_replication_can_be_disabled():
    from repro.dist.selective import SelectiveReplication

    policy = SelectiveReplication("no-time", replicate_time=False)
    assert policy.classify("clock_gettime") == LOCAL
    assert policy.classify("recvfrom") == REPLICATED


def test_full_replicates_everything_reproducible_too():
    policy = full_replication()
    for name in ("read", "fstat", "getpid", "recvfrom", "clock_gettime"):
        assert policy.classify(name) == REPLICATED, name


def test_process_local_calls_never_replicated():
    for policy in (selective_replication(), full_replication()):
        for name in ("futex", "nanosleep", "epoll_wait", "sched_yield",
                     "madvise"):
            assert policy.classify(name) == LOCAL, (policy.name, name)


def test_syscall_class_buckets():
    assert syscall_class("clock_gettime") == "time"
    assert syscall_class("recvfrom") == "sock"
    assert syscall_class("read", fd_kind="sock") == "sock"
    assert syscall_class("read", fd_kind="reg") == "file"
    assert syscall_class("read") == "file"
    assert syscall_class("fstat") == "file"
    assert syscall_class("getpid") == "proc"
    assert syscall_class("futex") == "proc"
    assert syscall_class("mmap") == "mgmt"


def test_full_replication_mirrors_vectored_reads():
    """Under full replication a follower adopts the leader's readv result
    from the mirror lane."""
    seen = {}

    def main(ctx):
        libc = ctx.libc
        fd = yield from libc.open("/data/f")
        a = yield from libc.malloc(4)
        b = yield from libc.malloc(16)
        iov = yield from libc.push_bytes(pack_iovec(a, 4) + pack_iovec(b, 16))
        ret = yield ctx.sys.readv(fd, iov, 2)
        seen[ctx.process.replica_index] = (ret, ctx.mem.read(a, 4) + ctx.mem.read(b, 6))
        return 0

    data = b"0123456789"
    result = run_distributed(
        Program("readv", main, files={"/data/f": data}),
        ReMonConfig(replicas=3, level=Level.SOCKET_RW,
                    dist=DistConfig(replication=full_replication())),
        max_steps=2_000_000,
    )
    assert result.exit_codes == [0, 0, 0] and not result.diverged
    assert seen == {index: (10, data) for index in range(3)}
    assert result.stats["dist_adopted_results"] >= 2
