"""GHUMVEE's master-call copy against its pre-handler reference.

:class:`ReferenceContext` keeps, verbatim, the copy GHUMVEE had before
its master calls went through the shared handler table: its own
``_replicate_outputs`` with ``_read_master_out``, ``_scatter_iovec``,
``_replicate_pollfds`` and ``_replicate_epoll``, its ``_record_epoll_ctl``
and the Ghumvee's ``filter_special_read``. Hypothesis stages one master
call with out-buffers on two identical ReMon instances (three replicas,
never run), replicates it once through each version, and requires
identical memory in every replica and an identical billed cost.

The reference crashes on ``readv``/``preadv`` (``IovecOut`` has no
``length``), so those are checked against native readv semantics
instead: the first ``result`` bytes land in the slaves' iovecs in order.
"""

import types

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Level, ReMon, ReMonConfig
from repro.core.ghumvee import _READ_FAMILY, LockstepContext
from repro.core.handlers import IpmonHandler, handler_for
from repro.guest.program import Program
from repro.kernel import Kernel
from repro.kernel import constants as C
from repro.kernel.memory import MemoryFault
from repro.kernel.specs import spec_for
from repro.kernel.syscalls import SyscallRequest
from repro.kernel.structs import (
    EPOLL_EVENT_SIZE,
    POLLFD_SIZE,
    SOCKADDR_SIZE,
    STAT_SIZE,
    pack_epoll_event,
    pack_iovec,
    pack_pollfd,
    read_iovecs,
    unpack_epoll_event,
)
from repro.sim import Sleep

REPLICAS = 3
PAGE = C.PAGE_SIZE
#: Per replica: four out-buffer pages, then an aux page (epoll_event /
#: iovec array / addrlen).
BUF_PAGES = 5
A, B, CC, AUX = 0, PAGE, 2 * PAGE, 4 * PAGE
FD = 5
EPFD = 7


class ReferenceContext(LockstepContext):
    """GHUMVEE's lockstep context with the old copy, verbatim."""

    def _record_epoll_ctl(self, space, req, replica_index: int) -> None:
        ghumvee = self.ghumvee
        op, fd, epfd = req.arg(1), req.arg(2), req.arg(0)
        if op == C.EPOLL_CTL_DEL:
            ghumvee.epoll_map.record_ctl_del(epfd, fd, replica_index)
            return
        addr = req.arg(3)
        if not addr:
            return
        try:
            raw = space.read(addr, EPOLL_EVENT_SIZE)
        except MemoryFault:
            return
        _events, data = unpack_epoll_event(raw)
        ghumvee.epoll_map.record_ctl_add(epfd, fd, replica_index, data)

    # -- output replication ---------------------------------------------------
    def _replicate_outputs(self, master_req, result: int, slave_stops):
        ghumvee = self.ghumvee
        costs = ghumvee.costs
        spec = spec_for(master_req.name)
        if spec is None or not slave_stops:
            return 0
        master_space = ghumvee.group.master().space
        name = master_req.name
        replicated = 0

        # Special case: epoll_wait needs per-replica data translation.
        if name == "epoll_wait" and result > 0:
            replicated = self._replicate_epoll(master_req, result, slave_stops)
            yield Sleep(costs.replicate_cost_ns(replicated), cpu=True)
            return replicated

        # Special case: poll rewrites the pollfd array in place.
        if name == "poll":
            replicated = self._replicate_pollfds(master_req, slave_stops)
            yield Sleep(costs.replicate_cost_ns(replicated), cpu=True)
            return replicated

        for index in spec.out_buffers():
            arg_spec = spec.args[index]
            master_addr = master_req.arg(index)
            if not master_addr:
                continue
            data = self._read_master_out(
                master_space, master_req, arg_spec, index, result
            )
            if data is None:
                continue
            # /proc/<pid>/maps filtering (§3.1): scrub IP-MON mappings
            # before any replica-visible copy.
            if name in _READ_FAMILY and ghumvee.fd_is_special(master_req.arg(0)):
                data, result = ghumvee.filter_special_read(
                    master_space, master_addr, data, result
                )
                for stop in slave_stops:
                    stop.final_result = result
                self.exit_stops[ghumvee.group.master_index].final_result = result
            for stop in slave_stops:
                slave_req = self.active_reqs.get(
                    stop.thread.process.replica_index, master_req
                )
                slave_addr = slave_req.arg(index)
                if not slave_addr:
                    continue
                try:
                    if arg_spec.kind == "iovec_out":
                        self._scatter_iovec(
                            stop.thread.process.space, slave_req, arg_spec, index, data
                        )
                    else:
                        stop.thread.process.space.write(
                            slave_addr, data, check_prot=False
                        )
                except MemoryFault:
                    continue
                replicated += len(data)
        yield Sleep(
            costs.replicate_cost_ns(replicated)
            + len(slave_stops) * costs.ptrace_poke_ns,
            cpu=True,
        )
        return replicated

    def _read_master_out(self, space, req, arg_spec, index, result):
        helper = IpmonHandler(req.name)
        valid = helper._valid_length(arg_spec, req.args, result)
        if valid <= 0:
            return b""
        try:
            if arg_spec.kind == "iovec_out":
                count = int(req.args[arg_spec.count_arg])
                iovecs = read_iovecs(space, req.arg(index), count)
                out = bytearray()
                remaining = result
                for base, length in iovecs:
                    if remaining <= 0:
                        break
                    take = min(length, remaining)
                    out += space.read(base, take, check_prot=False)
                    remaining -= take
                return bytes(out)
            return space.read(req.arg(index), valid, check_prot=False)
        except MemoryFault:
            return None

    def _scatter_iovec(self, space, req, arg_spec, index: int, data: bytes) -> None:
        count = int(req.args[arg_spec.count_arg])
        iovecs = read_iovecs(space, req.arg(index), count)
        cursor = 0
        for base, length in iovecs:
            if cursor >= len(data):
                break
            chunk = data[cursor : cursor + length]
            space.write(base, chunk, check_prot=False)
            cursor += len(chunk)

    def _replicate_pollfds(self, master_req, slave_stops) -> int:
        master_space = self.ghumvee.group.master().space
        nfds = master_req.arg(1)
        if not master_req.arg(0) or nfds <= 0:
            return 0
        try:
            raw = master_space.read(
                master_req.arg(0), nfds * POLLFD_SIZE, check_prot=False
            )
        except MemoryFault:
            return 0
        replicated = 0
        for stop in slave_stops:
            slave_req = self.active_reqs.get(
                stop.thread.process.replica_index, master_req
            )
            if not slave_req.arg(0):
                continue
            try:
                stop.thread.process.space.write(
                    slave_req.arg(0), raw, check_prot=False
                )
                replicated += len(raw)
            except MemoryFault:
                continue
        return replicated

    def _replicate_epoll(self, master_req, result: int, slave_stops) -> int:
        ghumvee = self.ghumvee
        master_space = ghumvee.group.master().space
        epfd = master_req.arg(0)
        try:
            raw = master_space.read(
                master_req.arg(1), result * EPOLL_EVENT_SIZE, check_prot=False
            )
        except MemoryFault:
            return 0
        events = [
            unpack_epoll_event(raw[i * EPOLL_EVENT_SIZE : (i + 1) * EPOLL_EVENT_SIZE])
            for i in range(result)
        ]
        neutral = ghumvee.epoll_map.neutralize_events(epfd, events)
        replicated = 0
        # The master's own buffer holds whatever data values the kernel
        # echoed — after a promotion those are the dead master's tags, so
        # localize them for the current master as well (identity rewrite
        # when no promotion has happened).
        master_index = ghumvee.group.master_index
        master_localized = ghumvee.epoll_map.localize_events(
            epfd, neutral, master_index
        )
        for pos, (revents, data) in enumerate(master_localized):
            try:
                master_space.write(
                    master_req.arg(1) + pos * EPOLL_EVENT_SIZE,
                    pack_epoll_event(revents, data),
                    check_prot=False,
                )
            except MemoryFault:
                break
        for stop in slave_stops:
            index = stop.thread.process.replica_index
            slave_req = self.active_reqs.get(index, master_req)
            localized = ghumvee.epoll_map.localize_events(epfd, neutral, index)
            for pos, (revents, data) in enumerate(localized):
                try:
                    stop.thread.process.space.write(
                        slave_req.arg(1) + pos * EPOLL_EVENT_SIZE,
                        pack_epoll_event(revents, data),
                        check_prot=False,
                    )
                    replicated += EPOLL_EVENT_SIZE
                except MemoryFault:
                    break
        return replicated


def filter_special_read(self, master_space, addr: int, data: bytes, result: int):
    """Scrub IP-MON's hidden mappings out of /proc/*/maps content."""
    lines = data.split(b"\n")
    kept = [
        line
        for line in lines
        if b"[ipmon-rb]" not in line and b"[ipmon-filemap]" not in line
    ]
    filtered = b"\n".join(kept)
    if filtered != data:
        try:
            master_space.write(addr, filtered + b"\x00" * (len(data) - len(filtered)),
                               check_prot=False)
        except MemoryFault:
            pass
        return filtered, len(filtered)
    return data, result


def _idle(ctx):
    return 0
    yield  # never run


class World:
    """A never-run ReMon with a scratch mapping in every replica."""

    def __init__(self, context_cls=LockstepContext):
        self.mvee = ReMon(
            Kernel(),
            Program("copy", _idle),
            ReMonConfig(replicas=REPLICAS, level=Level.NO_IPMON),
        )
        self.ghumvee = self.mvee.ghumvee
        if context_cls is ReferenceContext:
            self.ghumvee.filter_special_read = types.MethodType(
                filter_special_read, self.ghumvee
            )
        self.ctx = context_cls(self.ghumvee, 1)
        self.processes = self.mvee.group.processes
        self.bases = []
        for index, process in enumerate(self.processes):
            mapping = process.space.map(
                None, BUF_PAGES * PAGE, C.PROT_READ | C.PROT_WRITE, name="copy-buffers"
            )
            process.space.write(mapping.start, bytes([0xA0 + index]) * (BUF_PAGES * PAGE))
            self.bases.append(mapping.start)

    def write(self, index: int, offset: int, data: bytes) -> None:
        self.processes[index].space.write(self.bases[index] + offset, data)

    def memory(self):
        return [
            process.space.read(base, BUF_PAGES * PAGE)
            for process, base in zip(self.processes, self.bases)
        ]

    def observe_epoll_ctl(self, index: int, op: int, fd: int, tag: int) -> None:
        self.write(index, AUX, pack_epoll_event(C.EPOLLIN, tag))
        req = SyscallRequest("epoll_ctl", (EPFD, op, fd, self.bases[index] + AUX))
        if isinstance(self.ctx, ReferenceContext):
            self.ctx._record_epoll_ctl(self.processes[index].space, req, index)
        else:
            handler_for("epoll_ctl").observe(self.ghumvee.views[index], req)

    def promote(self, index: int) -> None:
        self.mvee.group.master_index = index
        self.mvee.epoll_map.promote(index)

    def replicate(self, name: str, args, result: int, null_slave):
        """Run one master call's copy; returns (bytes, sleeps, result)."""
        master = self.mvee.group.master_index
        live = [i for i in range(REPLICAS) if i >= master]
        reqs = {}
        for index in live:
            addr = None if index == null_slave else self.bases[index]
            reqs[index] = SyscallRequest(name, args(addr))
        stops = {
            index: types.SimpleNamespace(
                thread=types.SimpleNamespace(process=self.processes[index]),
                result=result,
                final_result=result,
            )
            for index in live
        }
        ctx = self.ctx
        ctx.active_reqs = reqs
        ctx.exit_stops = stops
        slaves = [stops[i] for i in live if i != master]
        if isinstance(ctx, ReferenceContext):
            gen = ctx._replicate_outputs(reqs[master], result, slaves)
        else:
            gen = ctx._replicate_outputs(reqs[master], result, stops[master], slaves)
        sleeps = []
        try:
            effect = gen.send(None)
            while True:
                assert isinstance(effect, Sleep)
                sleeps.append((effect.ns, effect.cpu))
                effect = gen.send(None)
        except StopIteration as stop:
            replicated = stop.value
        return replicated, sleeps, stops[master].final_result


def _ptr(addr, offset):
    """A buffer pointer in one replica (``None``: that replica passes 0)."""
    return 0 if addr is None else addr + offset


_MAPS_LINES = [
    b"00400000-00452000 r-xp 00000000 00:00 0 text:app",
    b"7e0000000000-7e0000100000 rw-s 00000000 00:00 0 [ipmon-rb]",
    b"7f0000000000-7f0000001000 r--s 00000000 00:00 0 [ipmon-filemap]",
    b"01000000-01021000 rw-p 00000000 00:00 0 [heap]",
]


@st.composite
def master_calls(draw):
    """One master call with out-buffers: (name, args, result, stage),
    where ``stage(world)`` writes the pre-call state and what the kernel
    left in the master's buffers."""
    name = draw(st.sampled_from([
        "read", "pread64", "recvfrom", "getsockname", "fstat", "select",
        "pipe2", "time", "poll", "epoll_wait",
    ]))
    writes = []  # (replica or None for the master, offset, bytes)
    special = False
    registrations = []  # (after_promotion, fd, per-replica tags)
    deleted = None
    promoted = draw(st.booleans())

    if name in ("read", "pread64", "recvfrom"):
        if name != "recvfrom" and draw(st.booleans()):
            special = True
            lines = draw(st.lists(st.sampled_from(_MAPS_LINES), max_size=8))
            data = b"\n".join(lines)
        else:
            data = draw(st.binary(max_size=600))
        count = len(data) + draw(st.integers(0, 64))
        result = len(data)
        writes.append((None, A, data))
        if name == "read":
            def args(addr):
                return (FD, _ptr(addr, A), count)
        elif name == "pread64":
            def args(addr):
                return (FD, _ptr(addr, A), count, 17)
        else:
            with_addr = draw(st.booleans())
            writes.append((None, B, draw(st.binary(min_size=SOCKADDR_SIZE, max_size=SOCKADDR_SIZE))))

            def args(addr):
                src = _ptr(addr, B) if with_addr else 0
                return (FD, _ptr(addr, A), count, 0, src, _ptr(addr, AUX))
    elif name == "getsockname":
        result = 0
        writes.append((None, B, draw(st.binary(min_size=SOCKADDR_SIZE, max_size=SOCKADDR_SIZE))))

        def args(addr):
            return (FD, _ptr(addr, B), _ptr(addr, AUX))
    elif name == "fstat":
        result = 0
        writes.append((None, A, draw(st.binary(min_size=STAT_SIZE, max_size=STAT_SIZE))))

        def args(addr):
            return (FD, _ptr(addr, A))
    elif name == "select":
        result = draw(st.integers(0, 10))
        present = draw(st.lists(st.booleans(), min_size=3, max_size=3))
        for offset in (A, B, CC):
            writes.append((None, offset, draw(st.binary(min_size=128, max_size=128))))

        def args(addr):
            sets = [_ptr(addr, off) if on else 0 for on, off in zip(present, (A, B, CC))]
            return (64, sets[0], sets[1], sets[2], 0)
    elif name == "pipe2":
        result = 0
        writes.append((None, A, draw(st.binary(min_size=8, max_size=8))))

        def args(addr):
            return (_ptr(addr, A), 0)
    elif name == "time":
        result = draw(st.integers(0, 2**31))
        with_buf = draw(st.booleans())
        writes.append((None, A, draw(st.binary(min_size=8, max_size=8))))

        def args(addr):
            return (_ptr(addr, A) if with_buf else 0,)
    elif name == "poll":
        nfds = draw(st.integers(0, 12))
        entries = [
            (draw(st.integers(-1, 40)), draw(st.integers(0, 0x7FFF)))
            for _ in range(nfds)
        ]
        before = b"".join(pack_pollfd(fd, events, 0) for fd, events in entries)
        after = b"".join(
            pack_pollfd(fd, events, draw(st.integers(0, 0x7FFF)))
            for fd, events in entries
        )
        for index in range(REPLICAS):
            writes.append((index, A, before))
        writes.append((None, A, after))
        result = draw(st.integers(0, nfds))

        def args(addr):
            return (_ptr(addr, A), nfds, 0)
    else:  # epoll_wait
        fds = draw(st.lists(st.integers(10, 40), min_size=1, max_size=6, unique=True))
        tag = st.integers(0, 2**64 - 1)
        for fd in fds:
            after = promoted and draw(st.booleans())
            registrations.append((after, fd, [draw(tag) for _ in range(REPLICAS)]))
        if draw(st.booleans()):
            deleted = draw(st.sampled_from(fds))
        echoes = [
            tags[1 if after else 0] for after, fd, tags in registrations
            if fd != deleted
        ]
        result = draw(st.integers(0, 8))
        events = []
        for _ in range(result):
            known = echoes and draw(st.booleans())
            data = draw(st.sampled_from(echoes)) if known else draw(tag)
            events.append(pack_epoll_event(draw(st.integers(1, 0xFF)), data))
        writes.append((None, A, b"".join(events)))
        maxevents = result + draw(st.integers(0, 4))

        def args(addr):
            return (EPFD, _ptr(addr, A), maxevents, 0)

    null_slave = draw(st.sampled_from([None, REPLICAS - 1]))

    def stage(world):
        if special:
            world.mvee.fd_metadata.record_open(FD, "special", special=True)
        for after, fd, tags in registrations:
            if not after:
                for index in range(REPLICAS):
                    world.observe_epoll_ctl(index, C.EPOLL_CTL_ADD, fd, tags[index])
        if promoted:
            world.promote(1)
        for after, fd, tags in registrations:
            if after:
                for index in range(1, REPLICAS):
                    world.observe_epoll_ctl(index, C.EPOLL_CTL_ADD, fd, tags[index])
        if deleted is not None:
            for index in range(world.mvee.group.master_index, REPLICAS):
                world.observe_epoll_ctl(index, C.EPOLL_CTL_DEL, deleted, 0)
        master = world.mvee.group.master_index
        for index, offset, data in writes:
            world.write(master if index is None else index, offset, data)

    return name, args, result, stage, null_slave


@settings(max_examples=150, deadline=None)
@given(call=master_calls())
def test_master_call_copy_matches_reference(call):
    name, args, result, stage, null_slave = call
    outcomes = []
    for context_cls in (ReferenceContext, LockstepContext):
        world = World(context_cls)
        stage(world)
        replicated, sleeps, master_result = world.replicate(name, args, result, null_slave)
        outcomes.append((world.memory(), replicated, sleeps, master_result))
    reference, handled = outcomes
    assert handled[0] == reference[0], "replica memory differs"
    assert handled[1:] == reference[1:]


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["readv", "preadv"]),
    lengths=st.lists(st.integers(0, 64), min_size=1, max_size=6),
    data=st.binary(max_size=400),
    promoted=st.booleans(),
)
def test_vectored_reads_scatter_like_native(name, lengths, data, promoted):
    world = World()
    if promoted:
        world.promote(1)
    master = world.mvee.group.master_index
    data = data[: sum(lengths)]
    result = len(data)

    def iov_base(index, k):
        return world.bases[index] + k * 128

    for index in range(REPLICAS):
        world.write(index, AUX, b"".join(
            pack_iovec(iov_base(index, k), length) for k, length in enumerate(lengths)
        ))

    def scatter(index):
        """Native readv: the first ``result`` bytes, iovec by iovec."""
        cursor = 0
        for k, length in enumerate(lengths):
            chunk = data[cursor : cursor + length]
            world.write(index, k * 128, chunk)
            cursor += len(chunk)

    scatter(master)
    before = world.memory()

    def args(addr):
        base = addr + AUX
        return (FD, base, len(lengths)) if name == "readv" else (FD, base, len(lengths), 3)

    replicated, sleeps, master_result = world.replicate(name, args, result, None)
    slaves = [i for i in range(master + 1, REPLICAS)]
    costs = world.ghumvee.costs
    assert replicated == result * len(slaves)
    assert sleeps == [(
        costs.replicate_cost_ns(replicated) + len(slaves) * costs.ptrace_poke_ns, True
    )]
    assert master_result == result
    after = world.memory()
    assert after[master] == before[master]
    for index in slaves:
        scatter(index)
    assert world.memory() == after
