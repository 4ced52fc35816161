"""Stream sockets over a simulated network with configurable latency.

The network is the netem analogue from the paper's server evaluation
(§5.2): a single switch connecting all simulated hosts, applying a
configurable one-way latency to every segment. Loopback traffic (a
socket connecting to its own host) bypasses the latency, mirroring the
network-loopback Phoronix benchmark.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Tuple

from repro.kernel import constants as C
from repro.kernel import errno_codes as E
from repro.kernel.vfs import FileObject
from repro.kernel.waitq import WaitQueue, wait_interruptible
from repro.sim import Sleep

Address = Tuple[str, int]

SOCKET_RCVBUF = 1 << 20


class Network:
    """A single-switch network shared by every simulated host.

    Beyond the base one-way ``latency_ns``, links may model a serialisation
    delay (``bandwidth_bps``) and bounded random jitter (``jitter_ns``), both
    globally and per host pair via :meth:`set_link`. Loopback traffic is
    exempt from bandwidth and jitter. Jitter is drawn from a seeded LCG so
    runs stay deterministic, and :meth:`transmit` clamps delivery times so
    jitter never reorders segments within a directed host pair.

    WAN fault knobs — ``loss_prob``, ``dup_prob``, ``reorder_prob`` — make
    the wire imperfect: a lost segment is billed but never delivered, a
    duplicated one arrives twice, a reordered one is held back past the
    FIFO clamp so later segments can overtake it. Fault draws come from
    their *own* seeded LCG (``fault_seed``), never the jitter stream, so a
    run with every probability at zero consumes the exact jitter sequence
    — and therefore the exact timing — of a run predating the fault model.
    Probabilities may also be set per unordered pair via :meth:`set_link`
    or per *directed* pair via :meth:`set_link_directed` (the granularity
    :class:`~repro.faults.LinkDegradeFault` degrades at). Callers that
    model an already-reliable protocol (guest TCP streams) pass
    ``faults=False`` to :meth:`transmit` and keep a perfect wire.
    """

    def __init__(self, latency_ns: int = 100_000, loopback_latency_ns: int = 5_000,
                 bandwidth_bps: Optional[float] = None, jitter_ns: int = 0,
                 jitter_seed: int = 0x5EED, loss_prob: float = 0.0,
                 dup_prob: float = 0.0, reorder_prob: float = 0.0,
                 fault_seed: int = 0xFA17):
        self.latency_ns = latency_ns
        self.loopback_latency_ns = loopback_latency_ns
        self.bandwidth_bps = bandwidth_bps
        self.jitter_ns = jitter_ns
        self.loss_prob = loss_prob
        self.dup_prob = dup_prob
        self.reorder_prob = reorder_prob
        self.listeners: Dict[Address, "ListeningSocket"] = {}
        self._ephemeral = 32768
        self._links: Dict[frozenset, Dict[str, object]] = {}
        self._directed: Dict[Tuple[str, str], Dict[str, object]] = {}
        self._fifo_clock: Dict[Tuple[str, str], int] = {}
        self._jitter_state = (jitter_seed & 0xFFFFFFFFFFFFFFFF) or 1
        self._fault_state = (fault_seed & 0xFFFFFFFFFFFFFFFF) or 1
        # Counters used by benchmarks to report on-the-wire volume.
        self.bytes_sent = 0
        self.segments_sent = 0
        self.segments_lost = 0
        self.segments_duplicated = 0
        self.segments_reordered = 0

    def ephemeral_port(self) -> int:
        self._ephemeral += 1
        return self._ephemeral

    # -- link model -------------------------------------------------------
    def set_link(self, a_ip: str, b_ip: str, latency_ns: Optional[int] = None,
                 bandwidth_bps: Optional[float] = None,
                 jitter_ns: Optional[int] = None,
                 loss_prob: Optional[float] = None,
                 dup_prob: Optional[float] = None,
                 reorder_prob: Optional[float] = None) -> None:
        """Override link parameters for the (unordered) host pair."""
        override = self._links.setdefault(frozenset((a_ip, b_ip)), {})
        for key, value in (
            ("latency_ns", latency_ns),
            ("bandwidth_bps", bandwidth_bps),
            ("jitter_ns", jitter_ns),
            ("loss_prob", loss_prob),
            ("dup_prob", dup_prob),
            ("reorder_prob", reorder_prob),
        ):
            if value is not None:
                override[key] = value

    def set_link_directed(self, src_ip: str, dst_ip: str,
                          latency_ns: Optional[int] = None,
                          bandwidth_bps: Optional[float] = None,
                          jitter_ns: Optional[int] = None,
                          loss_prob: Optional[float] = None,
                          dup_prob: Optional[float] = None,
                          reorder_prob: Optional[float] = None) -> Dict:
        """Override parameters for one *directed* link (src -> dst only);
        directed overrides win over pair overrides and globals. Returns a
        snapshot of the previous directed override so a caller degrading
        the link for a window can restore it exactly afterwards (see
        :meth:`replace_link_directed`)."""
        key = (src_ip, dst_ip)
        snapshot = dict(self._directed.get(key, {}))
        override = self._directed.setdefault(key, {})
        for name, value in (
            ("latency_ns", latency_ns),
            ("bandwidth_bps", bandwidth_bps),
            ("jitter_ns", jitter_ns),
            ("loss_prob", loss_prob),
            ("dup_prob", dup_prob),
            ("reorder_prob", reorder_prob),
        ):
            if value is not None:
                override[name] = value
        return snapshot

    def replace_link_directed(self, src_ip: str, dst_ip: str,
                              override: Dict) -> None:
        """Restore a directed override to a snapshot taken earlier."""
        if override:
            self._directed[(src_ip, dst_ip)] = dict(override)
        else:
            self._directed.pop((src_ip, dst_ip), None)

    def _link_value(self, src_ip: str, dst_ip: str, key: str):
        # Runs several times per segment; most networks carry no
        # overrides, so build the lookup keys only when one exists.
        if self._directed:
            directed = self._directed.get((src_ip, dst_ip))
            if directed is not None and key in directed:
                return directed[key]
        if self._links:
            override = self._links.get(frozenset((src_ip, dst_ip)))
            if override is not None and key in override:
                return override[key]
        return getattr(self, key)

    def link_params(self, a_ip: str, b_ip: str):
        """Effective (latency_ns, bandwidth_bps, jitter_ns) for a host pair."""
        return (
            self._link_value(a_ip, b_ip, "latency_ns"),
            self._link_value(a_ip, b_ip, "bandwidth_bps"),
            self._link_value(a_ip, b_ip, "jitter_ns"),
        )

    def link_faults(self, src_ip: str, dst_ip: str):
        """Effective (loss_prob, dup_prob, reorder_prob) for a directed
        link — the directed override wins, then the pair, then globals."""
        return (
            self._link_value(src_ip, dst_ip, "loss_prob"),
            self._link_value(src_ip, dst_ip, "dup_prob"),
            self._link_value(src_ip, dst_ip, "reorder_prob"),
        )

    def lossy(self) -> bool:
        """True if any global or per-link fault probability is nonzero
        (the auto-enable signal for the reliable transport layer)."""
        if self.loss_prob or self.dup_prob or self.reorder_prob:
            return True
        knobs = ("loss_prob", "dup_prob", "reorder_prob")
        for override in self._links.values():
            if any(override.get(k) for k in knobs):
                return True
        for override in self._directed.values():
            if any(override.get(k) for k in knobs):
                return True
        return False

    def _next_jitter(self) -> int:
        self._jitter_state = (
            self._jitter_state * 6364136223846793005 + 1442695040888963407
        ) & 0xFFFFFFFFFFFFFFFF
        return self._jitter_state >> 33

    def _next_fault(self) -> float:
        """A fault-lane draw in [0, 1); a separate LCG from jitter so
        zero-probability runs never perturb the jitter sequence."""
        self._fault_state = (
            self._fault_state * 6364136223846793005 + 1442695040888963407
        ) & 0xFFFFFFFFFFFFFFFF
        return (self._fault_state >> 11) / float(1 << 53)

    def delay_between(self, a: Address, b: Address) -> int:
        if a[0] == b[0]:
            return self.loopback_latency_ns
        return self.link_params(a[0], b[0])[0]

    def delay_for(self, a: Address, b: Address, nbytes: int = 0) -> int:
        """One-way delay for an ``nbytes``-byte segment: latency plus
        serialisation time plus jitter (loopback pays only latency)."""
        if a[0] == b[0]:
            return self.loopback_latency_ns
        latency, bandwidth, jitter = self.link_params(a[0], b[0])
        delay = latency
        if bandwidth:
            delay += int(nbytes * 8 * 1e9 / bandwidth)
        if jitter:
            delay += self._next_jitter() % (int(jitter) + 1)
        return delay

    def transmit(self, sim, src: Address, dst: Address, nbytes: int,
                 deliver, *args, count: bool = True,
                 faults: bool = True) -> int:
        """Schedule ``deliver(*args)`` after the link delay for a segment.

        Delivery order within a directed host pair is preserved: a jittered
        segment is never delivered before an earlier one (FIFO clamp).
        Returns the absolute delivery time (for a lost segment, the time
        it *would* have arrived). With ``faults=False`` the segment is
        exempt from loss/dup/reorder — the caller models a protocol that
        already recovered them (guest TCP folds retransmits into latency).
        """
        if count:
            self.bytes_sent += nbytes
            self.segments_sent += 1
        when = sim.now + self.delay_for(src, dst, nbytes)
        key = (src[0], dst[0])
        floor = self._fifo_clock.get(key, 0)
        if when < floor:
            when = floor
        if faults and src[0] != dst[0]:
            loss_p, dup_p, reorder_p = self.link_faults(src[0], dst[0])
            if loss_p and self._next_fault() < loss_p:
                # The bytes hit the wire (billed above) but never arrive;
                # the FIFO floor is untouched — nothing was delivered.
                self.segments_lost += 1
                return when
            latency = self._link_value(src[0], dst[0], "latency_ns")
            if reorder_p and self._next_fault() < reorder_p:
                # Hold this segment back without raising the FIFO floor,
                # so segments sent after it may arrive first.
                self.segments_reordered += 1
                extra = 1 + int(self._next_fault() * max(1, latency))
                sim.call_at(when + extra, deliver, *args)
                return when + extra
            if dup_p and self._next_fault() < dup_p:
                # A second copy trails the first; it crosses the wire
                # for real, so its bytes are billed too.
                self.segments_duplicated += 1
                if count:
                    self.bytes_sent += nbytes
                lag = 1 + int(self._next_fault() * max(1, latency))
                sim.call_at(when + lag, deliver, *args)
        self._fifo_clock[key] = when
        sim.call_at(when, deliver, *args)
        return when

    # -- listener registry ------------------------------------------------
    def bind_listener(self, addr: Address, sock: "ListeningSocket") -> int:
        key = addr
        if addr[0] == "0.0.0.0":
            # Wildcard binds are scoped to the listening host so distinct
            # hosts sharing one Network can bind the same port.
            key = ("0.0.0.0@" + sock.host_ip, addr[1])
        if key in self.listeners:
            return -E.EADDRINUSE
        self.listeners[key] = sock
        return 0

    def drop_listeners(self, kernel) -> None:
        """Forget every listener ``kernel`` bound (its host was
        re-imaged and lost its TCP state)."""
        stale = [key for key, sock in self.listeners.items()
                 if sock.kernel is kernel]
        for key in stale:
            del self.listeners[key]

    def lookup(self, addr: Address) -> Optional["ListeningSocket"]:
        exact = self.listeners.get(addr)
        if exact is not None:
            return exact
        # host-scoped 0.0.0.0 wildcard bind
        wild = self.listeners.get(("0.0.0.0@" + addr[0], addr[1]))
        if wild is not None:
            return wild
        return self.listeners.get(("0.0.0.0", addr[1]))


class StreamSocket(FileObject):
    """One endpoint of a connected (or connecting) stream."""

    kind = "sock"

    def __init__(self, kernel, host_ip: str, name: str = "sock"):
        super().__init__(name)
        self.kernel = kernel
        self.host_ip = host_ip
        self.local_addr: Address = (host_ip, 0)
        self.peer_addr: Optional[Address] = None
        self.peer: Optional["StreamSocket"] = None
        self.rcvbuf = bytearray()
        self.rcv_closed = False  # peer will send no more data
        self.snd_closed = False  # we will send no more data
        self.connected = False
        self.connecting = False
        self.error = 0
        # Set by the listener when the SYN is refused (RST) or silently
        # shed; _complete() must not mark such a socket connected even
        # if the error code was consumed via SO_ERROR in between.
        self.syn_refused = False
        self.syn_dropped = False
        self.dataq = WaitQueue("sock-data")
        self.connq = WaitQueue("sock-conn")
        self.sockopts: Dict[Tuple[int, int], int] = {}

    def st_mode(self) -> int:
        return C.S_IFSOCK | 0o777

    def poll_mask(self, kernel) -> int:
        mask = 0
        if self.rcvbuf:
            mask |= C.POLLIN
        if self.rcv_closed:
            mask |= C.POLLIN | C.EPOLLRDHUP
        if self.connected and not self.snd_closed:
            mask |= C.POLLOUT
        if self.error:
            mask |= C.POLLERR
        if self.rcv_closed and self.snd_closed:
            mask |= C.POLLHUP
        return mask

    # -- data path --------------------------------------------------------
    def _arrive(self, data: bytes) -> None:
        """Called (scheduled) when a segment reaches this endpoint."""
        if self.rcv_closed:
            return
        self.rcvbuf += data
        self.dataq.notify_all(self.kernel.sim)
        self.notify_pollers(self.kernel)

    def _arrive_fin(self) -> None:
        self.rcv_closed = True
        self.dataq.notify_all(self.kernel.sim)
        self.notify_pollers(self.kernel)

    def send_bytes(self, data: bytes) -> int:
        """Queue ``data`` toward the peer; returns bytes accepted or -errno."""
        if not self.connected or self.peer is None:
            return -E.EPIPE if self.snd_closed else -E.ENOTCONN
        if self.snd_closed:
            return -E.EPIPE
        if self.peer.rcv_closed:
            return -E.EPIPE
        net = self.kernel.network
        peer = self.peer
        payload = bytes(data)
        # Guest streams model TCP: loss/dup/reorder recovery is already
        # folded into the link latency, so stream segments are exempt
        # from the raw fault knobs (faults=False keeps them reliable).
        net.transmit(
            self.kernel.sim, self.local_addr, self.peer_addr, len(payload),
            peer._arrive, payload, faults=False,
        )
        return len(data)

    def read(self, kernel, thread, ofd, count: int):
        while not self.rcvbuf:
            if self.rcv_closed:
                return b""
            if not self.connected:
                return -E.ENOTCONN
            if ofd.nonblocking:
                return -E.EAGAIN
            event = self.dataq.register()
            status, _ = yield from wait_interruptible(thread, event)
            if status == "interrupted":
                self.dataq.unregister(event)
                return -E.EINTR
        chunk = bytes(self.rcvbuf[:count])
        del self.rcvbuf[: len(chunk)]
        return chunk

    def write(self, kernel, thread, ofd, data: bytes):
        result = self.send_bytes(data)
        if result == -E.EPIPE:
            kernel.send_signal_to_thread(thread, C.SIGPIPE)
        return result
        yield  # pragma: no cover

    def shutdown(self, how: int) -> int:
        if not self.connected:
            return -E.ENOTCONN
        if how in (C.SHUT_WR, C.SHUT_RDWR) and not self.snd_closed:
            self.snd_closed = True
            if self.peer is not None:
                # Route the FIN through transmit so it cannot overtake
                # in-flight data segments, but keep it out of the byte
                # counters (it carries no payload).
                peer = self.peer
                self.kernel.network.transmit(
                    self.kernel.sim, self.local_addr, self.peer_addr, 0,
                    peer._arrive_fin, count=False, faults=False,
                )
        if how in (C.SHUT_RD, C.SHUT_RDWR):
            self.rcv_closed = True
            self.dataq.notify_all(self.kernel.sim)
        self.notify_pollers(self.kernel)
        return 0

    def on_last_close(self) -> None:
        if self.connected and not self.snd_closed:
            self.shutdown(C.SHUT_WR)
        self.rcv_closed = True


class ListeningSocket(FileObject):
    """A bound, listening stream socket with an accept backlog."""

    kind = "listen"

    def __init__(self, kernel, host_ip: str, name: str = "listen"):
        super().__init__(name)
        self.kernel = kernel
        self.host_ip = host_ip
        self.local_addr: Address = (host_ip, 0)
        self.backlog: deque = deque()
        self.backlog_limit = 128
        self.acceptq = WaitQueue("accept")
        self.sockopts: Dict[Tuple[int, int], int] = {}
        # Optional admission controller (repro.fleet). The kernel stays
        # fleet-agnostic: the controller is duck-typed — on_syn() returns
        # "admit" / "reject" / "drop", on_enqueue()/on_dequeue() stamp
        # queue waits. Attached via Kernel.admission_control at listen().
        self.admission = None

    def st_mode(self) -> int:
        return C.S_IFSOCK | 0o777

    def poll_mask(self, kernel) -> int:
        return C.POLLIN if self.backlog else 0

    def _incoming(self, server_side: StreamSocket) -> None:
        ctl = self.admission
        if ctl is not None:
            action = ctl.on_syn(self.kernel.sim.now, len(self.backlog))
            if action == "reject":
                self._refuse(server_side)
                return
            if action == "drop":
                self._shed_silently(server_side, ctl.drop_timeout_ns)
                return
        elif len(self.backlog) >= self.backlog_limit:
            # Backlog overflow without a controller: the client sees a
            # reset (the pre-admission-control behaviour).
            self._refuse(server_side)
            return
        if ctl is not None:
            ctl.on_enqueue(self.kernel.sim.now)
        self.backlog.append(server_side)
        self.acceptq.notify_all(self.kernel.sim)
        self.notify_pollers(self.kernel)

    def _refuse(self, server_side: StreamSocket) -> None:
        """Reject-with-backpressure: the client side sees an immediate
        reset (modeled at SYN-processing time)."""
        client = server_side.peer
        if client is None:
            return
        client.syn_refused = True
        client.error = E.ECONNREFUSED
        client.connq.notify_all(self.kernel.sim)
        client.notify_pollers(client.kernel)

    def _shed_silently(self, server_side: StreamSocket,
                       timeout_ns: int) -> None:
        """Silent drop: the SYN vanishes; the client learns nothing until
        its own connect timeout fires (retransmits folded into it)."""
        client = server_side.peer
        if client is None:
            return
        client.syn_dropped = True
        sim = self.kernel.sim

        def _timeout():
            if client.connected or client.error:
                return
            client.error = E.ETIMEDOUT
            client.connecting = False
            client.connq.notify_all(sim)
            client.notify_pollers(client.kernel)

        sim.call_at(sim.now + timeout_ns, _timeout)

    def accept_one(self, kernel, thread, nonblocking: bool):
        """Coroutine: pop one pending connection (or block)."""
        while not self.backlog:
            if nonblocking:
                return -E.EAGAIN
            event = self.acceptq.register()
            status, _ = yield from wait_interruptible(thread, event)
            if status == "interrupted":
                self.acceptq.unregister(event)
                return -E.EINTR
        conn = self.backlog.popleft()
        ctl = self.admission
        if ctl is not None:
            yield Sleep(kernel.config.costs.fleet_admission_ns, cpu=True)
            ctl.on_dequeue(kernel.sim.now)
        return conn


class AdoptedSocket(FileObject):
    """Follower-side stand-in for a connection accepted on the leader.

    In external-service mode (repro.fleet) the client's SYN exists only
    on the leader's node, so followers cannot accept it themselves; they
    materialise an AdoptedSocket at the same descriptor index to keep fd
    numbering aligned. It carries no data path: recv/send on the
    connection are replicated calls the follower never executes, and its
    readiness is never consulted because epoll/poll results are adopted
    from the leader too. Direct I/O (a bug) fails loudly with ENOTCONN.
    """

    kind = "sock"

    def __init__(self, kernel, host_ip: str, name: str = "adopted-sock"):
        super().__init__(name)
        self.kernel = kernel
        self.host_ip = host_ip
        self.sockopts: Dict[Tuple[int, int], int] = {}

    def st_mode(self) -> int:
        return C.S_IFSOCK | 0o777

    def poll_mask(self, kernel) -> int:
        return 0

    def read(self, kernel, thread, ofd, count: int):
        return -E.ENOTCONN
        yield  # pragma: no cover

    def write(self, kernel, thread, ofd, data: bytes):
        return -E.ENOTCONN
        yield  # pragma: no cover


def connect_sockets(kernel, client: StreamSocket, addr: Address):
    """Coroutine implementing the TCP-ish three-way handshake.

    Returns 0 on success or -errno. The client socket must not already
    be connected. Non-blocking behaviour is handled by the caller.
    """
    listener = kernel.network.lookup(addr)
    if listener is None:
        return -E.ECONNREFUSED
    if client.local_addr[1] == 0:
        client.local_addr = (client.host_ip, kernel.network.ephemeral_port())
    server_side = StreamSocket(
        kernel, listener.host_ip, name="%s<-%s" % (listener.name, client.name)
    )
    server_side.local_addr = (listener.host_ip, addr[1])
    server_side.peer_addr = client.local_addr
    server_side.peer = client
    server_side.connected = True
    client.peer_addr = (listener.host_ip, addr[1])
    client.peer = server_side
    client.connecting = True

    delay = kernel.network.delay_between(client.local_addr, addr)

    def _deliver_syn():
        listener._incoming(server_side)

    kernel.sim.call_at(kernel.sim.now + delay, _deliver_syn)

    def _complete():
        if client.syn_dropped:
            # Silently shed: stay "connecting" until the drop timeout
            # scheduled by the listener flips the socket to ETIMEDOUT.
            return
        if client.error == 0 and not client.syn_refused:
            client.connected = True
        client.connecting = False
        client.connq.notify_all(kernel.sim)
        client.notify_pollers(kernel)

    kernel.sim.call_at(kernel.sim.now + 2 * delay, _complete)
    return 0
    yield  # pragma: no cover
