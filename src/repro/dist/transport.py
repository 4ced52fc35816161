"""Batched, pipelined monitor transport between simulated nodes.

Frames (see :mod:`repro.dist.wire`) are not sent one syscall at a time —
that would pay a per-message syscall/NIC cost per event and drown in
link latency. Instead each directed node pair owns a :class:`Channel`
that coalesces frames into a transfer unit which is flushed when it
reaches ``batch_bytes``, when a flush timer expires, or immediately for
*urgent* frames (rendezvous rounds, control traffic — anything a thread
is synchronously blocked on).

Sending is asynchronous (async pipelining): the producer queues the
frame and keeps running; only the per-frame encode cost lands on its
critical path. The per-message CPU cost
(:meth:`~repro.costs.model.CostModel.dist_message_cost_ns`) plus the
link's latency/bandwidth/jitter delay (charged by
:meth:`~repro.kernel.sockets.Network.transmit`, which also guarantees
FIFO delivery per directed pair) is folded into the delivery time of
the batch.

With a ``codec`` configured (``"rle"`` or ``"dict"``, see
:mod:`repro.dist.codec`), replicated-result payloads are compressed
here — *before* a frame enters its channel queue — so batch thresholds,
per-class byte accounting, and the wire-byte stats all see one truth:
the size of the frame as actually encoded. Frames are decoded back to
raw payloads on delivery, before dispatch; a frame whose coded payload
fails to decode is a transmission fault (counted and dropped), exactly
like a CRC-damaged frame.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.dist.codec import TAG_NAMES, PayloadDict, decode_payload, encode_payload
from repro.dist.reliable import (
    CircuitBreaker,
    ReceiverWindow,
    RetransmitPolicy,
    SenderWindow,
)
from repro.dist.selective import frame_class
from repro.dist.wire import (
    BATCH_HEADER_SIZE,
    F_CODED,
    RBATCH_HEADER_SIZE,
    Frame,
    T_CONTROL,
    T_SYSCALL_RESULT,
    batch_frame_count,
    encode_batch,
    parse_batch,
)
from repro.errors import WireError
from repro.kernel.sockets import Address

#: Codec names accepted by Transport/DistConfig. ``None`` ships raw.
CODECS = ("rle", "dict")

#: Payloads below this length cannot win (dict reference is 6 bytes,
#: and the tag byte costs 1): ship them unwrapped.
MIN_CODEC_LEN = 8

#: Adaptive codec fallback: per-channel sliding window of outcomes, the
#: win rate below which a channel downgrades to raw, and how many result
#: frames pass between re-upgrade probes while downgraded.
ADAPT_WINDOW = 32
ADAPT_MIN_WIN_RATE = 0.25
ADAPT_PROBE_EVERY = 16

#: Payload of a circuit-breaker half-open probe. Probes are ordinary
#: sequenced control frames — they exist to be acked — but terminate at
#: the transport and are never dispatched to the cluster.
_PROBE_PAYLOAD = b"breaker-probe"


class Channel:
    """The outgoing frame queue for one directed node pair."""

    __slots__ = ("src", "dst", "pending", "pending_bytes", "timer_armed",
                 "enc_dict", "next_depart", "codec_score", "codec_down",
                 "codec_probe_in")

    def __init__(self, src: int, dst: int):
        self.src = src
        self.dst = dst
        self.pending: List[Frame] = []
        self.pending_bytes = 0
        self.timer_armed = False
        #: Sender-side payload dictionary (dict codec only; lazily built).
        self.enc_dict: Optional[PayloadDict] = None
        #: Earliest time the next batch may enter the network: one
        #: kernel worker pushes a channel's batches in flush order, so
        #: a large batch's bigger per-message cost can never let a later
        #: small batch overtake it (overtaking would break the FIFO
        #: delivery the payload dictionaries are synchronized by).
        self.next_depart = 0
        #: Adaptive codec fallback: recent win/loss outcomes, whether
        #: the channel is currently downgraded to raw, and the frame
        #: countdown to the next re-upgrade probe.
        self.codec_score: List[bool] = []
        self.codec_down = False
        self.codec_probe_in = 0


class Transport:
    """All monitor channels of one cluster, sharing a Network.

    Every batch, in either mode, takes one pipeline: ``_flush`` ->
    ``_ship`` -> ``_transmit`` -> ``_receive`` -> dispatch. The mode is
    fixed before the first frame (:meth:`enable_reliable`)."""

    def __init__(self, sim, network, addresses: List[Address], costs,
                 batch_bytes: int = 4096, flush_interval_ns: int = 50_000,
                 codec: Optional[str] = None):
        if codec is not None and codec not in CODECS:
            raise WireError("unknown transport codec %r (want one of %r)"
                            % (codec, CODECS))
        self.sim = sim
        self.network = network
        self.addresses = addresses
        self.costs = costs
        self.batch_bytes = batch_bytes
        self.flush_interval_ns = flush_interval_ns
        self.codec = codec
        #: Installed by the cluster: ``dispatch(dst_index, frame)``.
        self.dispatch: Optional[Callable[[int, Frame], None]] = None
        #: Optional epoch gate, consulted per frame at delivery before
        #: dispatch: True means the frame is stale (sent under an older
        #: ownership epoch to a shard that no longer hosts its round)
        #: and is dropped — the sender re-submits under the new epoch.
        self.stale_filter: Optional[Callable[[int, Frame], bool]] = None
        self._channels: Dict[Tuple[int, int], Channel] = {}
        #: Receiver-side payload dictionaries, keyed by directed pair.
        self._dec_dicts: Dict[Tuple[int, int], PayloadDict] = {}
        self.stats = {
            "messages_sent": 0,
            "wire_bytes": 0,
            "frames_sent": 0,
            "frame_bytes": 0,
            "wire_errors": 0,
            "flushes_size": 0,
            "flushes_timer": 0,
            "flushes_urgent": 0,
            "payload_raw_bytes": 0,
            "payload_coded_bytes": 0,
            "codec_raw": 0,
            "codec_rle": 0,
            "codec_dict": 0,
            "stale_drops": 0,
        }
        self.bytes_by_class: Dict[str, int] = {}
        self.frames_by_class: Dict[str, int] = {}
        #: Frames lost in transit and never dispatched (CRC-damaged
        #: batches, undecodable codec payloads), by traffic class — so
        #: loss experiments can reconcile frames_sent against dispatch.
        self.frames_dropped_by_class: Dict[str, int] = {}
        #: Optional repro.obs.Obs hub, installed by the cluster; used
        #: only for span-tracing flush/codec decisions when enabled.
        self.obs = None
        # -- reliable delivery (off until enable_reliable) -------------
        self.reliable = False
        self.retransmit_policy: Optional[RetransmitPolicy] = None
        self.window_size = 32
        #: Per directed pair, made on first use (``get`` never makes one).
        self._send_windows = defaultdict(
            lambda: SenderWindow(self.window_size)
        )
        self._recv_windows = defaultdict(ReceiverWindow)
        self._breakers = defaultdict(CircuitBreaker)
        self._links_down: set = set()
        self._breaker_spans: Dict[Tuple[int, int], object] = {}
        #: Installed by the cluster: called with (src, dst) when a
        #: link's breaker opens / re-closes; a true return means the
        #: link's far node was degraded / restored (``link_degrades`` /
        #: ``link_restores``).
        self.on_link_down: Optional[Callable[[int, int], bool]] = None
        self.on_link_up: Optional[Callable[[int, int], bool]] = None

    def enable_reliable(self, policy: Optional[RetransmitPolicy] = None,
                        window: int = 32) -> None:
        """Switch every channel to sequenced, acked, retransmitted
        batches (the 16-byte reliable header). Must run before any
        traffic: mixing header formats mid-run would desynchronize the
        per-channel sequence spaces."""
        if self.stats["frames_sent"] or self.stats["messages_sent"]:
            raise WireError("reliable mode must be enabled before traffic")
        self.reliable = True
        self.retransmit_policy = policy or RetransmitPolicy()
        self.window_size = window

    def _bump(self, key: str, n: int = 1) -> None:
        # Stats that exist only in reliable/lossy runs are created on
        # first use, so loss-free runs keep the pre-change stats view
        # byte-identical (the PR-5 equivalence discipline).
        self.stats[key] = self.stats.get(key, 0) + n

    def _drop_frames(self, cls: str, n: int = 1) -> None:
        if n <= 0:
            return
        self._bump("frames_dropped", n)
        self.frames_dropped_by_class[cls] = (
            self.frames_dropped_by_class.get(cls, 0) + n
        )

    def _channel(self, src: int, dst: int) -> Channel:
        channel = self._channels.get((src, dst))
        if channel is None:
            channel = Channel(src, dst)
            self._channels[(src, dst)] = channel
        return channel

    # ------------------------------------------------------------------
    # Codec plumbing
    # ------------------------------------------------------------------
    def _encode_payload(self, channel: Channel, frame: Frame) -> Frame:
        """Wrap a replicated-result payload with the configured codec.

        Returns a *new* frame (the caller may broadcast the original to
        several channels, each with its own dictionary state). Only
        ``T_SYSCALL_RESULT`` frames are coded: RB mirror traffic is
        where the redundant bytes live, and rendezvous/digest frames are
        small and latency-critical.
        """
        if (
            self.codec is None
            or frame.type != T_SYSCALL_RESULT
            or frame.flags & F_CODED
            or len(frame.payload) < MIN_CODEC_LEN
        ):
            return frame
        if channel.codec_down:
            channel.codec_probe_in -= 1
            if channel.codec_probe_in > 0:
                # Downgraded stream: ship raw with no tag byte. The
                # encode is skipped entirely, so neither end's payload
                # dictionary advances and the rings stay in sync for
                # the next re-upgrade probe.
                return frame
        dictionary = None
        if self.codec == "dict":
            if channel.enc_dict is None:
                channel.enc_dict = PayloadDict()
            dictionary = channel.enc_dict
        raw_len = len(frame.payload)
        coded = encode_payload(frame.payload, dictionary)
        self._track_codec(channel, len(coded) < raw_len)
        self.stats["payload_raw_bytes"] += raw_len
        self.stats["payload_coded_bytes"] += len(coded)
        self.stats["codec_" + TAG_NAMES[coded[0]]] += 1
        if self.obs is not None and self.obs.tracer.enabled:
            self.obs.tracer.instant(
                "transport", "codec", src=channel.src, dst=channel.dst,
                tag=TAG_NAMES[coded[0]], raw=raw_len, coded=len(coded),
            )
        return Frame(
            frame.type, frame.sender, frame.vtid, frame.seq,
            aux=frame.aux, flags=frame.flags | F_CODED, payload=coded,
        )

    def _track_codec(self, channel: Channel, win: bool) -> None:
        """Adaptive fallback: downgrade a channel whose codec stopped
        winning (win rate below ADAPT_MIN_WIN_RATE over a full sliding
        window), probe every ADAPT_PROBE_EVERY frames while down, and
        re-upgrade on the first probe that compresses again."""
        if channel.codec_down:
            # This frame was a probe.
            if win:
                channel.codec_down = False
                channel.codec_score = []
                self._bump("codec_upgrades")
                if self.obs is not None and self.obs.tracer.enabled:
                    self.obs.tracer.instant(
                        "transport", "codec_upgrade",
                        src=channel.src, dst=channel.dst,
                    )
            else:
                channel.codec_probe_in = ADAPT_PROBE_EVERY
            return
        score = channel.codec_score
        score.append(win)
        if len(score) > ADAPT_WINDOW:
            score.pop(0)
        if (len(score) >= ADAPT_WINDOW
                and sum(score) < ADAPT_MIN_WIN_RATE * len(score)):
            channel.codec_down = True
            channel.codec_probe_in = ADAPT_PROBE_EVERY
            channel.codec_score = []
            self._bump("codec_downgrades")
            if self.obs is not None and self.obs.tracer.enabled:
                self.obs.tracer.instant(
                    "transport", "codec_downgrade",
                    src=channel.src, dst=channel.dst,
                )

    def _decode_frame(self, dst: int, frame: Frame) -> Optional[Frame]:
        """Unwrap a codec-coded payload on delivery; None = drop."""
        if not frame.flags & F_CODED:
            return frame
        dictionary = None
        if self.codec == "dict":
            key = (frame.sender, dst)
            dictionary = self._dec_dicts.get(key)
            if dictionary is None:
                dictionary = self._dec_dicts[key] = PayloadDict()
        try:
            raw = decode_payload(frame.payload, dictionary)
        except WireError:
            # A payload that cannot be decoded is a transmission fault:
            # count and drop the frame, never act on its contents.
            self.stats["wire_errors"] += 1
            return None
        frame.payload = raw
        frame.flags &= ~F_CODED
        return frame

    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, frame: Frame, cls: str = "control",
             urgent: bool = False) -> int:
        """Queue one frame from node ``src`` to node ``dst``.

        Returns the queued frame's encoded size in bytes (post-codec) —
        the single source of truth the caller's cost accounting and the
        wire-byte stats both see. Returns immediately; the caller pays
        only the frame-encode cost (and even that is charged by the
        caller, since only the leader's critical path matters for
        overhead accounting).
        """
        if src == dst:
            raise WireError("a node does not message itself")
        channel = self._channel(src, dst)
        frame = self._encode_payload(channel, frame)
        size = frame.size()
        channel.pending.append(frame)
        channel.pending_bytes += size
        self.stats["frames_sent"] += 1
        self.stats["frame_bytes"] += size
        self.frames_by_class[cls] = self.frames_by_class.get(cls, 0) + 1
        self.bytes_by_class[cls] = self.bytes_by_class.get(cls, 0) + size
        if urgent or BATCH_HEADER_SIZE + channel.pending_bytes >= self.batch_bytes:
            self.stats["flushes_urgent" if urgent else "flushes_size"] += 1
            self._flush(channel)
        elif not channel.timer_armed:
            channel.timer_armed = True
            self.sim.call_at(
                self.sim.now + self.flush_interval_ns, self._timer_flush, channel
            )
        return size

    def flush_all(self) -> None:
        for channel in self._channels.values():
            if channel.pending:
                self._flush(channel)

    def export_stats(self, registry) -> None:
        """Publish this transport's counters under ``dist_``. The
        reliability family, with the network's ``net_segments_*`` fault
        counters, exists only when the transport runs reliable, and the
        codec-adaptation and drop counters only once nonzero: loss-free
        runs keep a stats view byte-identical to the pre-reliability
        design."""
        stats = self.stats
        registry.expose("dist_messages", stats["messages_sent"])
        registry.expose("dist_frames", stats["frames_sent"])
        for key in ("wire_bytes", "frame_bytes", "wire_errors",
                    "flushes_size", "flushes_timer",
                    "flushes_urgent", "payload_raw_bytes",
                    "payload_coded_bytes", "codec_raw", "codec_rle",
                    "codec_dict"):
            registry.expose("dist_" + key, stats[key])
        for cls, nbytes in sorted(self.bytes_by_class.items()):
            registry.expose("dist_bytes_" + cls, nbytes)
        for cls, count in sorted(self.frames_by_class.items()):
            registry.expose("dist_frames_" + cls, count)
        if self.reliable:
            for key in ("retransmits", "retransmit_bytes", "acks_sent",
                        "dup_batches_dropped", "ooo_batches",
                        "window_stalls", "probes_sent", "breaker_opens",
                        "breaker_closes", "link_degrades", "link_restores"):
                registry.expose("dist_" + key, stats.get(key, 0))
            network = self.network
            registry.expose("net_segments_lost", network.segments_lost)
            registry.expose("net_segments_duplicated", network.segments_duplicated)
            registry.expose("net_segments_reordered", network.segments_reordered)
        for key in ("codec_downgrades", "codec_upgrades", "frames_dropped"):
            if stats.get(key, 0):
                registry.expose("dist_" + key, stats[key])
        for cls, count in sorted(self.frames_dropped_by_class.items()):
            registry.expose("dist_frames_dropped_" + cls, count)

    # ------------------------------------------------------------------
    def _timer_flush(self, channel: Channel) -> None:
        channel.timer_armed = False
        if channel.pending:
            self.stats["flushes_timer"] += 1
            self._flush(channel)

    def _flush(self, channel: Channel) -> None:
        frames, channel.pending = channel.pending, []
        # One source of truth for sizing: the bytes counted at send()
        # are exactly the bytes encode_batch produces (header aside).
        pending_bytes, channel.pending_bytes = channel.pending_bytes, 0
        if self.reliable:
            window = self._send_windows[(channel.src, channel.dst)]
            if not window.can_send():
                # Window full (or a backlog already waits): FIFO-defer
                # the whole batch; it ships as acks advance the window.
                window.defer(frames, pending_bytes)
                self._bump("window_stalls")
                return
        self._ship(channel, frames, pending_bytes)

    def _ship(self, channel: Channel, frames: List[Frame],
              pending_bytes: int) -> None:
        """Encode, bill and trace one batch and serialize its departure;
        when reliable, also sequence it, piggyback the reverse ack,
        register it in the send window and arm its retransmit timer."""
        key = (channel.src, channel.dst)
        seq, ack, header = None, 0, BATCH_HEADER_SIZE
        if self.reliable:
            window = self._send_windows[key]
            reverse = self._recv_windows.get((channel.dst, channel.src))
            ack = reverse.cumulative_ack if reverse is not None else 0
            seq, header = window.next_seq, RBATCH_HEADER_SIZE
        data = encode_batch(frames, seq, ack)
        assert len(data) == header + pending_bytes, (
            "frame byte accounting diverged from encoded batch size"
        )
        self.stats["messages_sent"] += 1
        self.stats["wire_bytes"] += len(data)
        if self.obs is not None and self.obs.tracer.enabled:
            self.obs.tracer.instant(
                "transport", "flush", src=channel.src, dst=channel.dst,
                nbytes=len(data), frames=len(frames),
                **({} if seq is None else {"seq": seq}),
            )
        # The sender-side per-message CPU cost is folded into delivery
        # time (the sending thread is not blocked on it: a kernel worker
        # does the pushing in the systems we model). Departures are
        # serialized per channel so batches never overtake each other.
        send_cost = self.costs.dist_message_cost_ns(len(data))
        depart = max(self.sim.now + send_cost, channel.next_depart)
        channel.next_depart = depart
        self.sim.call_at(depart, self._transmit, key, data)
        if seq is not None:
            window.register(data, len(data), depart)
            self.sim.call_at(
                depart + self.retransmit_policy.timeout_for(0),
                self._retransmit_check, key, seq,
            )

    def _transmit(self, key: Tuple[int, int], data: bytes) -> None:
        """Put one batch on the wire: fresh, retransmitted or an ack."""
        src, dst = key
        self.network.transmit(
            self.sim, self.addresses[src], self.addresses[dst], len(data),
            self._receive, src, dst, data,
        )

    def _receive(self, src: int, dst: int, data: bytes) -> None:
        try:
            frames, seq, ack = parse_batch(data)
            if seq is not None and not self.reliable:
                raise WireError("sequenced batch on a loss-free transport")
        except WireError:
            # A damaged transfer unit is a transmission fault: count and
            # drop it rather than act on its contents — but account the
            # frames it carried so loss experiments can reconcile
            # frames_sent against dispatch.
            self.stats["wire_errors"] += 1
            count = batch_frame_count(data)
            self._drop_frames("undecodable", count if count is not None else 1)
            return
        if ack:
            # The ack acknowledges the reverse channel: traffic this
            # node (dst) sent towards the batch's sender (src).
            self._apply_ack((dst, src), ack)
        if not seq:
            # An unsequenced batch (loss-free, or a pure ack with seq
            # 0): nothing to order or re-ack.
            self._dispatch_frames(dst, frames)
            return
        key = (src, dst)
        window = self._recv_windows[key]
        dups, ooo = window.dups, window.ooo
        ready = window.accept(seq, frames)
        if window.dups > dups:
            self._bump("dup_batches_dropped")
        if window.ooo > ooo:
            self._bump("ooo_batches")
        for batch_frames in ready:
            self._dispatch_frames(dst, batch_frames)
        # Ack every sequenced arrival, duplicates included — a dup means
        # the sender retransmitted, likely because our last ack was lost.
        self._send_ack(dst, src)

    def _dispatch_frames(self, dst: int, frames: List[Frame]) -> None:
        if self.dispatch is None:
            return
        for frame in frames:
            if frame.type == T_CONTROL and frame.payload == _PROBE_PAYLOAD:
                # A breaker half-open probe: it exists only to be acked
                # by the sequence layer, never shown to the cluster.
                continue
            decoded = self._decode_frame(dst, frame)
            if decoded is None:
                self._drop_frames(frame_class(frame.type))
                continue
            if self.stale_filter is not None and self.stale_filter(dst, decoded):
                self.stats["stale_drops"] += 1
                continue
            self.dispatch(dst, decoded)

    # ------------------------------------------------------------------
    # Reliable mode: seq/ack window, retransmit timers, circuit breaker
    # ------------------------------------------------------------------
    def _retransmit_check(self, key: Tuple[int, int], seq: int) -> None:
        window = self._send_windows.get(key)
        if window is None:
            return
        entry = window.mark_retransmit(seq)
        if entry is None:
            return  # acked in time
        src, dst = key
        self._bump("retransmits")
        self._bump("retransmit_bytes", entry.size)
        self.stats["wire_bytes"] += entry.size
        # Re-pushing a stored batch costs CPU plus the normal per-byte
        # message cost; retransmits are not serialized behind the
        # channel's fresh batches (they re-enter the wire directly).
        cost = (self.costs.dist_retransmit_ns
                + self.costs.dist_message_cost_ns(entry.size))
        if self.obs is not None:
            self.obs.registry.histogram("dist_retransmit_ns").observe(cost)
            if self.obs.tracer.enabled:
                self.obs.tracer.instant(
                    "transport", "retransmit", src=src, dst=dst, seq=seq,
                    attempt=entry.attempts,
                )
        if self._breakers[key].record_failure(self.sim.now):
            self._breaker_opened(key)
        depart = self.sim.now + cost
        self.sim.call_at(depart, self._transmit, key, entry.data)
        self.sim.call_at(
            depart + self.retransmit_policy.timeout_for(entry.attempts),
            self._retransmit_check, key, seq,
        )

    def _apply_ack(self, key: Tuple[int, int], ack: int) -> None:
        window = self._send_windows.get(key)
        if window is None:
            return
        now = self.sim.now
        acked, samples = window.ack(ack, now)
        breaker = self._breakers[key]
        breaker.record_ack()
        for sample in samples:
            if self.obs is not None:
                self.obs.registry.histogram("dist_link_rtt_ns").observe(sample)
            if breaker.record_rtt(sample, window.min_rtt_ns, now):
                self._breaker_opened(key)
        if not acked:
            return
        if breaker.record_success():
            self._breaker_closed(key)
        deferred = window.pop_deferred()
        while deferred is not None:
            frames, size = deferred
            self._ship(self._channel(*key), frames, size)
            deferred = window.pop_deferred()

    def _send_ack(self, from_node: int, to_node: int) -> None:
        window = self._recv_windows.get((to_node, from_node))
        ack = window.cumulative_ack if window is not None else 0
        if ack == 0:
            return
        data = encode_batch([], 0, ack)
        self._bump("acks_sent")
        self.stats["wire_bytes"] += len(data)
        cost = self.costs.dist_ack_ns + self.costs.dist_message_cost_ns(len(data))
        self.sim.call_at(
            self.sim.now + cost, self._transmit, (from_node, to_node), data,
        )

    # -- circuit breaker ----------------------------------------------
    def _breaker_opened(self, key: Tuple[int, int]) -> None:
        src, dst = key
        breaker = self._breakers[key]
        self._bump("breaker_opens")
        if self.obs is not None and self.obs.tracer.enabled:
            if key not in self._breaker_spans:
                self._breaker_spans[key] = self.obs.tracer.begin(
                    "transport", "breaker_open", src=src, dst=dst,
                )
        if key not in self._links_down:
            self._links_down.add(key)
            if self.on_link_down is not None and self.on_link_down(src, dst):
                self._bump("link_degrades")
        self.sim.call_at(
            self.sim.now + breaker.current_cooldown_ns, self._maybe_probe, key
        )

    def _maybe_probe(self, key: Tuple[int, int]) -> None:
        breaker = self._breakers.get(key)
        if breaker is None or not breaker.probe_due(self.sim.now):
            return
        breaker.begin_probe()
        self._bump("probes_sent")
        src, dst = key
        if self.obs is not None and self.obs.tracer.enabled:
            self.obs.tracer.instant(
                "transport", "breaker_probe", src=src, dst=dst,
            )
        probe = Frame(T_CONTROL, src, 0, 0, payload=_PROBE_PAYLOAD)
        self.send(src, dst, probe, cls="control", urgent=True)

    def _breaker_closed(self, key: Tuple[int, int]) -> None:
        src, dst = key
        self._bump("breaker_closes")
        span = self._breaker_spans.pop(key, None)
        if span is not None:
            span.finish(probes=self._breakers[key].probes)
        if key in self._links_down:
            self._links_down.discard(key)
            if self.on_link_up is not None and self.on_link_up(src, dst):
                self._bump("link_restores")
