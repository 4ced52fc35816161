"""Reliability primitives for WAN-grade monitor links.

The transport (:mod:`repro.dist.transport`) stays in its loss-free fast
path until a link can actually drop, duplicate, or reorder segments;
then each directed channel grows a :class:`SenderWindow` (sequence
numbers, retransmit timers, smoothed RTT), a :class:`ReceiverWindow`
(reorder buffer with exactly-once in-order release, cumulative acks),
and a :class:`CircuitBreaker` tracking the link's health. These classes
are pure state machines — no simulator access — so the transport owns
all scheduling and cost billing, and the state machines stay unit-
testable in isolation.

Sequence numbers count *batches* on a directed channel, starting at 1;
seq 0 marks an unsequenced (pure-ack or probe-carrier) batch. Acks are
cumulative: acking N acknowledges every batch through N, TCP-style.
RTT estimation follows Karn's algorithm — only never-retransmitted
batches produce samples — with the classic srtt += (sample - srtt)/8
low-pass filter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = [
    "RetransmitPolicy",
    "SenderWindow",
    "ReceiverWindow",
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]


class RetransmitPolicy:
    """Exponential backoff schedule for batch retransmission.

    Attempt ``k`` (0-based: the first *re*transmission is attempt 0)
    waits ``min(initial << k, cap)`` virtual ns. Retransmission never
    gives up — a batch retries at the capped interval forever; the
    circuit breaker, not the retransmit layer, decides when a link is
    bad enough to route around.
    """

    __slots__ = ("initial_ns", "cap_ns")

    def __init__(self, initial_ns: int = 800_000, cap_ns: int = 12_800_000):
        if initial_ns <= 0 or cap_ns < initial_ns:
            raise ValueError("want 0 < initial_ns <= cap_ns")
        self.initial_ns = initial_ns
        self.cap_ns = cap_ns

    def timeout_for(self, attempt: int) -> int:
        """Backoff delay before retransmission ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        # Guard the shift: 2**attempt overflows usefulness long before
        # it overflows Python ints.
        if attempt >= (self.cap_ns // self.initial_ns).bit_length():
            return self.cap_ns
        return min(self.initial_ns << attempt, self.cap_ns)


class _Unacked:
    """Sender-side bookkeeping for one in-flight sequenced batch."""

    __slots__ = ("data", "size", "sent_at", "attempts", "retransmitted")

    def __init__(self, data: bytes, size: int, sent_at: int):
        self.data = data
        self.size = size
        self.sent_at = sent_at
        self.attempts = 0
        #: Karn's algorithm: a batch that was ever retransmitted yields
        #: no RTT sample (the ack is ambiguous between transmissions).
        self.retransmitted = False


class SenderWindow:
    """Sliding send window for one directed channel.

    Assigns sequence numbers, holds unacked batch bytes for
    retransmission, defers sends past the window limit, and keeps a
    smoothed RTT estimate from ack timing.
    """

    __slots__ = ("window", "next_seq", "unacked", "deferred", "srtt_ns",
                 "min_rtt_ns")

    def __init__(self, window: int = 32):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.next_seq = 1
        #: seq -> _Unacked, insertion-ordered (monotonic seqs).
        self.unacked: Dict[int, _Unacked] = {}
        #: Flushes that arrived while the window was full, FIFO. The
        #: payload is opaque to the window: the transport defers raw
        #: frame lists so the seq/ack header is stamped at actual send
        #: time, not at defer time.
        self.deferred: List[Tuple[object, int]] = []
        self.srtt_ns = 0
        self.min_rtt_ns = 0

    @property
    def in_flight(self) -> int:
        return len(self.unacked)

    def can_send(self) -> bool:
        return len(self.unacked) < self.window and not self.deferred

    def register(self, data: bytes, size: int, now: int) -> int:
        """Claim the next sequence number for an outgoing batch."""
        seq = self.next_seq
        self.next_seq += 1
        self.unacked[seq] = _Unacked(data, size, now)
        return seq

    def defer(self, payload: object, size: int) -> None:
        self.deferred.append((payload, size))

    def pop_deferred(self) -> Optional[Tuple[object, int]]:
        if self.deferred and len(self.unacked) < self.window:
            return self.deferred.pop(0)
        return None

    def mark_retransmit(self, seq: int) -> Optional[_Unacked]:
        """Record one retransmission attempt; None if already acked."""
        entry = self.unacked.get(seq)
        if entry is not None:
            entry.attempts += 1
            entry.retransmitted = True
        return entry

    def ack(self, ack_seq: int, now: int) -> Tuple[List[int], List[int]]:
        """Apply a cumulative ack.

        Returns ``(acked_seqs, rtt_samples_ns)``; samples only come
        from batches never retransmitted (Karn's algorithm).
        """
        acked: List[int] = []
        samples: List[int] = []
        for seq in list(self.unacked):
            if seq > ack_seq:
                break  # insertion order is seq order
            entry = self.unacked.pop(seq)
            acked.append(seq)
            if not entry.retransmitted:
                sample = now - entry.sent_at
                samples.append(sample)
                self._observe_rtt(sample)
        return acked, samples

    def _observe_rtt(self, sample: int) -> None:
        if self.srtt_ns == 0:
            self.srtt_ns = sample
        else:
            self.srtt_ns += (sample - self.srtt_ns) // 8
        if self.min_rtt_ns == 0 or sample < self.min_rtt_ns:
            self.min_rtt_ns = sample


class ReceiverWindow:
    """Reorder buffer with exactly-once in-order release.

    ``accept(seq, data)`` returns the list of payloads now deliverable
    in order (possibly empty while a gap persists, possibly several once
    the gap fills). Duplicates — both already-delivered seqs and
    duplicates still waiting in the buffer — are rejected exactly once.
    """

    __slots__ = ("expect", "buffer", "dups", "ooo")

    def __init__(self):
        self.expect = 1
        self.buffer: Dict[int, bytes] = {}
        self.dups = 0
        self.ooo = 0

    @property
    def cumulative_ack(self) -> int:
        """Highest seq such that everything through it was released."""
        return self.expect - 1

    def accept(self, seq: int, data: bytes) -> List[bytes]:
        if seq < self.expect or seq in self.buffer:
            self.dups += 1
            return []
        if seq != self.expect:
            self.ooo += 1
            self.buffer[seq] = data
            return []
        ready = [data]
        self.expect += 1
        while self.expect in self.buffer:
            ready.append(self.buffer.pop(self.expect))
            self.expect += 1
        return ready


BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-link health state machine: closed -> open -> half-open.

    Opens on either ``failure_threshold`` consecutive retransmissions
    without an intervening ack, or ``slow_threshold`` consecutive RTT
    samples above ``rtt_factor`` times the link's best observed RTT
    (smoothed-RTT drift: the wire still delivers, but so slowly that
    lockstep rendezvous over it is worse than routing around it). After
    ``cooldown_ns`` an open breaker admits one half-open probe; an ack
    while half-open re-closes it, a failure re-opens it with the
    cooldown doubled (capped at ``cooldown_cap_ns``).
    """

    __slots__ = ("failure_threshold", "rtt_factor", "slow_threshold",
                 "cooldown_ns", "cooldown_cap_ns", "state",
                 "consecutive_failures", "consecutive_slow", "opened_at",
                 "current_cooldown_ns", "opens", "closes", "probes")

    def __init__(self, failure_threshold: int = 8, rtt_factor: float = 4.0,
                 slow_threshold: int = 16, cooldown_ns: int = 50_000_000,
                 cooldown_cap_ns: int = 400_000_000):
        self.failure_threshold = failure_threshold
        self.rtt_factor = rtt_factor
        self.slow_threshold = slow_threshold
        self.cooldown_ns = cooldown_ns
        self.cooldown_cap_ns = cooldown_cap_ns
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.consecutive_slow = 0
        self.opened_at = 0
        self.current_cooldown_ns = cooldown_ns
        self.opens = 0
        self.closes = 0
        self.probes = 0

    def record_failure(self, now: int) -> bool:
        """One retransmission fired. True if this opens the breaker."""
        if self.state == BREAKER_HALF_OPEN:
            # The probe died too: back to open, twice the patience.
            self.current_cooldown_ns = min(
                self.current_cooldown_ns * 2, self.cooldown_cap_ns
            )
            self._open(now)
            return True
        self.consecutive_failures += 1
        if (self.state == BREAKER_CLOSED
                and self.consecutive_failures >= self.failure_threshold):
            self._open(now)
            return True
        return False

    def record_rtt(self, sample: int, min_rtt: int, now: int) -> bool:
        """One clean RTT sample. True if drift opens the breaker."""
        if self.state != BREAKER_CLOSED or min_rtt <= 0:
            return False
        if sample > self.rtt_factor * min_rtt:
            self.consecutive_slow += 1
            if self.consecutive_slow >= self.slow_threshold:
                self._open(now)
                return True
        else:
            self.consecutive_slow = 0
        return False

    def record_ack(self) -> None:
        """Any ack arrived, even one that acknowledges nothing new.

        A duplicate ack still proves the link delivers: the receiver is
        only holding later batches behind one lost batch. It breaks the
        failure streak and nothing else."""
        self.consecutive_failures = 0

    def record_success(self) -> bool:
        """An ack acknowledged new batches. True if this closes a
        half-open breaker."""
        self.consecutive_failures = 0
        self.consecutive_slow = 0
        if self.state == BREAKER_HALF_OPEN:
            self.state = BREAKER_CLOSED
            self.closes += 1
            self.current_cooldown_ns = self.cooldown_ns
            return True
        return False

    def probe_due(self, now: int) -> bool:
        """Open and cooled down: time to try one half-open probe?"""
        return (self.state == BREAKER_OPEN
                and now - self.opened_at >= self.current_cooldown_ns)

    def begin_probe(self) -> None:
        self.state = BREAKER_HALF_OPEN
        self.probes += 1

    def _open(self, now: int) -> None:
        self.state = BREAKER_OPEN
        self.opened_at = now
        self.opens += 1
        self.consecutive_failures = 0
        self.consecutive_slow = 0
