"""Leader-side admission control for the accept path.

Two cloud patterns compose here (ROADMAP item 1's queue-based load
leveling and throttling/rate-limiting): a token bucket decides whether a
SYN may even join the accept backlog, and the backlog itself is bounded
so queue wait — the dominant tail-latency term past the saturation knee
— cannot grow without bound. What cannot be admitted is *shed* under a
configurable policy:

* ``reject`` — backpressure: the client sees an immediate RST
  (ECONNREFUSED) and can back off or retry elsewhere;
* ``drop`` — the SYN silently vanishes; the client burns its own
  connect timeout (ETIMEDOUT) before noticing. Cheaper for the server,
  crueller to the client — ``tests/fleet/test_offered_load.py``
  checks both at ~30x overload.

The controller is pure bookkeeping over virtual time: all math is
integer (token-nanos), so identical runs are bit-identical. The kernel
socket layer talks to it through a three-string protocol —
:meth:`AdmissionController.on_syn` returns ``"admit"``/``"reject"``/
``"drop"`` — keeping ``repro.kernel`` free of fleet imports.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

ADMIT = "admit"
POLICY_REJECT = "reject"
POLICY_DROP = "drop"

_NS_PER_S = 1_000_000_000


class TokenBucket:
    """Deterministic token bucket over virtual nanoseconds.

    Tokens are tracked in token-nanos (1 token == 1e9 token-nanos) so
    refill at ``rate_per_s`` tokens/second needs no floating point:
    ``elapsed_ns * rate_per_s`` token-nanos accrue per elapsed virtual
    nanosecond. The bucket starts full and never holds more than
    ``burst`` tokens.
    """

    __slots__ = ("rate_per_s", "burst", "_token_ns", "_last_ns")

    def __init__(self, rate_per_s: int, burst: int, now_ns: int = 0):
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if burst <= 0:
            raise ValueError("burst must be positive")
        self.rate_per_s = int(rate_per_s)
        self.burst = int(burst)
        self._token_ns = self.burst * _NS_PER_S
        self._last_ns = now_ns

    def _refill(self, now_ns: int) -> None:
        if now_ns > self._last_ns:
            self._token_ns = min(
                self.burst * _NS_PER_S,
                self._token_ns + (now_ns - self._last_ns) * self.rate_per_s,
            )
            self._last_ns = now_ns

    def try_take(self, now_ns: int) -> bool:
        """Consume one token if available; False means rate-shed."""
        self._refill(now_ns)
        if self._token_ns >= _NS_PER_S:
            self._token_ns -= _NS_PER_S
            return True
        return False

    def tokens(self, now_ns: int) -> int:
        """Whole tokens currently available (after refill)."""
        self._refill(now_ns)
        return self._token_ns // _NS_PER_S


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs for one listener's admission controller.

    ``rate_per_s=None`` disables the token bucket (queue bound only);
    that is also how the unthrottled baseline is modelled — a
    pass-through controller with a huge queue, so queue-wait stamping
    stays on and both modes report ``fleet_accept_wait_ns``.
    """

    queue_capacity: int = 128
    rate_per_s: Optional[int] = None
    burst: int = 64
    policy: str = POLICY_REJECT
    #: Client-side connect timeout modelled for silently dropped SYNs
    #: (kernel retransmits folded in).
    drop_timeout_ns: int = 250_000_000

    def __post_init__(self):
        if self.policy not in (POLICY_REJECT, POLICY_DROP):
            raise ValueError("unknown shed policy %r" % (self.policy,))
        if self.queue_capacity <= 0:
            raise ValueError("queue_capacity must be positive")


class AdmissionController:
    """Admission decisions + accounting for one listening socket.

    Invariants (property-tested in ``tests/fleet``):

    * ``admitted + shed == offered`` after every decision;
    * the accept backlog never exceeds ``queue_capacity``;
    * admission is FIFO — connections are accepted in SYN-arrival order
      (the queue-wait stamps are a parallel deque to the kernel backlog).
    """

    def __init__(self, config: AdmissionConfig, now_ns: int = 0):
        self.config = config
        self.bucket = (
            TokenBucket(config.rate_per_s, config.burst, now_ns)
            if config.rate_per_s is not None
            else None
        )
        self.enabled = True
        self.offered = 0
        self.admitted = 0
        self.shed_rate = 0  # token bucket said no
        self.shed_queue = 0  # backlog at capacity
        self.accepted = 0  # dequeued by accept(2)
        self.total_wait_ns = 0
        self.max_wait_ns = 0
        self._enq_ns: deque = deque()
        #: Optional repro.obs hooks, set by the fleet runner.
        self.accept_wait_hist = None
        self.tracer = None

    # -- kernel-facing protocol (duck-typed from repro.kernel.sockets) ----
    @property
    def drop_timeout_ns(self) -> int:
        return self.config.drop_timeout_ns

    def attach(self, listener) -> None:
        """Install on a listening socket (called from sys_listen)."""
        listener.admission = self
        listener.backlog_limit = self.config.queue_capacity

    def disarm(self) -> None:
        """Stop shedding (used to drain the final shutdown connection)."""
        self.enabled = False

    def on_syn(self, now_ns: int, backlog_len: int) -> str:
        self.offered += 1
        if self.enabled:
            if self.bucket is not None and not self.bucket.try_take(now_ns):
                self.shed_rate += 1
                self._trace("shed_rate", now_ns)
                return self.config.policy
            if backlog_len >= self.config.queue_capacity:
                self.shed_queue += 1
                self._trace("shed_queue", now_ns)
                return self.config.policy
        self.admitted += 1
        return ADMIT

    def on_enqueue(self, now_ns: int) -> None:
        self._enq_ns.append(now_ns)

    def on_dequeue(self, now_ns: int) -> int:
        """Stamp one accept; returns the connection's backlog wait."""
        wait = now_ns - self._enq_ns.popleft() if self._enq_ns else 0
        self.accepted += 1
        self.total_wait_ns += wait
        if wait > self.max_wait_ns:
            self.max_wait_ns = wait
        if self.accept_wait_hist is not None:
            self.accept_wait_hist.observe(wait)
        return wait

    # -- reporting --------------------------------------------------------
    @property
    def shed(self) -> int:
        return self.shed_rate + self.shed_queue

    def shed_fraction(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    def stats(self) -> dict:
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "shed": self.shed,
            "shed_rate_limited": self.shed_rate,
            "shed_queue_full": self.shed_queue,
            "accepted": self.accepted,
            "max_accept_wait_ns": self.max_wait_ns,
        }

    def _trace(self, what: str, now_ns: int) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant("fleet", what, t=now_ns)
