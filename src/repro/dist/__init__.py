"""repro.dist — distributed multi-variant execution across simulated nodes.

Where :class:`repro.core.ReMon` runs all replicas on one simulated
machine (sharing its kernel, caches, and an IP-MON replication buffer in
shared memory), this package places each replica on its own simulated
node — a private kernel and filesystem image — connected by the
simulated network. The design follows the distributed descendants of
ReMon (dMVX, DMON): a leader node executes externally visible I/O and
mirrors results to followers over an explicit wire format, most other
calls run node-locally with lazy digest cross-checks, and monitored
calls rendezvous in lockstep through per-owner monitor shards (the
leader's alone by default; a rendezvous-hashed owner set under
``DistConfig.shard_rendezvous``). Ownership is versioned by an epoch
bumped on every quarantine, with an explicit, costed handoff protocol
(``T_SHARD_HANDOFF`` / ``T_ROUND_RESUBMIT``) re-homing or re-collecting
a dead owner's open rounds.

Entry points::

    from repro.dist import DistConfig, run_distributed
    cfg = ReMonConfig(replicas=3, dist=DistConfig(link_latency_ns=200_000))
    result = run_distributed(program, cfg)

See DESIGN.md §8 for the model and its simplifications.
"""

from repro.dist.cluster import (
    DistConfig,
    DistMonitor,
    DistMvee,
    run_distributed,
    shard_owner,
)
from repro.dist.codec import (
    PayloadDict,
    TAG_DICT,
    TAG_RAW,
    TAG_RLE,
    decode_payload,
    encode_payload,
    rle_decode,
    rle_encode,
)
from repro.dist.node import DistInterceptor, Node, NodeFdView
from repro.dist.reliable import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    ReceiverWindow,
    RetransmitPolicy,
    SenderWindow,
)
from repro.dist.shard import MonitorShard, RendezvousState, round_key
from repro.dist.remote_rb import RBMirror, RemoteRecord
from repro.dist.selective import (
    CLS_CONTROL,
    CLS_DIGEST,
    CLS_HANDOFF,
    CLS_LIFECYCLE,
    CLS_RENDEZVOUS,
    FRAME_CLASSES,
    LOCAL,
    REPLICATED,
    frame_class,
    SelectiveReplication,
    full_replication,
    selective_replication,
    syscall_class,
)
from repro.dist.transport import CODECS, Channel, Transport
from repro.dist.wire import (
    F_CODED,
    Frame,
    T_CALL_DIGEST,
    T_CONTROL,
    T_LIFECYCLE_GOSSIP,
    T_LIFECYCLE_STATE,
    T_RENDEZVOUS_OK,
    T_RENDEZVOUS_REQ,
    T_ROUND_RESUBMIT,
    T_SHARD_HANDOFF,
    T_SYSCALL_RESULT,
    decode_frame,
    encode_batch,
    encode_frame,
    gossip_payload,
    parse_gossip_payload,
    parse_state_payload,
    state_payload,
)

__all__ = [
    "DistConfig",
    "DistMonitor",
    "DistMvee",
    "run_distributed",
    "shard_owner",
    "MonitorShard",
    "RendezvousState",
    "round_key",
    "PayloadDict",
    "TAG_DICT",
    "TAG_RAW",
    "TAG_RLE",
    "decode_payload",
    "encode_payload",
    "rle_decode",
    "rle_encode",
    "DistInterceptor",
    "Node",
    "NodeFdView",
    "RBMirror",
    "RemoteRecord",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "ReceiverWindow",
    "RetransmitPolicy",
    "SenderWindow",
    "CLS_CONTROL",
    "CLS_DIGEST",
    "CLS_HANDOFF",
    "CLS_LIFECYCLE",
    "CLS_RENDEZVOUS",
    "FRAME_CLASSES",
    "frame_class",
    "LOCAL",
    "REPLICATED",
    "SelectiveReplication",
    "full_replication",
    "selective_replication",
    "syscall_class",
    "CODECS",
    "Channel",
    "Transport",
    "F_CODED",
    "Frame",
    "T_CALL_DIGEST",
    "T_CONTROL",
    "T_LIFECYCLE_GOSSIP",
    "T_LIFECYCLE_STATE",
    "T_RENDEZVOUS_OK",
    "T_RENDEZVOUS_REQ",
    "T_ROUND_RESUBMIT",
    "T_SHARD_HANDOFF",
    "T_SYSCALL_RESULT",
    "decode_frame",
    "encode_batch",
    "encode_frame",
    "gossip_payload",
    "parse_gossip_payload",
    "parse_state_payload",
    "state_payload",
]
