"""The divergence flight recorder and its postmortem report.

Inspired by rr's approach of cheap always-on recording turned into
postmortem evidence: each replica gets a bounded ring of its last K
syscall/rendezvous events, and when the MVEE declares divergence or
quarantines a replica the recorder snapshots those tails together with
the mismatch itself (replica, syscall, offending argument blobs),
lane/owner attribution, and the backoff state of the RB and rendezvous
machinery at that moment.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, List, Optional


def _clip(value, limit: int = 160) -> str:
    text = repr(value)
    if len(text) > limit:
        text = text[:limit] + "...(%d chars)" % len(text)
    return text


class FlightRecorder:
    """Per-replica bounded rings of recent events."""

    def __init__(self, ring_size: int = 64):
        self.ring_size = ring_size
        self.rings: Dict[int, deque] = {}
        self.recorded = 0

    def record(self, replica: int, time_ns: int, kind: str, name: str,
               **attrs) -> None:
        ring = self.rings.get(replica)
        if ring is None:
            ring = self.rings[replica] = deque(maxlen=self.ring_size)
        event = {"t": time_ns, "kind": kind, "name": name}
        if attrs:
            event.update(attrs)
        ring.append(event)
        self.recorded += 1

    @property
    def dropped(self) -> int:
        """Events that have rotated out of the rings."""
        return self.recorded - sum(len(ring) for ring in self.rings.values())

    def tails(self) -> Dict[int, List[dict]]:
        """Snapshot of every replica's ring, oldest event first."""
        return {replica: list(ring)
                for replica, ring in sorted(self.rings.items())}


class Postmortem:
    """Everything known at the moment a divergence/quarantine fired."""

    def __init__(self, reason: str, report, tails: Dict[int, List[dict]],
                 attribution: Optional[dict] = None,
                 backoff: Optional[dict] = None,
                 recorder_stats: Optional[dict] = None):
        self.reason = reason
        self.time_ns = report.time_ns
        self.vtid = report.vtid
        self.syscall = report.syscall
        self.detail = report.detail
        self.detected_by = report.detected_by
        self.kind = report.kind
        self.replica = report.replica
        self.replica_args = [_clip(blob) for blob in report.replica_args]
        self.tails = tails
        self.attribution = attribution or {}
        self.backoff = backoff or {}
        self.recorder_stats = recorder_stats or {}

    def to_json(self) -> dict:
        return {
            "reason": self.reason,
            "time_ns": self.time_ns,
            "vtid": self.vtid,
            "syscall": self.syscall,
            "detail": self.detail,
            "detected_by": self.detected_by,
            "kind": self.kind,
            "replica": self.replica,
            "replica_args": self.replica_args,
            "tails": {str(k): v for k, v in self.tails.items()},
            "attribution": self.attribution,
            "backoff": self.backoff,
            "recorder": self.recorder_stats,
        }

    def to_text(self) -> str:
        lines = [
            "=== postmortem: %s ===" % self.reason,
            "at t=%dns  vtid=%r  syscall=%r  detected_by=%r  kind=%r"
            % (self.time_ns, self.vtid, self.syscall, self.detected_by,
               self.kind),
        ]
        if self.replica is not None:
            lines.append("diverging replica: %d" % self.replica)
        if self.detail:
            lines.append("detail: %s" % self.detail)
        for index, blob in enumerate(self.replica_args):
            lines.append("arg blob[%d]: %s" % (index, blob))
        if self.attribution:
            lines.append("attribution: %s"
                         % json.dumps(self.attribution, sort_keys=True,
                                      default=repr))
        if self.backoff:
            lines.append("backoff state: %s"
                         % json.dumps(self.backoff, sort_keys=True,
                                      default=repr))
        for replica, tail in sorted(self.tails.items()):
            lines.append("replica %d tail (%d events):" % (replica, len(tail)))
            for event in tail:
                lines.append("  %s" % json.dumps(event, sort_keys=True,
                                                 default=repr))
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return "Postmortem(%s, replica=%r, syscall=%r)" % (
            self.reason, self.replica, self.syscall,
        )
