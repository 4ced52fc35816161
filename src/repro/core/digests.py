"""MVEE-wide call-digest interning.

Every layer that fingerprints a system call — the distributed lanes'
async cross-checks (:mod:`repro.dist.wire`), the per-shard rendezvous
votes, and the CP/IP-MON comparator (:mod:`repro.core.comparator`) —
digests the same canonical argument blob: ``blake2b(name || blob)``
truncated to 64 bits. Before this module each consumer kept its own
cache (or none), so an identical blob was hashed once per replica per
node per round. The interner is process-wide and keyed on the canonical
``(name, blob_bytes)`` pair, so an identical blob hashes exactly once
no matter how many replicas, nodes, or subsystems look at it.

Interning is transparent: a digest is a pure function of its inputs,
so cache hits never change simulated results — only host CPU time.

``blake2b`` is imported from ``_blake2``, not ``hashlib``. On CPython
``hashlib.blake2b`` *is* ``_blake2.blake2b`` (``hashlib`` itself takes
it from there, with no fallback), so the digests are bit-identical,
but ``import hashlib`` also loads ``_hashlib`` and with it OpenSSL's
``libcrypto``: over 3 MiB resident in every run for one hash function
the interpreter already has built in.
"""

from __future__ import annotations

from _blake2 import blake2b
from typing import Dict, Tuple


class DigestInterner:
    """Bounded FIFO-evicting cache of 64-bit call digests.

    Server loops replay near-identical calls, so the same
    ``(name, blob)`` pair is digested over and over; blake2b per call
    is the hot spot. Bounded FIFO eviction keeps memory flat.
    """

    __slots__ = ("capacity", "hits", "misses", "_table")

    def __init__(self, capacity: int = 8192):
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._table: Dict[Tuple[str, bytes], int] = {}

    def digest(self, name: str, blob_bytes: bytes) -> int:
        key = (name, blob_bytes)
        value = self._table.get(key)
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        h = blake2b(digest_size=8)
        h.update(name.encode())
        h.update(blob_bytes)
        value = int.from_bytes(h.digest(), "little")
        if len(self._table) >= self.capacity:
            # FIFO eviction: dict preserves insertion order.
            self._table.pop(next(iter(self._table)))
        self._table[key] = value
        return value

    def clear(self) -> None:
        self._table.clear()
        self.hits = 0
        self.misses = 0


#: The process-wide interner. Deliberately not per-cluster or per-MVEE:
#: digests are pure, so sharing across runs and subsystems is safe and
#: maximises reuse.
interner = DigestInterner()


def intern_digest(name: str, blob_bytes: bytes) -> int:
    """64-bit digest of one syscall's name + canonical argument blob."""
    return interner.digest(name, blob_bytes)
