"""Deep system-call argument comparison and serialization.

Two consumers share this logic:

* GHUMVEE compares the arguments of lockstepped calls across replicas
  before letting the master execute (CHECKREG / CHECKPOINTER /
  CHECKSTRING in the original code base);
* IP-MON's master deep-copies its arguments into the replication buffer
  and the slaves compare their own arguments against the recorded blob
  (paper §3, "this measure minimizes opportunities for asymmetrical
  attacks").

Pointer values legitimately differ between diversified replicas, so
pointers are compared by *shape* (NULL vs non-NULL) and their pointees by
*content*, never by raw address.
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Tuple

from repro.core.canonical import CANONICAL_ABI, AbiProfile, encode_for
from repro.core.digests import intern_digest
from repro.kernel.memory import MemoryFault
from repro.kernel.specs import SyscallSpec, spec_for
from repro.kernel.structs import read_iovecs


class ArgBlob:
    """One replica's serialized argument record."""

    __slots__ = ("name", "items", "nbytes", "abi", "_encoded", "_canonical")

    def __init__(
        self,
        name: str,
        items: List[Tuple[str, object]],
        nbytes: int,
        abi: Optional[AbiProfile] = None,
    ):
        self.name = name
        self.items = items
        self.nbytes = nbytes
        self.abi = abi if abi is not None else CANONICAL_ABI
        self._encoded: Optional[bytes] = None
        self._canonical: Optional[bytes] = None

    def encode(self) -> bytes:
        """This node's local byte encoding (what actually lands in the
        RB / guest memory) — laid out under the node's
        :class:`~repro.core.canonical.AbiProfile`.

        Memoized per instance: IP-MON sizes the record with it and the
        homogeneous digest path hashes it, so the bytes are built once.
        """
        cached = self._encoded
        if cached is not None:
            return cached
        cached = encode_for(self.name, self.items, self.abi)
        self._encoded = cached
        if self.abi.canonical:
            self._canonical = cached
        return cached

    def canonical(self) -> bytes:
        """The layout-independent canonical encoding (DESIGN.md §13):
        fixed scalar widths, zero padding — identical bytes for the
        same logical arguments under *any* node's ABI. On a canonical
        ABI this is the local encoding itself, shared memo and all."""
        cached = self._canonical
        if cached is not None:
            return cached
        if self.abi.canonical:
            return self.encode()
        cached = encode_for(self.name, self.items, CANONICAL_ABI)
        self._canonical = cached
        return cached

    def digest(self) -> int:
        """64-bit interned digest of the canonical encoding — shared
        MVEE-wide with the dist wire path via
        :func:`repro.core.digests.intern_digest`, so identical blobs
        hash once per round, not once per replica per node."""
        return intern_digest(self.name, self.canonical())

    def __eq__(self, other):
        return (
            isinstance(other, ArgBlob)
            and self.name == other.name
            and self.items == other.items
        )

    def __repr__(self):
        return "ArgBlob(%s, %d items, %d bytes)" % (self.name, len(self.items), self.nbytes)


def resolve_length(length_source, args, result: Optional[int] = None) -> int:
    """Byte length of a buffer argument from its spec's length source:
    a fixed size, another argument's value, or the call's result."""
    kind, value = length_source
    if kind == "fixed":
        return value
    if kind == "arg":
        return max(0, int(args[value])) if value < len(args) else 0
    if kind == "ret":
        return max(0, int(result or 0))
    raise ValueError("unknown length source %r" % (length_source,))


def serialize_args(
    req,
    space,
    spec: Optional[SyscallSpec] = None,
    abi: Optional[AbiProfile] = None,
) -> ArgBlob:
    """Deep-copy the *comparable content* of a call's arguments.

    Unknown syscalls degrade to comparing raw values. ``abi`` is the
    serializing node's layout profile; omitted, the record encodes in
    canonical form (the homogeneous/single-machine case).
    """
    spec = spec or spec_for(req.name)
    items: List[Tuple[str, object]] = []
    append = items.append
    args = req.args
    nbytes = 0
    if spec is None:
        for value in args:
            append(("reg", _raw(value)))
        return ArgBlob(req.name, items, nbytes, abi)
    # zip stops at the shorter side: a call passing fewer args than its
    # spec lists serializes only the ones it passed.
    for arg_spec, value in zip(spec.args, args):
        kind = arg_spec.kind
        try:
            if kind in ("reg", "fd"):
                # _raw() of a plain int is the int itself.
                append((kind, value if value.__class__ is int else _raw(value)))
            elif kind == "ptr":
                append(("ptr", bool(value)))
            elif kind == "callable":
                append(("callable", _callable_shape(value)))
            elif kind == "cstr":
                if not value:
                    append(("cstr", b""))
                else:
                    data = space.read_cstr(int(value))
                    append(("cstr", data))
                    nbytes += len(data)
            elif kind in ("buf_in", "struct_in"):
                if not value:
                    append(("buf", b""))
                else:
                    length = resolve_length(arg_spec.length, args)
                    data = space.read(int(value), length) if length else b""
                    append(("buf", data))
                    nbytes += len(data)
            elif kind == "epoll_event_in":
                if not value:
                    append(("epev", b""))
                else:
                    raw = space.read(int(value), 4)  # events mask only
                    append(("epev", raw))
                    nbytes += 4
            elif kind == "iovec_in":
                if not value:
                    append(("iov", b""))
                else:
                    count = int(args[arg_spec.count_arg])
                    iovecs = read_iovecs(space, int(value), count)
                    data = b"".join(space.read(b, ln) for b, ln in iovecs)
                    append(("iov", data))
                    nbytes += len(data)
            elif kind in ("buf_out", "struct_out", "iovec_out"):
                append(("out", bool(value)))
            else:
                append(("reg", _raw(value)))
        except MemoryFault:
            append(("fault", int(value) != 0))
    return ArgBlob(req.name, items, nbytes, abi)


def _raw(value) -> int:
    if value is None:
        return 0
    if callable(value):
        return 1
    try:
        return int(value)
    except (TypeError, ValueError):
        # Builtin hash() is PYTHONHASHSEED-randomized for str/bytes, so
        # two replica *processes* would serialize different digests for
        # the same argument — a guaranteed false divergence. crc32 of
        # the repr is stable across processes and interpreter runs.
        return zlib.crc32(repr(value).encode("utf-8", "backslashreplace")) & 0xFFFFFFFF


def _callable_shape(value) -> int:
    """Code pointers differ across replicas (DCL); only their class
    matters: 0 = SIG_DFL/NULL, 1 = SIG_IGN, 2 = a real handler."""
    if value is None or value == 0:
        return 0
    if value == 1:
        return 1
    return 2


class Mismatch:
    """Description of a cross-replica argument mismatch."""

    def __init__(self, syscall: str, detail: str, index: Optional[int] = None,
                 replica: Optional[int] = None):
        self.syscall = syscall
        self.detail = detail
        self.index = index
        self.replica = replica

    def __repr__(self):
        return "Mismatch(%s: %s)" % (self.syscall, self.detail)


def compare_blobs(blobs: List[ArgBlob]) -> Optional[Mismatch]:
    """Compare serialized argument records from all replicas."""
    reference = blobs[0]
    for replica_index, blob in enumerate(blobs[1:], start=1):
        # Fast path: one C-level comparison settles the (overwhelmingly
        # common) all-equal case; the detailed per-item walk below only
        # runs to attribute an actual mismatch.
        if blob.name == reference.name and blob.items == reference.items:
            continue
        if blob.name != reference.name:
            return Mismatch(
                reference.name,
                "replica %d issued %s instead of %s"
                % (replica_index, blob.name, reference.name),
                replica=replica_index,
            )
        if len(blob.items) != len(reference.items):
            return Mismatch(
                reference.name,
                "replica %d passed %d args, expected %d"
                % (replica_index, len(blob.items), len(reference.items)),
                replica=replica_index,
            )
        for arg_index, (ref_item, item) in enumerate(zip(reference.items, blob.items)):
            if ref_item != item:
                return Mismatch(
                    reference.name,
                    "arg %d differs in replica %d: %r != %r"
                    % (arg_index, replica_index, _clip(item), _clip(ref_item)),
                    index=arg_index,
                    replica=replica_index,
                )
    return None


def _clip(item):
    kind, value = item
    if isinstance(value, bytes) and len(value) > 32:
        value = value[:32] + b"..."
    return (kind, value)


def compare_requests(reqs_and_spaces) -> Tuple[Optional[Mismatch], int]:
    """Full comparison pipeline: serialize every replica's args and
    compare. Returns (mismatch-or-None, bytes_compared)."""
    blobs = [serialize_args(req, space) for req, space in reqs_and_spaces]
    nbytes = sum(blob.nbytes for blob in blobs)
    return compare_blobs(blobs), nbytes
