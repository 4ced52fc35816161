"""Layout-independent canonical serialization (DESIGN.md §13).

Heterogeneous clusters give every node its own diversity profile —
disjoint DCL arenas, private ASLR seed streams, and a divergent guest
ABI (scalar width, inter-field padding) that changes how an
:class:`~repro.core.comparator.ArgBlob` encodes *in that node's guest
memory*. Raw encodings from two such nodes differ byte-for-byte even
when the replicas made the same call with the same logical arguments,
so nothing cross-node may ever hash raw bytes.

This module is the single chokepoint that fixes that. The digest
pipeline becomes::

    serialize_args()  ->  logical items     (pointers already rewritten
                                             to class+pointee form)
    encode_items(abi) ->  node-local bytes  (what lands in guest memory
                                             and is priced on the wire)
    encode_items()    ->  CANONICAL bytes   (fixed widths, zero padding)
    intern_digest()   ->  64-bit digest     (what rendezvous votes on)

``encode_items`` with default arguments *is* the canonical form, and is
byte-identical to the historical ``ArgBlob.encode()`` — a homogeneous
cluster (every node on :data:`CANONICAL_ABI`) therefore hashes exactly
the bytes it always hashed, with zero extra work on the hot path.

Pointer normalization happens one stage earlier, in
:func:`repro.core.comparator.serialize_args`: raw addresses never reach
the item list. ``ptr`` items carry NULL/non-NULL class, ``callable``
items carry the handler class, and pointees travel by content. This
module only has to normalize the *widths and padding* the per-node ABI
diversifies.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

_SCALAR_MASK = (1 << 63) - 1


class AbiProfile:
    """How one node's guest ABI lays out an argument record.

    ``scalar_width``
        Bytes per integer scalar (8 = the canonical LP64 width; a
        diversified node may zero-extend to 16, the ILP128 analogue).
    ``item_pad``
        Zero bytes of inter-field padding appended after every item's
        payload (0 = canonical packed layout).
    """

    __slots__ = ("scalar_width", "item_pad")

    def __init__(self, scalar_width: int = 8, item_pad: int = 0):
        if scalar_width < 8:
            raise ValueError("scalar_width must hold a 64-bit value")
        if item_pad < 0:
            raise ValueError("item_pad must be non-negative")
        self.scalar_width = scalar_width
        self.item_pad = item_pad

    @property
    def canonical(self) -> bool:
        return self.scalar_width == 8 and self.item_pad == 0

    def __eq__(self, other):
        return (
            isinstance(other, AbiProfile)
            and self.scalar_width == other.scalar_width
            and self.item_pad == other.item_pad
        )

    def __hash__(self):
        return hash((self.scalar_width, self.item_pad))

    def __repr__(self):
        return "AbiProfile(scalar_width=%d, item_pad=%d)" % (
            self.scalar_width,
            self.item_pad,
        )


#: The reference ABI every pre-heterogeneity run implicitly used.
CANONICAL_ABI = AbiProfile()


#: Item header: 8-byte kind tag, u32 payload length.
_ITEM_HEAD = struct.Struct("<8sI")
#: A whole canonical-width scalar item: header plus the u64 payload.
_ITEM_SCALAR8 = struct.Struct("<8sIQ")
#: Memo caps: names and kinds come from small fixed vocabularies (the
#: syscall table, serialize_args' item kinds); the cap only bounds a
#: caller that invents new strings.
_HEAD_MEMO_MAX = 4096
_NAME_HEADS: Dict[str, bytes] = {}
_TAG_HEADS: Dict[str, bytes] = {}


def _memo_head(memo: Dict[str, bytes], text: str, width: int) -> bytes:
    """``text`` encoded, cut or NUL-padded to ``width`` bytes, memoized."""
    head = text.encode()[:width].ljust(width, b"\x00")
    if len(memo) < _HEAD_MEMO_MAX:
        memo[text] = head
    return head


def encode_items(
    name: str,
    items: List[Tuple[str, object]],
    scalar_width: int = 8,
    item_pad: int = 0,
) -> bytes:
    """Encode a serialized argument record under one ABI.

    With default arguments this produces the **canonical** encoding
    (and is byte-identical to the pre-refactor ``ArgBlob.encode()``).
    The length field counts the payload *before* padding, so a decoder
    under any ABI can skip its own padding deterministically.

    Layout per record: a 16-byte NUL-padded name, then per item an
    8-byte NUL-padded kind tag, a little-endian u32 payload length, the
    payload (``bytes`` as is, ``bool`` as one byte, anything else as
    ``int(value)`` masked to 63 bits in ``scalar_width`` little-endian
    bytes) and ``item_pad`` zero bytes.
    """
    # One growing bytearray rather than a list of parts joined at the
    # end: a list is a GC-tracked allocation per call, and on
    # heterogeneous runs (two encodes per call) it moved collections
    # enough to lift peak RSS by ~2 %.
    head = _NAME_HEADS.get(name)
    out = bytearray(
        _memo_head(_NAME_HEADS, name, 16) if head is None else head
    )
    pad = b"\x00" * item_pad
    pack_head = _ITEM_HEAD.pack
    tag_heads = _TAG_HEADS
    for kind, value in items:
        tag = tag_heads.get(kind)
        if tag is None:
            tag = _memo_head(tag_heads, kind, 8)
        # bytes before bool before int(): bool is an int subclass.
        if isinstance(value, bytes):
            out += pack_head(tag, len(value))
            out += value
        elif isinstance(value, bool):
            out += pack_head(tag, 1)
            out += b"\x01" if value else b"\x00"
        elif scalar_width == 8:
            out += _ITEM_SCALAR8.pack(tag, 8, int(value) & _SCALAR_MASK)
        else:
            out += pack_head(tag, scalar_width)
            out += (int(value) & _SCALAR_MASK).to_bytes(scalar_width, "little")
        if item_pad:
            out += pad
    return bytes(out)


def canonical_bytes(name: str, items: List[Tuple[str, object]]) -> bytes:
    """The layout-independent form every cross-node digest hashes."""
    return encode_items(name, items)


def encode_for(name: str, items: List[Tuple[str, object]], abi: AbiProfile) -> bytes:
    """One node's local (guest-memory) encoding of the same record."""
    return encode_items(name, items, abi.scalar_width, abi.item_pad)
