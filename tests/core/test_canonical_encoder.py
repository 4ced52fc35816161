"""The precompiled canonical encoder against the original byte builder.

``encode_items`` packs precomputed name/tag heads with ``struct`` and
joins once; the reference below is the original ``bytearray`` encoder.
Every digest cross-node rendezvous votes on hashes these bytes, so the
two must agree byte for byte under every ABI.
"""

import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.canonical import AbiProfile, encode_for, encode_items

_MASK = (1 << 63) - 1


def reference_encode_items(name, items, scalar_width=8, item_pad=0):
    pad = b"\x00" * item_pad
    out = bytearray()
    out += name.encode()[:16].ljust(16, b"\x00")
    for kind, value in items:
        tag = kind.encode()[:8].ljust(8, b"\x00")
        if isinstance(value, bytes):
            payload = value
        elif isinstance(value, bool):
            payload = bytes([value])
        else:
            payload = (int(value) & _MASK).to_bytes(scalar_width, "little")
        out += tag + struct.pack("<I", len(payload)) + payload
        if item_pad:
            out += pad
    return bytes(out)


class _Handle:
    """A non-int scalar the encoder converts with ``int()``."""

    def __init__(self, value):
        self.value = value

    def __int__(self):
        return self.value


_values = st.one_of(
    st.binary(max_size=40),
    st.booleans(),
    st.integers(min_value=-(1 << 80), max_value=1 << 80),
    st.integers(min_value=-(1 << 80), max_value=1 << 80).map(_Handle),
)
_names = st.one_of(
    st.sampled_from(["read", "write", "epoll_wait", "x" * 16, "y" * 30]),
    st.text(max_size=24),
)
_kinds = st.one_of(
    st.sampled_from(["reg", "ptr", "buf", "cstr", "callable", "longkindname"]),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(
    name=_names,
    items=st.lists(st.tuples(_kinds, _values), max_size=8),
    width=st.sampled_from([8, 12, 16]),
    pad=st.integers(min_value=0, max_value=8),
)
@example(name="n", items=[("reg", True), ("reg", 1)], width=8, pad=0)
@example(name="n", items=[("reg", -1), ("reg", 1 << 70)], width=16, pad=3)
def test_encoder_matches_reference(name, items, width, pad):
    expected = reference_encode_items(name, items, width, pad)
    got = encode_items(name, items, width, pad)
    assert type(got) is bytes
    assert got == expected
    assert encode_for(name, items, AbiProfile(width, pad)) == expected
    if width == 8 and pad == 0:
        assert encode_items(name, items) == expected


def test_bool_is_one_byte_not_a_scalar():
    # bool is an int subclass: the bool arm must win over int().
    assert encode_items("n", [("reg", True)]) == (
        b"n".ljust(16, b"\x00") + b"reg".ljust(8, b"\x00")
        + struct.pack("<I", 1) + b"\x01"
    )
