"""Unit and property tests for the address-space model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rb import ReplicationBuffer
from repro.kernel import constants as C
from repro.kernel.memory import (
    AddressSpace,
    MemoryFault,
    SharedRegion,
    page_align_down,
    page_align_up,
)

RW = C.PROT_READ | C.PROT_WRITE


def make_space():
    return AddressSpace(0x7F00_0000_0000, 0x5555_0000_0000)


class TestMapping:
    def test_map_read_write_roundtrip(self):
        space = make_space()
        mapping = space.map(None, 8192, RW, name="test")
        space.write(mapping.start + 100, b"hello world")
        assert space.read(mapping.start + 100, 11) == b"hello world"

    def test_mappings_do_not_overlap(self):
        space = make_space()
        for _ in range(50):
            space.map(None, 4096 * 3, RW)
        mappings = space.mappings()
        for a, b in zip(mappings, mappings[1:]):
            assert a.end <= b.start

    def test_map_fixed_clobbers_overlap(self):
        space = make_space()
        first = space.map(0x1000_0000, 8192, RW, fixed=True)
        space.write(first.start, b"AAAA")
        second = space.map(0x1000_0000, 4096, RW, fixed=True)
        assert space.read(second.start, 4) == b"\x00\x00\x00\x00"
        # The non-clobbered tail of the first mapping survives.
        assert space.find_mapping(0x1000_1000) is not None

    def test_unmap_middle_splits(self):
        space = make_space()
        mapping = space.map(0x2000_0000, 4096 * 3, RW, fixed=True)
        space.write(mapping.start, b"A" * (4096 * 3))
        space.unmap(mapping.start + 4096, 4096)
        assert space.find_mapping(mapping.start) is not None
        assert space.find_mapping(mapping.start + 4096) is None
        assert space.find_mapping(mapping.start + 8192) is not None
        # Both remainders kept their bytes.
        assert space.read(mapping.start, 4096) == b"A" * 4096
        assert space.read(mapping.start + 8192, 4096) == b"A" * 4096

    def test_read_unmapped_faults(self):
        space = make_space()
        with pytest.raises(MemoryFault):
            space.read(0xDEAD_0000, 4)

    def test_write_readonly_faults(self):
        space = make_space()
        mapping = space.map(None, 4096, C.PROT_READ)
        with pytest.raises(MemoryFault):
            space.write(mapping.start, b"x")
        space.write(mapping.start, b"x", check_prot=False)  # ptrace path

    def test_read_crosses_contiguous_mappings(self):
        space = make_space()
        first = space.map(0x3000_0000, 4096, RW, fixed=True)
        space.map(0x3000_1000, 4096, RW, fixed=True)
        space.write(first.start + 4090, b"ABCDEFGHIJ")
        assert space.read(first.start + 4090, 10) == b"ABCDEFGHIJ"

    def test_protect_splits_mapping(self):
        space = make_space()
        mapping = space.map(0x4000_0000, 4096 * 3, RW, fixed=True)
        space.protect(mapping.start + 4096, 4096, C.PROT_READ)
        with pytest.raises(MemoryFault):
            space.write(mapping.start + 4096, b"x")
        space.write(mapping.start, b"x")
        space.write(mapping.start + 8192, b"x")

    def test_brk_grows_heap(self):
        space = make_space()
        base = space.brk_current
        new = space.brk(base + 10_000)
        assert new >= base + 10_000
        space.write(base, b"heap-data")
        assert space.read(base, 9) == b"heap-data"

    def test_brk_shrink_request_is_ignored_below_base(self):
        space = make_space()
        base = space.brk_current
        assert space.brk(base - 4096) == base

    def test_cstr_reading(self):
        space = make_space()
        mapping = space.map(None, 4096, RW)
        space.write(mapping.start, b"hello\x00trailing")
        assert space.read_cstr(mapping.start) == b"hello"

    def test_u32_u64_accessors(self):
        space = make_space()
        mapping = space.map(None, 4096, RW)
        space.write_u64(mapping.start, 0x1122334455667788)
        assert space.read_u64(mapping.start) == 0x1122334455667788
        space.write_u32(mapping.start + 8, 0xDEADBEEF)
        assert space.read_u32(mapping.start + 8) == 0xDEADBEEF


class TestSharedRegions:
    def test_shared_region_visible_across_spaces(self):
        region = SharedRegion(8192, "shared")
        space_a = make_space()
        space_b = AddressSpace(0x7E00_0000_0000, 0x5666_0000_0000)
        map_a = space_a.map(None, 8192, RW, region=region, shared=True)
        map_b = space_b.map(None, 8192, RW, region=region, shared=True)
        assert map_a.start != map_b.start
        space_a.write(map_a.start + 16, b"cross-process")
        assert space_b.read(map_b.start + 16, 13) == b"cross-process"

    def test_attach_counting(self):
        region = SharedRegion(4096)
        space = make_space()
        mapping = space.map(None, 4096, RW, region=region, shared=True)
        assert region.attach_count == 1
        space.unmap(mapping.start, 4096)
        assert region.attach_count == 0


class TestAlignmentHelpers:
    @given(st.integers(min_value=0, max_value=1 << 48))
    def test_page_align_invariants(self, addr):
        down = page_align_down(addr)
        up = page_align_up(addr)
        assert down <= addr <= up
        assert down % C.PAGE_SIZE == 0
        assert up % C.PAGE_SIZE == 0
        assert up - down in (0, C.PAGE_SIZE)


@settings(max_examples=40, deadline=None)
@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3000),
            st.binary(min_size=1, max_size=128),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_property_last_write_wins(writes):
    """Overlapping writes behave like writes to a flat bytearray."""
    space = make_space()
    mapping = space.map(None, 4096, RW)
    model = bytearray(4096)
    for offset, data in writes:
        space.write(mapping.start + offset, data)
        model[offset : offset + len(data)] = data
    assert space.read(mapping.start, 4096) == bytes(model)


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=1 << 20), min_size=1, max_size=12)
)
def test_property_allocations_disjoint_and_page_aligned(sizes):
    space = make_space()
    mappings = [space.map(None, size, RW) for size in sizes]
    for mapping, size in zip(mappings, sizes):
        assert mapping.start % C.PAGE_SIZE == 0
        assert mapping.length >= size
    ordered = sorted(mappings, key=lambda m: m.start)
    for a, b in zip(ordered, ordered[1:]):
        assert a.end <= b.start


class TestSparseRegions:
    def test_anonymous_mappings_are_page_on_write(self):
        space = make_space()
        mapping = space.map(None, 1 << 20, RW)
        region = mapping.region
        assert region.pages == {}
        assert space.read(mapping.start + 5000, 16) == bytes(16)
        assert region.pages == {}
        space.write(mapping.start + 5000, b"x")
        assert sorted(region.pages) == [1]
        region.write(3 * C.PAGE_SIZE, b"")
        assert sorted(region.pages) == [1]

    def test_every_region_is_page_on_write(self):
        space = make_space()
        regions = [
            SharedRegion(4096, "shared"),
            space.map(None, 1 << 20, RW).region,
            ReplicationBuffer(size=1 << 16, lanes=2).region,
        ]
        for region in regions:
            assert region.pages == {}
            assert not hasattr(region, "data")


_PAGES = 4
_SPAN = _PAGES * C.PAGE_SIZE
_offsets = st.integers(min_value=0, max_value=_SPAN)
_accesses = st.one_of(
    st.tuples(st.just("write"), _offsets, st.binary(min_size=0, max_size=5000)),
    st.tuples(st.just("read"), _offsets, st.integers(min_value=0, max_value=5000)),
)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_accesses, min_size=1, max_size=25))
def test_property_sparse_region_matches_flat_reference(ops):
    """Random reads and writes (cross-page, unaligned, zero-length)
    match a flat bytearray."""
    region = SharedRegion(_SPAN, "sparse")
    model = bytearray(_SPAN)
    for kind, offset, arg in ops:
        if kind == "write":
            data = arg[: _SPAN - offset]
            region.write(offset, data)
            model[offset : offset + len(data)] = data
        else:
            length = min(arg, _SPAN - offset)
            assert bytes(region.read(offset, length)) == bytes(
                model[offset : offset + length]
            )
    assert len(region) == _SPAN
    assert bytes(region.read(0, _SPAN)) == bytes(model)


@settings(max_examples=40, deadline=None)
@given(
    cuts=st.lists(
        st.tuples(
            st.sampled_from(("munmap", "mprotect")),
            st.integers(min_value=0, max_value=_PAGES - 1),
            st.integers(min_value=1, max_value=2),
        ),
        min_size=1,
        max_size=4,
    ),
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=_SPAN - 1),
            st.binary(min_size=0, max_size=6000),
        ),
        max_size=12,
    ),
)
def test_property_split_mappings_share_one_sparse_region(cuts, writes):
    """munmap/mprotect split one anonymous mapping into pieces that share
    its sparse region; every surviving byte reads as a flat model says."""
    space = make_space()
    mapping = space.map(0x6000_0000, _SPAN, RW, fixed=True)
    base = mapping.start
    region = mapping.region
    model = bytearray(_SPAN)
    mapped = [True] * _PAGES
    for kind, page, count in cuts:
        addr = base + page * C.PAGE_SIZE
        length = count * C.PAGE_SIZE
        if kind == "munmap":
            space.unmap(addr, length)
            for index in range(page, min(page + count, _PAGES)):
                mapped[index] = False
        elif any(mapped[page : page + count]):
            space.protect(addr, length, RW)
    for piece in space.mappings():
        assert piece.region is region
    for offset, data in writes:
        data = data[: _SPAN - offset]
        first, last = offset // C.PAGE_SIZE, (offset + len(data) - 1) // C.PAGE_SIZE
        if data and all(mapped[first : last + 1]):
            space.write(base + offset, data)
            model[offset : offset + len(data)] = data
    for index in range(_PAGES):
        start = index * C.PAGE_SIZE
        if mapped[index]:
            assert space.read(base + start, C.PAGE_SIZE) == bytes(
                model[start : start + C.PAGE_SIZE]
            )
        else:
            with pytest.raises(MemoryFault):
                space.read(base + start, 1)
