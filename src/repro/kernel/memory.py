"""Byte-backed virtual address spaces for simulated processes.

Every replica owns a real :class:`AddressSpace`: buffers passed to system
calls are genuine virtual addresses into these spaces, so ASLR actually
moves data around, pointer arguments differ between replicas, and the
monitors must do the same deep copies the paper's monitors do.

Shared mappings (``MAP_SHARED``, System V shm — including IP-MON's
replication buffer) reference a common :class:`SharedRegion`, so a write
through one replica's mapping is visible through every other mapping of
the same region, at whatever (different) virtual address each replica
mapped it.

Every region is page-on-write: it holds no bytes until a page is first
written, and an untouched page reads as zeros. A guest that maps a 1 MiB
malloc arena and touches two pages of it costs two pages of host memory,
and a 16 MiB replication buffer costs only the front of the lanes in use.
"""

from __future__ import annotations

import bisect
from typing import List, Optional

from repro.errors import KernelError
from repro.kernel.constants import (
    PAGE_MASK,
    PAGE_SIZE,
    PROT_EXEC,
    PROT_READ,
    PROT_WRITE,
)


_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1


def page_align_down(addr: int) -> int:
    return addr & ~PAGE_MASK


def page_align_up(addr: int) -> int:
    return (addr + PAGE_MASK) & ~PAGE_MASK


class MemoryFault(Exception):
    """An access touched unmapped memory or violated page protections.

    The guest runtime converts this into a simulated SIGSEGV.
    """

    def __init__(self, addr: int, access: str, reason: str):
        super().__init__("%s fault at 0x%x: %s" % (access, addr, reason))
        self.addr = addr
        self.access = access
        self.reason = reason


class SharedRegion:
    """Backing store shared by multiple mappings (possibly cross-process).

    A region keeps only the pages written so far, in ``pages``;
    :meth:`read` and :meth:`write` are the only way to its bytes.
    """

    __slots__ = ("pages", "length", "name", "attach_count")

    def __init__(self, length: int, name: str = "shared"):
        self.length = length
        self.name = name
        self.attach_count = 0
        #: Page index -> PAGE_SIZE bytearray, for written pages only.
        self.pages = {}

    def __len__(self):
        return self.length

    def read(self, offset: int, length: int):
        """``length`` bytes at ``offset``; untouched pages read as zeros."""
        pages = self.pages
        start = offset & PAGE_MASK
        if start + length <= PAGE_SIZE:
            page = pages.get(offset >> _PAGE_SHIFT)
            return bytes(length) if page is None else page[start : start + length]
        out = bytearray()
        end = offset + length
        while offset < end:
            index, start = divmod(offset, PAGE_SIZE)
            take = min(PAGE_SIZE - start, end - offset)
            page = pages.get(index)
            out += bytes(take) if page is None else page[start : start + take]
            offset += take
        return out

    def write(self, offset: int, data) -> None:
        """Store ``data`` at ``offset``, creating pages on first write."""
        pages = self.pages
        start = offset & PAGE_MASK
        if 0 < len(data) <= PAGE_SIZE - start:
            index = offset >> _PAGE_SHIFT
            page = pages.get(index)
            if page is None:
                page = pages[index] = bytearray(PAGE_SIZE)
            page[start : start + len(data)] = data
            return
        consumed = 0
        remaining = len(data)
        while remaining > 0:
            index, start = divmod(offset, PAGE_SIZE)
            take = min(PAGE_SIZE - start, remaining)
            page = pages.get(index)
            if page is None:
                page = pages[index] = bytearray(PAGE_SIZE)
            page[start : start + take] = data[consumed : consumed + take]
            offset += take
            consumed += take
            remaining -= take


class Mapping:
    """One contiguous mapped region of an address space."""

    __slots__ = ("start", "length", "prot", "name", "region", "region_offset", "shared")

    def __init__(
        self,
        start: int,
        length: int,
        prot: int,
        name: str,
        region: SharedRegion,
        region_offset: int = 0,
        shared: bool = False,
    ):
        self.start = start
        self.length = length
        self.prot = prot
        self.name = name
        self.region = region
        self.region_offset = region_offset
        self.shared = shared

    @property
    def end(self) -> int:
        return self.start + self.length

    def __repr__(self):
        return "%012x-%012x %s %s" % (
            self.start,
            self.end,
            prot_str(self.prot),
            self.name,
        )


def prot_str(prot: int) -> str:
    return (
        ("r" if prot & PROT_READ else "-")
        + ("w" if prot & PROT_WRITE else "-")
        + ("x" if prot & PROT_EXEC else "-")
        + "p"
    )


class AddressSpace:
    """A sparse 47-bit virtual address space backed by page-on-write regions.

    Args:
        mmap_base: top of the mmap allocation area; fresh anonymous
            mappings are placed downward from here. Diversified replicas
            get different bases from :mod:`repro.diversity.aslr`.
        brk_base: start of the heap grown by ``brk``.
    """

    ADDR_LIMIT = 1 << 47

    def __init__(self, mmap_base: int, brk_base: int, name: str = "as"):
        if mmap_base & PAGE_MASK or brk_base & PAGE_MASK:
            raise KernelError("address space bases must be page aligned")
        self.name = name
        self.mmap_base = mmap_base
        self.brk_base = brk_base
        self.brk_current = brk_base
        self._mappings: List[Mapping] = []  # sorted by start
        self._starts: List[int] = []
        self._mmap_hint = mmap_base

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def find_mapping(self, addr: int) -> Optional[Mapping]:
        """Return the mapping containing ``addr``, or None."""
        idx = bisect.bisect_right(self._starts, addr) - 1
        if idx >= 0:
            mapping = self._mappings[idx]
            # The bisect already guarantees mapping.start <= addr.
            if addr < mapping.start + mapping.length:
                return mapping
        return None

    def mappings(self) -> List[Mapping]:
        """All mappings, sorted by start address."""
        return list(self._mappings)

    def maps_text(self) -> str:
        """Render the /proc/<pid>/maps view of this address space."""
        return "\n".join(repr(m) for m in self._mappings) + "\n"

    # ------------------------------------------------------------------
    # Mapping management
    # ------------------------------------------------------------------
    def _insert(self, mapping: Mapping) -> None:
        idx = bisect.bisect_left(self._starts, mapping.start)
        self._mappings.insert(idx, mapping)
        self._starts.insert(idx, mapping.start)
        mapping.region.attach_count += 1

    def _remove(self, mapping: Mapping) -> None:
        idx = self._starts.index(mapping.start)
        del self._mappings[idx]
        del self._starts[idx]
        mapping.region.attach_count -= 1

    def _overlaps(self, start: int, length: int) -> List[Mapping]:
        end = start + length
        out = []
        idx = bisect.bisect_right(self._starts, start) - 1
        if idx < 0:
            idx = 0
        for mapping in self._mappings[idx:]:
            if mapping.start >= end:
                break
            if mapping.end > start:
                out.append(mapping)
        return out

    def find_free(self, length: int) -> int:
        """Find a free region of ``length`` bytes, searching downward from
        the mmap base (mimicking Linux's top-down mmap layout)."""
        length = page_align_up(length)
        candidate = self._mmap_hint - length
        while candidate > 0:
            hits = self._overlaps(candidate, length)
            if not hits:
                self._mmap_hint = candidate
                return candidate
            candidate = page_align_down(min(m.start for m in hits) - length)
        raise KernelError("address space exhausted in %s" % self.name)

    def map(
        self,
        addr: Optional[int],
        length: int,
        prot: int,
        name: str = "anon",
        region: Optional[SharedRegion] = None,
        region_offset: int = 0,
        shared: bool = False,
        fixed: bool = False,
    ) -> Mapping:
        """Create a mapping and return it.

        With ``fixed`` true, any overlapping mappings are clobbered
        (MAP_FIXED semantics); otherwise ``addr`` is only a hint and a
        free range is chosen when it is absent or unusable.
        """
        if length <= 0:
            raise KernelError("mapping length must be positive")
        length = page_align_up(length)
        if addr is not None:
            addr = page_align_down(addr)
        if fixed:
            if addr is None:
                raise KernelError("MAP_FIXED requires an address")
            for victim in self._overlaps(addr, length):
                self._unmap_range_from(victim, addr, length)
        elif addr is None or self._overlaps(addr, length):
            addr = self.find_free(length)
        if region is None:
            region = SharedRegion(length, name)
        mapping = Mapping(addr, length, prot, name, region, region_offset, shared)
        self._insert(mapping)
        return mapping

    def unmap(self, addr: int, length: int) -> None:
        """Remove mappings in [addr, addr+length), splitting at the edges."""
        addr = page_align_down(addr)
        length = page_align_up(length)
        for victim in self._overlaps(addr, length):
            self._unmap_range_from(victim, addr, length)

    def _unmap_range_from(self, mapping: Mapping, addr: int, length: int) -> None:
        end = addr + length
        self._remove(mapping)
        # Left remainder
        if mapping.start < addr:
            left_len = addr - mapping.start
            self._insert(
                Mapping(
                    mapping.start,
                    left_len,
                    mapping.prot,
                    mapping.name,
                    mapping.region,
                    mapping.region_offset,
                    mapping.shared,
                )
            )
        # Right remainder
        if mapping.end > end:
            right_len = mapping.end - end
            self._insert(
                Mapping(
                    end,
                    right_len,
                    mapping.prot,
                    mapping.name,
                    mapping.region,
                    mapping.region_offset + (end - mapping.start),
                    mapping.shared,
                )
            )

    def protect(self, addr: int, length: int, prot: int) -> int:
        """Change protections on [addr, addr+length); returns 0 or raises."""
        addr = page_align_down(addr)
        length = page_align_up(length)
        victims = self._overlaps(addr, length)
        if not victims:
            raise MemoryFault(addr, "mprotect", "no mapping in range")
        end = addr + length
        for mapping in victims:
            if mapping.start >= addr and mapping.end <= end:
                mapping.prot = prot
                continue
            # Split: carve out the protected part.
            lo = max(mapping.start, addr)
            hi = min(mapping.end, end)
            self._remove(mapping)
            pieces = []
            if mapping.start < lo:
                pieces.append((mapping.start, lo - mapping.start, mapping.prot))
            pieces.append((lo, hi - lo, prot))
            if mapping.end > hi:
                pieces.append((hi, mapping.end - hi, mapping.prot))
            for start, plen, pprot in pieces:
                self._insert(
                    Mapping(
                        start,
                        plen,
                        pprot,
                        mapping.name,
                        mapping.region,
                        mapping.region_offset + (start - mapping.start),
                        mapping.shared,
                    )
                )
        return 0

    def brk(self, new_brk: int) -> int:
        """Grow or shrink the heap; returns the (possibly unchanged) brk."""
        if new_brk <= self.brk_base:
            return self.brk_current
        new_brk = page_align_up(new_brk)
        if new_brk > self.brk_current:
            length = new_brk - self.brk_current
            if self._overlaps(self.brk_current, length):
                return self.brk_current
            self.map(
                self.brk_current,
                length,
                PROT_READ | PROT_WRITE,
                name="[heap]",
                fixed=True,
            )
        self.brk_current = new_brk
        return self.brk_current

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def read(self, addr: int, length: int, check_prot: bool = True) -> bytes:
        """Read ``length`` bytes at ``addr`` (gathering across contiguous
        mappings). Raises :class:`MemoryFault` on a hole or a PROT_NONE
        page when ``check_prot`` is set."""
        if length <= 0:
            return b""
        mapping = self.find_mapping(addr)
        if (
            mapping is not None
            and addr + length <= mapping.start + mapping.length
            and (not check_prot or mapping.prot & PROT_READ)
        ):
            # Inside one readable mapping: no chunk list, no join.
            return bytes(mapping.region.read(
                mapping.region_offset + (addr - mapping.start), length
            ))
        chunks = []
        cursor = addr
        remaining = length
        while remaining > 0:
            mapping = self.find_mapping(cursor)
            if mapping is None:
                raise MemoryFault(cursor, "read", "unmapped address")
            if check_prot and not mapping.prot & PROT_READ:
                raise MemoryFault(cursor, "read", "page not readable")
            offset = mapping.region_offset + (cursor - mapping.start)
            take = min(remaining, mapping.start + mapping.length - cursor)
            chunks.append(mapping.region.read(offset, take))
            cursor += take
            remaining -= take
        return b"".join(chunks)

    def write(self, addr: int, data: bytes, check_prot: bool = True) -> None:
        """Write ``data`` at ``addr``; raises :class:`MemoryFault` on a
        hole or a read-only page when ``check_prot`` is set."""
        if not data:
            return
        mapping = self.find_mapping(addr)
        if (
            mapping is not None
            and addr + len(data) <= mapping.start + mapping.length
            and (not check_prot or mapping.prot & PROT_WRITE)
        ):
            # Inside one writable mapping: store ``data`` directly (a
            # snapshot copy only when it is not immutable ``bytes``).
            mapping.region.write(
                mapping.region_offset + (addr - mapping.start),
                data if type(data) is bytes else bytes(data),
            )
            return
        cursor = addr
        view = memoryview(bytes(data))
        remaining = len(view)
        consumed = 0
        while remaining > 0:
            mapping = self.find_mapping(cursor)
            if mapping is None:
                raise MemoryFault(cursor, "write", "unmapped address")
            if check_prot and not mapping.prot & PROT_WRITE:
                raise MemoryFault(cursor, "write", "page not writable")
            offset = mapping.region_offset + (cursor - mapping.start)
            take = min(remaining, mapping.start + mapping.length - cursor)
            mapping.region.write(offset, view[consumed : consumed + take])
            cursor += take
            remaining -= take
            consumed += take

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, (value & (1 << 64) - 1).to_bytes(8, "little"))

    def read_u32(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 4), "little")

    def write_u32(self, addr: int, value: int) -> None:
        self.write(addr, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def read_cstr(self, addr: int, maxlen: int = 4096) -> bytes:
        """Read a NUL-terminated string (without the terminator).

        Like ``strncpy_from_user``, faults only when the cursor itself
        is unmapped or unreadable: each 64-byte chunk stops at the end
        of the current mapping, so a string that ends just before a
        hole reads cleanly.
        """
        out = bytearray()
        cursor = addr
        while len(out) < maxlen:
            mapping = self.find_mapping(cursor)
            if mapping is None:
                raise MemoryFault(cursor, "read", "unmapped address")
            take = min(64, maxlen - len(out),
                       mapping.start + mapping.length - cursor)
            chunk = self.read(cursor, take)
            nul = chunk.find(b"\x00")
            if nul >= 0:
                out += chunk[:nul]
                return bytes(out)
            out += chunk
            cursor += len(chunk)
        return bytes(out)

    def is_mapped(self, addr: int, length: int = 1) -> bool:
        """True when every byte of [addr, addr+length) is mapped."""
        cursor = addr
        end = addr + max(1, length)
        while cursor < end:
            mapping = self.find_mapping(cursor)
            if mapping is None:
                return False
            cursor = mapping.end
        return True
