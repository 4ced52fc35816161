"""Memory-management system calls."""

from __future__ import annotations

from repro.kernel import constants as C
from repro.kernel import errno_codes as E
from repro.kernel.calls._helpers import get_entry
from repro.kernel.memory import MemoryFault, SharedRegion, page_align_up
from repro.kernel.syscalls import syscall
from repro.kernel.vfs import RegularFile


@syscall("mmap")
def sys_mmap(kernel, thread, addr, length, prot, flags, fd=-1, offset=0):
    space = thread.process.space
    if length <= 0:
        return -E.EINVAL
    fixed = bool(flags & C.MAP_FIXED)
    if flags & C.MAP_ANONYMOUS:
        region = None
        name = "anon"
        if flags & C.MAP_SHARED:
            region = SharedRegion(page_align_up(length), "anon-shared")
            name = "anon-shared"
        mapping = space.map(
            addr or None,
            length,
            prot,
            name=name,
            region=region,
            shared=bool(flags & C.MAP_SHARED),
            fixed=fixed,
        )
        return mapping.start
    # File-backed mapping
    entry, err = get_entry(thread, fd)
    if entry is None:
        return err
    node = entry.ofd.file
    if not isinstance(node, RegularFile):
        return -E.ENODEV
    if flags & C.MAP_SHARED:
        # Shared file mappings are rejected: the MVEE forbids them anyway
        # (paper §2.1) and private mappings cover the benchmarks.
        return -E.EINVAL
    region = SharedRegion(page_align_up(length), "file:%s" % node.name)
    region.write(0, node.pread(offset, length))
    mapping = space.map(
        addr or None,
        length,
        prot,
        name="file:%s" % node.name,
        region=region,
        fixed=fixed,
    )
    return mapping.start


@syscall("munmap")
def sys_munmap(kernel, thread, addr, length):
    if addr & C.PAGE_MASK or length <= 0:
        return -E.EINVAL
    thread.process.space.unmap(addr, length)
    return 0


@syscall("mprotect")
def sys_mprotect(kernel, thread, addr, length, prot):
    if addr & C.PAGE_MASK:
        return -E.EINVAL
    try:
        return thread.process.space.protect(addr, length, prot)
    except MemoryFault:
        return -E.ENOMEM


@syscall("mremap")
def sys_mremap(kernel, thread, old_addr, old_size, new_size, flags=0, new_addr=0):
    space = thread.process.space
    mapping = space.find_mapping(old_addr)
    if mapping is None or mapping.start != old_addr:
        return -E.EFAULT
    if new_size <= old_size:
        if new_size < old_size:
            space.unmap(old_addr + page_align_up(new_size), old_size - new_size)
        return old_addr
    # Grow: move to a fresh range, copying contents.
    old_data = space.read(old_addr, min(old_size, mapping.length), check_prot=False)
    prot = mapping.prot
    name = mapping.name
    space.unmap(old_addr, old_size)
    new_mapping = space.map(None, new_size, prot, name=name)
    space.write(new_mapping.start, old_data, check_prot=False)
    return new_mapping.start


@syscall("brk")
def sys_brk(kernel, thread, addr):
    return thread.process.space.brk(addr)


@syscall("madvise")
def sys_madvise(kernel, thread, addr, length, advice):
    return 0
