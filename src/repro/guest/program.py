"""Program model and guest execution context."""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.guest.libc import Libc
from repro.kernel import constants as C
from repro.kernel.syscalls import SyscallRequest


class Compute:
    """``ns`` nanoseconds of CPU-bound work between system calls."""

    __slots__ = ("ns",)

    def __init__(self, ns: int):
        if ns < 0:
            raise ValueError("negative compute time")
        self.ns = int(ns)

    def __repr__(self):
        return "Compute(%d ns)" % self.ns


class SyscallProxy:
    """Builds :class:`SyscallRequest` objects via attribute access.

    ``ctx.sys.read(fd, buf, n)`` returns a request the guest then yields.
    The first lookup of a name caches its builder on the class, so every
    later ``ctx.sys.<name>`` is a plain class-attribute load.
    """

    __slots__ = ()

    def __getattr__(self, name: str) -> Callable:
        def build(*args) -> SyscallRequest:
            return SyscallRequest(name, args)

        build.__name__ = name
        if not name.startswith("__"):
            # Dunder names stay uncached: setting one on the class could
            # install a special method.
            setattr(SyscallProxy, name, staticmethod(build))
        return build


class GuestContext:
    """Everything a guest thread can touch: its memory, a libc, an RNG.

    The RNG is seeded identically in every replica of the same program,
    so replicas make identical decisions; only their memory layout
    differs (and, under attack scenarios, their corrupted state).
    """

    def __init__(self, kernel, process, thread, program: "Program", layout=None):
        self.kernel = kernel
        self.process = process
        self.thread = thread
        self.program = program
        self.layout = layout
        self.sys = SyscallProxy()
        self.mem = process.space
        self.rng = random.Random(program.seed)
        self.libc = Libc(self)
        #: Hook installed by the MVEE's record/replay agent; guests call
        #: ``yield from ctx.sync_point(op)`` around user-space sync ops.
        self.rr_agent = None
        #: Scratch for attack scenarios: set by exploit payloads.
        self.attacker_state = {}

    def sync_point(self, op_key):
        """Coroutine: a user-space synchronization operation boundary.

        Under an MVEE the record/replay agent (paper §2.3) serializes
        these identically in all replicas; natively it is free.
        """
        if self.rr_agent is not None:
            yield from self.rr_agent.sync_point(self, op_key)
        return None

    def spawn_thread(self, entry: Callable, arg=None) -> SyscallRequest:
        """Build the clone() request used to start a new guest thread.

        ``entry(ctx, arg)`` must return the new thread's body generator.
        """
        return SyscallRequest("clone", (C.CLONE_THREAD_FLAGS, entry, arg))


class Program:
    """A runnable guest program.

    Args:
        name: label used for processes and traces.
        main: callable ``main(ctx)`` returning the main thread's body
            generator.
        seed: deterministic seed shared by all replicas of this program.
        files: optional mapping path -> bytes installed into the
            filesystem before the program starts.
    """

    #: How strongly co-running replicas' memory pressure slows this
    #: program (workloads set it; see ``CostModel``).
    cache_sensitivity = 1.0

    def __init__(
        self,
        name: str,
        main: Callable,
        seed: int = 1,
        files: Optional[dict] = None,
    ):
        self.name = name
        self.main = main
        self.seed = seed
        self.files = dict(files or {})

    def install_files(self, kernel) -> None:
        for path, data in self.files.items():
            kernel.fs.write_file(path, data)

    def __repr__(self):
        return "Program(%s)" % self.name
