"""System-call requests and the handler registry.

Guest programs yield :class:`SyscallRequest` objects; the kernel looks
the name up in :data:`SYSCALL_TABLE` and drives the registered coroutine
handler. Handlers return non-negative results (ints or byte strings are
both allowed internally; the guest-facing convention is Linux's: ints,
with buffers written into guest memory) or ``-errno``.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, Optional, Tuple


class SyscallRequest:
    """One system-call invocation.

    Attributes:
        name: syscall name (e.g. ``"read"``).
        args: positional arguments, raw ABI values (ints / addresses).
        site: where the syscall instruction lives — ``"app"`` for normal
            application code, ``"ipmon"`` for calls (re)issued from
            IP-MON's system call entry point. IK-B's verifier checks this
            the way the real broker checks the caller's program counter.
        token: the one-time authorization token IK-B handed to IP-MON,
            still attached to the restarted call (or None).
    """

    __slots__ = ("name", "args", "site", "token", "bypass_agents")

    def __init__(
        self,
        name: str,
        args: Tuple = (),
        site: str = "app",
        token: Optional[int] = None,
    ):
        self.name = name
        self.args = tuple(args)
        self.site = site
        self.token = token
        #: Attack-scenario flag: the syscall instruction was an
        #: *unaligned gadget* that userspace rewriting (VARAN) never
        #: instrumented. Kernel-level interception (IK-B) ignores this.
        self.bypass_agents = False

    def arg(self, index: int, default=0):
        if index < len(self.args):
            return self.args[index]
        return default

    def replace(self, **kwargs) -> "SyscallRequest":
        fields = {
            "name": self.name,
            "args": self.args,
            "site": self.site,
            "token": self.token,
        }
        fields.update(kwargs)
        return SyscallRequest(**fields)

    def __repr__(self):
        return "SyscallRequest(%s%r, site=%s)" % (self.name, self.args, self.site)


#: name -> handler coroutine ``handler(kernel, thread, *args)``
SYSCALL_TABLE: Dict[str, Callable] = {}

#: Precompiled dispatch: name -> ``(handler, is_coroutine)``. The flag
#: is resolved once at registration (``inspect.isgeneratorfunction``),
#: so the kernel's per-call fast path needs one dict lookup and no
#: ``isinstance`` probe for coroutine handlers. Plain handlers keep a
#: runtime generator check because some delegate to coroutine helpers
#: via ``return _helper(...)``.
SYSCALL_DISPATCH: Dict[str, Tuple[Callable, bool]] = {}


def syscall(name: str):
    """Decorator registering a syscall handler under ``name``."""

    def register(fn):
        if name in SYSCALL_TABLE:
            raise ValueError("duplicate syscall handler: %s" % name)
        SYSCALL_TABLE[name] = fn
        SYSCALL_DISPATCH[name] = (fn, inspect.isgeneratorfunction(fn))
        return fn

    return register
