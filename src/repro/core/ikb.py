"""IK-B: the in-kernel system-call broker (paper §3, §3.1, §3.5).

IK-B intercepts every system call of a registered replica and routes it:
calls in the registered unmonitored set are forwarded to IP-MON's entry
point with a fresh one-time 64-bit authorization token; everything else
falls through to the ptrace path and lands in GHUMVEE.

The *verifier* half enforces the security contract: an unmonitored call
may only complete if it is restarted from within IP-MON with the token
intact; a wrong or missing token, a different syscall than the one the
token was granted for, or a restart not originating at IP-MON's entry
point all revoke the token and force the call to GHUMVEE. This is the
CFI-like property of §3.1.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.kernel import errno_codes as E
from repro.kernel.syscalls import SyscallRequest, syscall
from repro.sim import Sleep


class IpmonRegistration:
    """The state established by the ipmon_register syscall (§3.5)."""

    __slots__ = ("process", "unmonitored", "replica", "rb_base", "entry_point")

    def __init__(self, process, unmonitored, replica, rb_base, entry_point):
        self.process = process
        self.unmonitored = frozenset(unmonitored)
        self.replica = replica  # the IpmonReplica instance
        self.rb_base = rb_base  # hidden pointer, kept in "kernel memory"
        self.entry_point = entry_point


class InKernelBroker:
    """Kernel hook implementing the IK-B interceptor and verifier."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.registrations: Dict[int, IpmonRegistration] = {}
        # One-time tokens per thread tid: (token_value, syscall_name).
        self._outstanding: Dict[int, Tuple[int, str]] = {}
        self.stats = {
            "forwarded_to_ipmon": 0,
            "forwarded_to_monitor": 0,
            "tokens_issued": 0,
            "tokens_revoked": 0,
            "tokens_lost": 0,
            "tokens_reissued": 0,
            "verification_failures": 0,
        }
        #: The reroute cost every forwarded call pays (effects are
        #: immutable values, so one instance serves every call).
        self._forward_sleep = Sleep(kernel.config.costs.ikb_forward_ns, cpu=True)
        kernel.ikb = self

    # ------------------------------------------------------------------
    # Registration (invoked via the ipmon_register syscall handler)
    # ------------------------------------------------------------------
    def register(self, process, unmonitored, replica, rb_base, entry_point) -> None:
        self.registrations[process.pid] = IpmonRegistration(
            process, unmonitored, replica, rb_base, entry_point
        )

    def unregister(self, process) -> None:
        self.registrations.pop(process.pid, None)

    def registration_for(self, process) -> Optional[IpmonRegistration]:
        return self.registrations.get(process.pid)

    # ------------------------------------------------------------------
    # Interceptor: installed as a kernel syscall hook
    # ------------------------------------------------------------------
    def intercept(self, thread, req: SyscallRequest):
        registration = self.registrations.get(thread.process.pid)
        if registration is None:
            return None  # not a ReMon replica (or IP-MON not registered)
        if req.site == "ipmon":
            # A raw syscall claiming to come from IP-MON arrived through
            # the normal path: it was not dispatched by this broker, so
            # any token it carries cannot be outstanding. Verify (and
            # fail) so the attempt is forced to the monitor.
            ok = self._check_token(thread, req)
            if not ok:
                self.stats["verification_failures"] += 1
                return self._monitor_path(thread, req)
            return None
        if req.name not in registration.unmonitored:
            return None  # monitored call: fall through to ptrace/GHUMVEE
        return self._forward_to_ipmon(thread, req, registration)

    def _forward_to_ipmon(self, thread, req, registration):
        costs = self.kernel.config.costs
        token = self.kernel.random_u64()
        injector = self.kernel.fault_injector
        if injector is not None and injector.steal_token(thread, req):
            # Fault injection: the token is issued but never recorded as
            # outstanding, so IP-MON's restart will fail verification.
            self.stats["tokens_lost"] += 1
        else:
            self._outstanding[thread.tid] = (token, req.name)
        self.stats["tokens_issued"] += 1
        self.stats["forwarded_to_ipmon"] += 1
        obs = self.kernel.obs
        if obs is not None and obs.tracer.enabled:
            obs.tracer.instant(
                "ikb", "route-ipmon", syscall=req.name, vtid=thread.vtid,
                replica=thread.process.replica_index,
            )
            yield Sleep(costs.ikb_forward_ns + obs.span_cost_ns, cpu=True)
        else:
            yield self._forward_sleep
        # Overwrite the "program counter": re-enter userspace at IP-MON's
        # syscall entry point, with the token and RB pointer in reserved
        # registers (modelled as call arguments that never touch guest
        # memory).
        result = yield from registration.entry_point(
            thread, req, token, registration.rb_base
        )
        self._outstanding.pop(thread.tid, None)
        return result

    # ------------------------------------------------------------------
    # Verifier: IP-MON restarts the call into this path
    # ------------------------------------------------------------------
    def restart_call(self, thread, req: SyscallRequest):
        """Coroutine: kernel re-entry for a call restarted by IP-MON.

        Returns ``(True, result)`` if the token verified and the call
        executed unmonitored, or ``(False, None)`` if verification
        failed (caller must take the monitored path).
        """
        if not self._check_token(thread, req):
            self.stats["verification_failures"] += 1
            self.stats["tokens_revoked"] += 1
            self._outstanding.pop(thread.tid, None)
            return False, None
        self._outstanding.pop(thread.tid, None)  # single use
        result = yield from self.kernel.invoke(thread, req)
        return True, result

    def _check_token(self, thread, req) -> bool:
        outstanding = self._outstanding.get(thread.tid)
        if outstanding is None:
            return False
        token, name = outstanding
        if req.token != token:
            return False
        if req.name != name:
            return False  # a *different* syscall than authorized
        if req.site != "ipmon":
            return False  # restart did not originate inside IP-MON
        return True

    def revoke_token(self, thread) -> None:
        """IP-MON destroys its token (MAYBE_CHECKED forwarding, §3.3)."""
        if self._outstanding.pop(thread.tid, None) is not None:
            self.stats["tokens_revoked"] += 1

    def has_outstanding(self, thread) -> bool:
        return thread.tid in self._outstanding

    def reissue_token(self, thread, req) -> int:
        """Re-issue a fresh token for an in-flight IP-MON call.

        Only reachable from inside IP-MON's entry point while a
        :class:`~repro.core.policies.DegradationPolicy` permits it: a
        benign token loss then costs one retry instead of a forwarded
        call. The verifier contract is otherwise unchanged — the new
        token is single-use and bound to the same syscall name.
        """
        token = self.kernel.random_u64()
        self._outstanding[thread.tid] = (token, req.name)
        self.stats["tokens_reissued"] += 1
        return token

    # ------------------------------------------------------------------
    # Monitored path
    # ------------------------------------------------------------------
    def _monitor_path(self, thread, req):
        result = yield from self.route_to_monitor(thread, req)
        return result

    def route_to_monitor(self, thread, req: SyscallRequest):
        """Coroutine: revoke any token and hand the call to GHUMVEE."""
        self.revoke_token(thread)
        self.stats["forwarded_to_monitor"] += 1
        obs = self.kernel.obs
        if obs is not None and obs.tracer.enabled:
            obs.tracer.instant(
                "ikb", "route-monitor", syscall=req.name, vtid=thread.vtid,
                replica=thread.process.replica_index,
            )
        clean = req.replace(site="app", token=None)
        result = yield from self.kernel.traced_invoke(thread, clean)
        return result


# ---------------------------------------------------------------------------
# The registration syscall IK-B adds to the kernel (paper §3.5). It is
# always monitored: the kernel reports it to GHUMVEE (via the normal
# ptrace path), which arbitrates before the broker records anything.
# ---------------------------------------------------------------------------
@syscall("ipmon_register")
def sys_ipmon_register(kernel, thread, unmonitored=None, rb_ptr=0, entry_point=None):
    broker = kernel.ikb
    if broker is None:
        return -E.ENOSYS
    replica = thread.process.ipmon_replica
    if replica is None or entry_point is None:
        return -E.EINVAL
    if not rb_ptr or not thread.process.space.is_mapped(rb_ptr):
        return -E.EFAULT  # the RB pointer must point at a writable region
    broker.register(
        thread.process, unmonitored or frozenset(), replica, rb_ptr, entry_point
    )
    return 0
