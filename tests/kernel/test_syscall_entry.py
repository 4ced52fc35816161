"""The kernel's syscall-entry cost and the one ``Sleep`` that bills it."""

from repro.kernel import Kernel
from repro.kernel.syscalls import SyscallRequest
from repro.obs import Obs, ObsConfig


def _entry_ns(kernel, thread) -> int:
    """Virtual time one unknown syscall takes: the entry cost alone
    (the raw handler lookup answers -ENOSYS without sleeping)."""
    sim = kernel.sim
    start = sim.now

    def call():
        result = yield from kernel.syscall_path(
            thread, SyscallRequest("no_such_call")
        )
        return result

    assert sim.run_task(call()) < 0
    return sim.now - start


def test_entry_sleep_follows_attach_obs():
    kernel = Kernel()
    thread = kernel.create_thread(kernel.create_process("p"))
    base = kernel.config.costs.syscall_base_ns
    assert _entry_ns(kernel, thread) == base

    obs = Obs.create(ObsConfig(spans=True, flight_recorder=True), kernel.sim)
    kernel.attach_obs(obs)
    assert obs.dispatch_cost_ns > 0
    assert _entry_ns(kernel, thread) == base + obs.dispatch_cost_ns

    kernel.attach_obs(Obs.create(ObsConfig(), kernel.sim))
    assert _entry_ns(kernel, thread) == base
    kernel.attach_obs(obs)
    assert _entry_ns(kernel, thread) == base + obs.dispatch_cost_ns
    kernel.attach_obs(None)
    assert _entry_ns(kernel, thread) == base


def test_entry_sleep_is_shared_until_the_cost_changes():
    kernel = Kernel()
    thread = kernel.create_thread(kernel.create_process("p"))

    def first_effect():
        return next(kernel.syscall_path(thread, SyscallRequest("no_such_call")))

    shared = first_effect()
    assert shared is first_effect()
    assert (shared.ns, shared.cpu) == (kernel.config.costs.syscall_base_ns, True)
    kernel.attach_obs(Obs.create(ObsConfig(spans=True), kernel.sim))
    rebuilt = first_effect()
    assert rebuilt is not shared
    assert rebuilt.ns == shared.ns + kernel.obs.dispatch_cost_ns
