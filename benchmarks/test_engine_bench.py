"""Event-engine host-speed checks (repro.sim; DESIGN.md §11).

Both checks time the host, so they live here rather than in the
deterministic tier-1 suite:

* the storm microbench: one rendezvous-storm program run on
  :class:`LegacyHeapSimulator` (the pre-calendar-queue engine, kept in
  this file as the reference) and on :class:`repro.sim.Simulator`,
  scored in task resumptions per host second. The calendar queue must
  win by at least 2x;
* a 64-node x 32-thread DistMvee run, which must finish inside a
  generous host-time budget.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_engine_bench.py``.
"""

import heapq
import time
from typing import Any, Callable, Iterator, Optional

from repro.core import DegradationPolicy, Level, ReMonConfig
from repro.dist import DistConfig, DistMvee
from repro.errors import SimulationError
from repro.sim import Event, Simulator, Sleep, WaitEvent
from repro.workloads.synthetic import CategoryMix, SyntheticWorkload, build_program

#: Storm shape: WAITERS tasks rendezvous on a fresh gate each round.
STORM_WAITERS = 256
STORM_ROUNDS = 200


class LegacyHeapSimulator:
    """The seed engine, condensed: one ``(when, seq, fn, args)`` heap,
    a fresh closure per sleep/timeout, isinstance effect dispatch. Kept
    verbatim so the storm check measures the calendar queue against its
    real predecessor instead of a guess."""

    def __init__(self, cores: int = 16):
        self.cores = cores
        self.now = 0
        self._queue: list = []
        self._seq = 0
        self._cpu_active = 0
        self.steps = 0

    def call_at(self, when: int, fn: Callable, *args) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, fn, args))

    def call_soon(self, fn: Callable, *args) -> None:
        self.call_at(self.now, fn, *args)

    def spawn(self, gen: Iterator, name: str = "task"):
        task = _LegacyTask(gen, name)
        self.call_soon(self._step, task, None, None)
        return task

    def fire(self, event: Event, value: Any = None) -> None:
        if event.fired:
            return
        event.fired = True
        event.value = value
        waiters, event._waiters = event._waiters, []
        for task, epoch in waiters:
            if task._wait_epoch == epoch and not task.done:
                self.call_soon(self._step, task, (True, value), None)

    def run(self, until: Optional[int] = None) -> int:
        while self._queue:
            when, _seq, fn, args = self._queue[0]
            if until is not None and when > until:
                self.now = until
                break
            heapq.heappop(self._queue)
            if when > self.now:
                self.now = when
            fn(*args)
            self.steps += 1
        return self.now

    def _step(self, task, send_value, throw_exc) -> None:
        if task.done:
            return
        task._wait_epoch += 1
        try:
            if throw_exc is not None:
                item = task.gen.throw(throw_exc)
            else:
                item = task.gen.send(send_value)
        except StopIteration:
            task.done = True
            return
        if isinstance(item, Sleep):
            self._do_sleep(task, item)
        elif isinstance(item, WaitEvent):
            self._do_wait(task, item)
        else:
            raise SimulationError("legacy bench engine: unsupported %r" % item)

    def _do_sleep(self, task, item: Sleep) -> None:
        if item.cpu:
            self._cpu_active += 1
            factor = max(1.0, self._cpu_active / float(self.cores))
            ns = int(item.ns * factor)

            def _wake_cpu():
                self._cpu_active -= 1
                self._step(task, None, None)

            self.call_at(self.now + ns, _wake_cpu)
        else:
            def _wake():
                self._step(task, None, None)

            self.call_at(self.now + item.ns, _wake)

    def _do_wait(self, task, item: WaitEvent) -> None:
        event = item.event
        if event.fired:
            self.call_soon(self._step, task, (True, event.value), None)
            return
        event._waiters.append((task, task._wait_epoch))
        if item.timeout_ns is not None:
            epoch = task._wait_epoch

            def _timeout():
                if task._wait_epoch == epoch and not task.done:
                    self._step(task, (False, None), None)

            self.call_at(self.now + item.timeout_ns, _timeout)


class _LegacyTask:
    def __init__(self, gen: Iterator, name: str):
        self.gen = gen
        self.name = name
        self.done = False
        self._wait_epoch = 0


def _storm(sim):
    """Each round every waiter blocks on a shared gate; a coordinator
    burns cpu then fires it, releasing all of them at one virtual
    instant (the shape GHUMVEE barriers and shard rendezvous make)."""
    gates = [Event("round-%d" % r) for r in range(STORM_ROUNDS)]

    def waiter(i):
        for r in range(STORM_ROUNDS):
            yield WaitEvent(gates[r])
            yield Sleep(50 + (i & 7), cpu=(r & 1) == 0)

    def coordinator():
        for r in range(STORM_ROUNDS):
            yield Sleep(1_000, cpu=True)
            sim.fire(gates[r], r)

    for i in range(STORM_WAITERS):
        sim.spawn(waiter(i), "w%d" % i)
    sim.spawn(coordinator(), "coord")


def _best_storm(engine_factory, repeats=3):
    """Best-of-``repeats`` host seconds (fresh engine each time) and the
    final virtual clock."""
    best = None
    for _ in range(repeats):
        sim = engine_factory()
        _storm(sim)
        start = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, sim.now


def test_storm_microbench_2x(report):
    legacy_s, legacy_now = _best_storm(LegacyHeapSimulator)
    current_s, current_now = _best_storm(Simulator)
    speedup = legacy_s / current_s
    report("rendezvous storm (%d waiters x %d rounds): legacy heap %.4f s, "
           "calendar queue %.4f s, %.2fx"
           % (STORM_WAITERS, STORM_ROUNDS, legacy_s, current_s, speedup))
    # Both engines executed the identical virtual program.
    assert current_now == legacy_now
    assert speedup >= 2.0


def test_sweep_64_nodes_32_threads(report):
    rate = 30_000.0
    workload = SyntheticWorkload(
        name="sweep-64x32", native_ms=0.5, threads=32,
        mix=CategoryMix({"base": rate * 0.4, "file_ro": rate * 0.35,
                         "sock_ro": rate * 0.1, "sock_rw": rate * 0.05,
                         "mgmt": rate * 0.1}),
    )
    config = ReMonConfig(
        replicas=64, level=Level.NO_IPMON,
        degradation=DegradationPolicy(min_quorum=33),
        dist=DistConfig(link_latency_ns=50_000),
    )
    mvee = DistMvee(build_program(workload), config)
    start = time.perf_counter()
    result = mvee.run(max_steps=400_000_000)
    host_s = time.perf_counter() - start
    report("DistMvee 64 nodes x 32 threads: %.2f host s, %.3f virtual ms, "
           "%d sim steps" % (host_s, result.wall_time_ns / 1e6, mvee.sim.steps))
    assert not result.diverged, result.divergence
    assert result.exit_codes == [0] * 64
    # A generous ceiling so a loaded runner passes, while an engine
    # regression to pre-refactor speed on these 2048 lanes still fails.
    assert host_s < 120
