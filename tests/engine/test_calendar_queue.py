"""Properties of the calendar event queue (PR-8 engine refactor).

The load-bearing guarantee: the bucketed calendar queue dequeues
callbacks in *exactly* the same ``(when, seq)`` order as the single
binary heap it replaced — including same-timestamp bursts, callbacks
scheduled from inside callbacks, ``until`` boundaries, and ``max_steps``
interruptions. A reference heap model (the old engine's data structure,
verbatim) computes the expected order for arbitrary schedules.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Event, Simulator, Sleep, WaitEvent


# ---------------------------------------------------------------------------
# Reference model: the old single-heap engine's dequeue order
# ---------------------------------------------------------------------------
class HeapModel:
    """The pre-calendar queue: one heap ordered by ``(when, seq)``."""

    def __init__(self):
        self.now = 0
        self._queue = []
        self._seq = 0

    def call_at(self, when, fn, *args):
        assert when >= self.now
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, fn, args))

    def call_soon(self, fn, *args):
        self.call_at(self.now, fn, *args)

    def run(self, until=None):
        while self._queue:
            when, _seq, fn, args = self._queue[0]
            if until is not None and when > until:
                self.now = until
                break
        # (mirrors the old loop verbatim)
            heapq.heappop(self._queue)
            if when > self.now:
                self.now = when
            fn(*args)
        return self.now


#: A schedule is a list of initial (delay, burst) pairs; each burst
#: schedules that many tagged callbacks at now+delay, and each callback
#: may itself schedule a follow-up at a derived delay — exercising
#: mid-drain appends to the currently-draining bucket.
schedules = st.lists(
    st.tuples(st.integers(min_value=0, max_value=50),
              st.integers(min_value=1, max_value=4),
              st.integers(min_value=0, max_value=3)),
    min_size=1, max_size=30,
)


def _drive(engine, schedule, log):
    tag = 0

    def emit(t, chain_delay):
        nonlocal tag
        log.append((engine.now, t))
        if chain_delay:
            mine = tag
            tag += 1
            engine.call_at(engine.now + chain_delay, emit, 10_000 + mine, 0)

    for delay, burst, chain in schedule:
        for b in range(burst):
            mine = tag
            tag += 1
            engine.call_at(engine.now + delay, emit, mine, chain)


class TestDequeueOrderMatchesHeap:
    @given(schedule=schedules)
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_schedules_dequeue_in_heap_order(self, schedule):
        sim_log, ref_log = [], []
        sim = Simulator()
        _drive(sim, schedule, sim_log)
        sim.run()
        ref = HeapModel()
        _drive(ref, schedule, ref_log)
        ref.run()
        assert sim_log == ref_log
        assert sim.now == ref.now
        assert sim.pending == 0

    @given(schedule=schedules, until=st.integers(min_value=0, max_value=60))
    @settings(max_examples=200, deadline=None)
    def test_until_boundary_matches_heap(self, schedule, until):
        sim_log, ref_log = [], []
        sim = Simulator()
        _drive(sim, schedule, sim_log)
        sim.run(until=until)
        ref = HeapModel()
        _drive(ref, schedule, ref_log)
        ref.run(until=until)
        assert sim_log == ref_log
        assert sim.now == ref.now

    @given(schedule=schedules, budget=st.integers(min_value=1, max_value=20))
    @settings(max_examples=200, deadline=None)
    def test_max_steps_interrupt_preserves_prefix_and_resumability(
        self, schedule, budget
    ):
        """Tripping the step budget mid-bucket must execute exactly the
        first ``budget`` callbacks of the heap order, and a later run()
        must continue with the untouched tail."""
        sim_log, ref_log = [], []
        sim = Simulator()
        _drive(sim, schedule, sim_log)
        interrupted = False
        try:
            sim.run(max_steps=budget)
        except SimulationError:
            interrupted = True
        ref = HeapModel()
        _drive(ref, schedule, ref_log)
        ref.run()
        if interrupted:
            assert sim_log == ref_log[:budget]
            # The queue survives the interruption: draining the rest
            # yields the reference tail, in order.
            sim.run()
        assert sim_log == ref_log

    @given(
        delays=st.lists(st.integers(min_value=0, max_value=30),
                        min_size=1, max_size=20)
    )
    @settings(max_examples=100, deadline=None)
    def test_same_timestamp_burst_is_fifo(self, delays):
        """All callbacks landing on one timestamp run in submission
        (seq) order, even interleaved with other timestamps."""
        sim = Simulator()
        log = []
        for i, d in enumerate(delays):
            sim.call_at(d, log.append, (d, i))
        sim.run()
        assert log == sorted(log, key=lambda pair: (pair[0], pair[1]))


class TestPerCallStepBudget:
    def test_second_run_gets_a_fresh_budget(self):
        """max_steps budgets one run() call; it must not count callbacks
        executed by earlier calls (the old engine compared against the
        lifetime counter, so a second run tripped immediately)."""
        sim = Simulator()

        def ticker():
            while True:
                yield Sleep(10)

        sim.spawn(ticker(), "tick")
        sim.run(until=1_000, max_steps=500)
        executed = sim.steps
        assert executed > 100
        # Old behavior: this raised at once because lifetime steps
        # already exceeded the budget.
        sim.run(until=2_000, max_steps=500)
        assert sim.steps > executed

    def test_budget_still_trips_within_one_call(self):
        sim = Simulator()

        def ticker():
            while True:
                yield Sleep(10)

        sim.spawn(ticker(), "tick")
        with pytest.raises(SimulationError, match="exceeded 50 steps"):
            sim.run(max_steps=50)

    def test_lifetime_steps_counter_still_accumulates(self):
        sim = Simulator()

        def ticker(n):
            for _ in range(n):
                yield Sleep(10)

        sim.spawn(ticker(5), "a")
        sim.run()
        first = sim.steps
        sim.spawn(ticker(5), "b")
        sim.run()
        assert sim.steps > first


def _growing_bucket(engine, burst, growth, log):
    """``burst`` callbacks at t=5; each of the first ``growth`` of them
    appends one more at the same instant (so the bucket grows while it
    drains), and one callback lands later at t=9. Returns a one-item
    list counting the callbacks scheduled so far."""
    scheduled = [burst + 1]

    def emit(tag):
        log.append((engine.now, tag))
        if tag < growth:
            scheduled[0] += 1
            engine.call_soon(emit, 100 + tag)

    for tag in range(burst):
        engine.call_at(5, emit, tag)
    engine.call_at(9, emit, 1_000)
    return scheduled


class TestBudgetTripInGrowingBucket:
    """The drain loop iterates a bucket that grows while it drains; a
    step budget may trip anywhere in it. Each trip must have run exactly
    ``budget`` callbacks in heap order, count them in ``steps``, keep
    the unexecuted tail (appended entries included) runnable, and
    report it in ``pending``."""

    @given(
        burst=st.integers(min_value=1, max_value=12),
        growth=st.integers(min_value=0, max_value=12),
        budget=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=150, deadline=None)
    def test_sliced_runs_match_heap_order(self, burst, growth, budget):
        ref_log = []
        ref = HeapModel()
        _growing_bucket(ref, burst, growth, ref_log)
        ref.run()
        sim_log = []
        sim = Simulator()
        scheduled = _growing_bucket(sim, burst, growth, sim_log)
        trips = 0
        while True:
            before = sim.steps
            try:
                sim.run(max_steps=budget)
            except SimulationError:
                trips += 1
                assert sim.steps == before + budget
                assert sim_log == ref_log[: sim.steps]
                assert sim.pending == scheduled[0] - sim.steps
                continue
            break
        assert sim_log == ref_log
        assert sim.steps == len(ref_log)
        assert sim.pending == 0
        # A slice trips as soon as it has run ``budget`` callbacks, even
        # when that emptied the queue.
        assert trips == len(ref_log) // budget

    def test_failing_callback_mid_bucket_keeps_the_tail(self):
        """A callback that raises is not counted as a step; the entries
        after it, including ones appended during the drain, still run."""
        sim = Simulator()
        log = []

        def ok(tag):
            log.append(tag)
            if tag == 0:
                sim.call_soon(ok, "appended")

        def boom():
            raise RuntimeError("boom")

        sim.call_at(5, ok, 0)
        sim.call_at(5, boom)
        sim.call_at(5, ok, 1)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert log == [0] and sim.steps == 1 and sim.pending == 2
        sim.run()
        assert log == [0, 1, "appended"]
        assert sim.steps == 3 and sim.pending == 0


class TestBatchEventDrain:
    def test_storm_release_wakes_all_waiters_in_spawn_order(self):
        sim = Simulator()
        gate = Event("gate")
        order = []

        def waiter(i):
            fired, value = yield WaitEvent(gate)
            order.append((i, fired, value, sim.now))

        for i in range(64):
            sim.spawn(waiter(i), "w%d" % i)

        def firer():
            yield Sleep(100)
            sim.fire(gate, "go")

        sim.spawn(firer(), "f")
        sim.run()
        assert order == [(i, True, "go", 100) for i in range(64)]

    def test_waiter_scheduling_more_work_runs_after_remaining_waiters(self):
        """Work scheduled from inside a released waiter must run after
        the other waiters' releases — exactly as with per-waiter queue
        entries (the follow-up's seq is higher)."""
        sim = Simulator()
        gate = Event("gate")
        log = []

        def waiter(i):
            yield WaitEvent(gate)
            log.append(("woke", i))
            if i == 0:
                sim.call_soon(log.append, ("follow-up", i))

        for i in range(4):
            sim.spawn(waiter(i), "w%d" % i)
        sim.fire(gate)
        sim.run()
        assert log == [
            ("woke", 0), ("woke", 1), ("woke", 2), ("woke", 3),
            ("follow-up", 0),
        ]

    def test_stale_waiters_are_skipped_at_drain_time(self):
        """A waiter resumed by its timeout before the drain entry runs
        must not be resumed a second time by the event value."""
        sim = Simulator()
        gate = Event("gate")
        wakeups = []

        def racer():
            fired, value = yield WaitEvent(gate, timeout_ns=100)
            wakeups.append((sim.now, fired, value))
            yield Sleep(1_000)
            wakeups.append((sim.now, "alive"))

        def other():
            fired, _ = yield WaitEvent(gate)
            wakeups.append((sim.now, "other", fired))

        sim.spawn(racer(), "r")
        sim.spawn(other(), "o")

        def firer():
            yield Sleep(100)  # exactly the racer's timeout instant
            sim.fire(gate, "late")

        sim.spawn(firer(), "f")
        sim.run()
        # The racer saw exactly one resumption (timeout or event — the
        # earlier queue entry wins), then kept running normally.
        assert len(wakeups) == 3
        assert wakeups[-2] == (100, "other", True)
        assert wakeups[-1] == (1_100, "alive")
