"""Tests for the discrete-event simulator core."""

import pytest

from repro.errors import SimulationError
from repro.sim import Event, Simulator, Sleep, Spawn, WaitEvent


def test_sleep_advances_virtual_time():
    sim = Simulator()

    def task():
        yield Sleep(100)
        yield Sleep(250)
        return sim.now

    assert sim.run_task(task()) == 350
    assert sim.now == 350


def test_every_sleep_is_one_step():
    sim = Simulator()

    def ticker():
        for _ in range(2000):
            yield Sleep(10)

    sim.spawn(ticker(), "t")
    sim.run()
    assert sim.steps >= 2000
    assert sim.now == 20_000


def test_tasks_interleave_deterministically():
    sim = Simulator()
    log = []

    def worker(name, delay):
        yield Sleep(delay)
        log.append((sim.now, name))

    sim.spawn(worker("b", 20), "b")
    sim.spawn(worker("a", 10), "a")
    sim.run()
    assert log == [(10, "a"), (20, "b")]


def test_event_wakes_all_waiters_with_value():
    sim = Simulator()
    event = Event("go")
    results = []

    def waiter():
        fired, value = yield WaitEvent(event)
        results.append((fired, value, sim.now))

    def firer():
        yield Sleep(50)
        sim.fire(event, "payload")

    sim.spawn(waiter(), "w1")
    sim.spawn(waiter(), "w2")
    sim.spawn(firer(), "f")
    sim.run()
    assert results == [(True, "payload", 50), (True, "payload", 50)]


def test_wait_on_already_fired_event_returns_immediately():
    sim = Simulator()
    event = Event("done")
    sim.fire(event, 42)

    def waiter():
        fired, value = yield WaitEvent(event)
        return fired, value, sim.now

    assert sim.run_task(waiter()) == (True, 42, 0)


def test_wait_timeout_loses_to_event():
    sim = Simulator()
    event = Event("never")

    def waiter():
        fired, value = yield WaitEvent(event, timeout_ns=75)
        return fired, value, sim.now

    assert sim.run_task(waiter()) == (False, None, 75)


def test_stale_timeout_does_not_rewake_task():
    sim = Simulator()
    event = Event("fast")
    wakeups = []

    def waiter():
        fired, _ = yield WaitEvent(event, timeout_ns=100)
        wakeups.append((sim.now, fired))
        yield Sleep(500)
        wakeups.append((sim.now, "slept"))

    def firer():
        yield Sleep(10)
        sim.fire(event)

    sim.spawn(waiter(), "w")
    sim.spawn(firer(), "f")
    sim.run()
    assert wakeups == [(10, True), (510, "slept")]


def test_spawn_effect_returns_task_handle():
    sim = Simulator()

    def child():
        yield Sleep(5)
        return "child-done"

    def parent():
        task = yield Spawn(child(), "child")
        fired, value = yield WaitEvent(task.done_event)
        return fired, value

    assert sim.run_task(parent()) == (True, "child-done")


def test_cpu_contention_stretches_compute():
    sim = Simulator(cores=2)
    finish_times = {}

    def burner(name):
        yield Sleep(1000, cpu=True)
        finish_times[name] = sim.now

    for i in range(4):
        sim.spawn(burner("t%d" % i), "t%d" % i)
    sim.run()
    # With 4 burners on 2 cores, at least some must take longer than 1000.
    assert max(finish_times.values()) > 1000


def test_no_contention_when_cores_suffice():
    sim = Simulator(cores=8)
    finish_times = {}

    def burner(name):
        yield Sleep(1000, cpu=True)
        finish_times[name] = sim.now

    for i in range(4):
        sim.spawn(burner("t%d" % i), "t%d" % i)
    sim.run()
    assert all(t == 1000 for t in finish_times.values())


def test_task_failure_is_captured_and_reraised():
    sim = Simulator()

    def bad():
        yield Sleep(1)
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        sim.run_task(bad())


def test_run_task_detects_deadlock():
    sim = Simulator()
    event = Event("never-fired")

    def stuck():
        yield WaitEvent(event)

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_task(stuck())


def test_yielding_non_effect_raises_inside_task():
    sim = Simulator()

    def confused():
        try:
            yield "not-an-effect"
        except SimulationError:
            return "caught"

    assert sim.run_task(confused()) == "caught"


def test_call_at_past_rejected():
    sim = Simulator()
    sim.now = 100
    with pytest.raises(SimulationError):
        sim.call_at(50, lambda: None)


def test_event_listener_runs_on_fire():
    sim = Simulator()
    seen = []
    event = Event("e")
    event.add_listener(seen.append)
    sim.fire(event, 7)
    assert seen == [7]
    # Listener registered after firing runs immediately.
    event.add_listener(seen.append)
    assert seen == [7, 7]


def test_run_until_stops_at_boundary():
    sim = Simulator()
    log = []

    def ticker():
        while True:
            yield Sleep(10)
            log.append(sim.now)

    sim.spawn(ticker(), "tick")
    sim.run(until=35)
    assert log == [10, 20, 30]
    assert sim.now == 35
