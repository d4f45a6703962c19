"""Unit tests for the DES kernel: events, processes, time ordering."""

import pytest

from repro.sim import (
    Interrupt,
    SimulationError,
    Simulator,
    kernel_counters,
)
from repro.workloads import run_phase


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.5)
        return "done"

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == "done"
    assert sim.now == 2.5


def test_timeout_value_delivered():
    sim = Simulator()

    def proc(sim):
        got = yield sim.timeout(1.0, value="payload")
        return got

    assert sim.run_process(proc(sim)) == "payload"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_zero_timeout_runs_in_fifo_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(0)
        order.append(tag)

    for tag in "abc":
        sim.process(proc(sim, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def proc(sim, delay, tag):
        yield sim.timeout(delay)
        order.append((sim.now, tag))

    sim.process(proc(sim, 3.0, "late"))
    sim.process(proc(sim, 1.0, "early"))
    sim.process(proc(sim, 2.0, "mid"))
    sim.run()
    assert order == [(1.0, "early"), (2.0, "mid"), (3.0, "late")]


def test_process_is_awaitable_and_returns_value():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        return 42

    def parent(sim):
        result = yield sim.process(child(sim))
        return result + 1

    assert sim.run_process(parent(sim)) == 43
    assert sim.now == 1


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        raise ValueError("boom")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except ValueError as e:
            return f"caught {e}"

    assert sim.run_process(parent(sim)) == "caught boom"


def test_uncaught_process_exception_raises_from_run_process():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)
        raise KeyError("k")

    with pytest.raises(KeyError):
        sim.run_process(proc(sim))


def test_manual_event_succeed():
    sim = Simulator()
    ev = sim.event()
    results = []

    def waiter(sim, ev):
        val = yield ev
        results.append(val)

    def firer(sim, ev):
        yield sim.timeout(5)
        ev.succeed("fired")

    sim.process(waiter(sim, ev))
    sim.process(firer(sim, ev))
    sim.run()
    assert results == ["fired"]
    assert sim.now == 5


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError())


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()

    def waiter(sim, ev):
        try:
            yield ev
        except RuntimeError:
            return "failed"

    p = sim.process(waiter(sim, ev))
    ev.fail(RuntimeError("x"))
    sim.run()
    assert p.value == "failed"


def test_timeout_not_triggered_before_due():
    sim = Simulator()
    t = sim.timeout(10)
    assert not t.triggered
    sim.run(until=5)
    assert not t.triggered
    sim.run()
    assert t.triggered and t.ok


def test_all_of_waits_for_everything():
    sim = Simulator()

    def proc(sim):
        vals = yield sim.all_of([sim.timeout(1, "a"), sim.timeout(3, "b"),
                                 sim.timeout(2, "c")])
        return vals

    assert sim.run_process(proc(sim)) == ["a", "b", "c"]
    assert sim.now == 3


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc(sim):
        vals = yield sim.all_of([])
        return vals

    assert sim.run_process(proc(sim)) == []
    assert sim.now == 0


def test_any_of_returns_first():
    sim = Simulator()

    def proc(sim):
        idx, val = yield sim.any_of([sim.timeout(5, "slow"), sim.timeout(1, "fast")])
        return idx, val

    assert sim.run_process(proc(sim)) == (1, "fast")
    assert sim.now == 1


def test_interrupt_wakes_waiting_process():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100)
            log.append("slept")
        except Interrupt as i:
            log.append(f"interrupted:{i.cause}@{sim.now}")
            return "int"

    def killer(sim, target):
        yield sim.timeout(2)
        target.interrupt("crash")

    p = sim.process(sleeper(sim))
    sim.process(killer(sim, p))
    sim.run()
    assert log == ["interrupted:crash@2.0"]
    assert p.value == "int"
    # The abandoned 100 s timeout still drains off the heap harmlessly.
    assert sim.now == 100


def test_stale_event_does_not_resume_interrupted_process():
    """After an interrupt, the originally awaited event firing later must not
    wake the process a second time."""
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(10)
            log.append("original-wake")
        except Interrupt:
            yield sim.timeout(50)  # now waiting on something else
            log.append("post-interrupt-wake")

    def killer(sim, target):
        yield sim.timeout(1)
        target.interrupt()

    p = sim.process(sleeper(sim))
    sim.process(killer(sim, p))
    sim.run()
    assert log == ["post-interrupt-wake"]
    assert sim.now == 51


def test_interrupt_on_finished_process_is_noop():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1)
        return "ok"

    p = sim.process(quick(sim))
    sim.run()
    p.interrupt("too late")
    sim.run()
    assert p.value == "ok"


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad(sim):
        yield "not an event"

    p = sim.process(bad(sim))
    sim.run()
    assert not p.ok
    assert isinstance(p.value, SimulationError)


def test_run_until_stops_at_time():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10)

    sim.process(proc(sim))
    sim.run(until=4)
    assert sim.now == 4
    sim.run()
    assert sim.now == 10


def test_run_until_past_is_error():
    sim = Simulator()
    sim.run(until=5)
    with pytest.raises(SimulationError):
        sim.run(until=1)


def test_run_process_detects_deadlock():
    sim = Simulator()

    def stuck(sim):
        yield sim.event()  # nobody will ever trigger this

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(stuck(sim))


def _stuck_and_quick(sim):
    def stuck(sim):
        yield sim.event()  # nobody will ever trigger this

    def quick(sim):
        yield sim.timeout(1)

    return [sim.process(stuck(sim), name="stuck-a"),
            sim.process(quick(sim), name="quick"),
            sim.process(stuck(sim), name="stuck-b")]


@pytest.mark.parametrize("fast", [True, False])
def test_run_until_drained_queues_name_pending_processes(fast):
    sim = Simulator(fast=fast)
    done = sim.all_of(_stuck_and_quick(sim))
    with pytest.raises(SimulationError, match="stuck-a.*stuck-b") as err:
        sim.run_until(done)
    assert "quick" not in str(err.value)
    assert sim.now == 1


def test_run_phase_drained_queues_raise_simulation_error():
    sim = Simulator()
    with pytest.raises(SimulationError, match="deadlock.*stuck-a"):
        run_phase(sim, _stuck_and_quick(sim))


@pytest.mark.parametrize("fast", [True, False])
def test_run_until_stops_where_a_step_loop_would(fast):
    """``run_until`` is the step loop inlined: same stop point, same events,
    with a background process that keeps the queues non-empty forever."""

    def build(sim):
        def ticker(sim):
            while True:
                yield sim.timeout(0.25)

        def work(sim, n):
            for _ in range(n):
                yield sim.timeout(1)
                yield sim.timeout(0)

        sim.process(ticker(sim))
        return sim.all_of([sim.process(work(sim, 3)),
                           sim.process(work(sim, 2))])

    a = Simulator(fast=fast)
    done = build(a)
    a.run_until(done)
    b = Simulator(fast=fast)
    done_b = build(b)
    while not done_b.triggered:
        b.step()
    assert done.ok and a.now == b.now == 3
    assert kernel_counters(a) == kernel_counters(b)
    assert len(a._ready) == len(b._ready) and len(a._heap) == len(b._heap)


def test_nested_yield_from_composition():
    sim = Simulator()

    def inner(sim):
        yield sim.timeout(1)
        return 10

    def middle(sim):
        v = yield from inner(sim)
        yield sim.timeout(1)
        return v + 5

    def outer(sim):
        v = yield from middle(sim)
        return v * 2

    assert sim.run_process(outer(sim)) == 30
    assert sim.now == 2


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(7)
    assert sim.peek() == 7
