"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(5.0)
        seen.append(sim.now)
        yield 2.5  # bare numbers are timeouts
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [5.0, 7.5]


def test_timeout_value_passthrough():
    sim = Simulator()
    got = []

    def proc():
        value = yield sim.timeout(1.0, value="hello")
        got.append(value)

    sim.process(proc())
    sim.run()
    assert got == ["hello"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_process_return_value():
    sim = Simulator()

    def child():
        yield sim.timeout(3.0)
        return 42

    def parent():
        result = yield sim.process(child())
        return result * 2

    proc = sim.process(parent())
    assert sim.run_until_complete(proc) == 84
    assert sim.now == 3.0


def test_yielding_generator_spawns_subprocess():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return "done"

    def parent():
        result = yield child()  # bare generator is wrapped in a Process
        return result

    assert sim.run_until_complete(sim.process(parent())) == "done"


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as exc:
            return f"caught {exc}"

    assert sim.run_until_complete(sim.process(parent())) == "caught boom"


def test_unhandled_process_exception_raised_by_runner():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("unhandled")

    proc = sim.process(bad())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run_until_complete(proc)


def test_event_succeed_wakes_waiters_in_order():
    sim = Simulator()
    gate = sim.event()
    order = []

    def waiter(tag):
        value = yield gate
        order.append((tag, value))

    def opener():
        yield sim.timeout(10.0)
        gate.succeed("open")

    sim.process(waiter("a"))
    sim.process(waiter("b"))
    sim.process(opener())
    sim.run()
    assert order == [("a", "open"), ("b", "open")]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except KeyError as exc:
            caught.append(exc)

    sim.process(waiter())
    gate.fail(KeyError("nope"))
    sim.run()
    assert len(caught) == 1


def test_event_cannot_trigger_twice():
    sim = Simulator()
    gate = sim.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_already_triggered_event_resumes_waiter():
    sim = Simulator()
    gate = sim.event()
    gate.succeed("early")

    def waiter():
        value = yield gate
        return value

    assert sim.run_until_complete(sim.process(waiter())) == "early"


def test_all_of_collects_in_order():
    sim = Simulator()

    def main():
        events = [sim.timeout(3.0, "c"), sim.timeout(1.0, "a"), sim.timeout(2.0, "b")]
        values = yield sim.all_of(events)
        return values

    assert sim.run_until_complete(sim.process(main())) == ["c", "a", "b"]
    assert sim.now == 3.0


def test_all_of_empty_triggers_immediately():
    sim = Simulator()

    def main():
        values = yield sim.all_of([])
        return values

    assert sim.run_until_complete(sim.process(main())) == []


def test_any_of_returns_first():
    sim = Simulator()

    def main():
        index, value = yield sim.any_of([sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")])
        return index, value, sim.now

    assert sim.run_until_complete(sim.process(main())) == (1, "fast", 1.0)


def test_any_of_requires_events():
    sim = Simulator()
    with pytest.raises(SimulationError):
        AnyOf(sim, [])


def test_interrupt_delivers_cause():
    sim = Simulator()
    outcomes = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
            outcomes.append("slept")
        except Interrupt as interrupt:
            outcomes.append(("interrupted", interrupt.cause, sim.now))

    def interrupter(target):
        yield sim.timeout(4.0)
        target.interrupt("wake up")

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    sim.run()
    assert outcomes == [("interrupted", "wake up", 4.0)]


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    proc = sim.process(quick())
    sim.run()
    proc.interrupt("late")  # must not raise
    sim.run()


def test_stale_wakeup_after_interrupt_ignored():
    """An interrupted process must not also be resumed by its old event."""
    sim = Simulator()
    trace = []

    def sleeper():
        try:
            yield sim.timeout(10.0)
            trace.append("timeout fired in process")
        except Interrupt:
            trace.append("interrupted")
            yield sim.timeout(20.0)
            trace.append("second sleep done")

    def interrupter(target):
        yield sim.timeout(1.0)
        target.interrupt()

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    sim.run()
    assert trace == ["interrupted", "second sleep done"]
    assert sim.now == 21.0


def test_run_until_limits_time():
    sim = Simulator()
    ticks = []

    def ticker():
        while True:
            yield sim.timeout(1.0)
            ticks.append(sim.now)

    sim.process(ticker())
    sim.run(until=5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert sim.now == 5.5


def test_run_until_complete_detects_deadlock():
    sim = Simulator()

    def stuck():
        yield sim.event()  # never triggered

    proc = sim.process(stuck())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(proc)


def test_same_time_events_run_fifo():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        sim.process(proc(tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_call_at_runs_action_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.call_at(7.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [7.0]


def test_event_value_before_trigger_raises():
    sim = Simulator()
    event = Event(sim)
    with pytest.raises(SimulationError):
        _ = event.value


# -- bare-delay sleeps and absolute-time scheduling ---------------------------


def test_bare_delay_sleeps_like_a_timeout():
    sim = Simulator()
    woke = []

    def sleeper():
        woke.append((yield 2.5))  # a float: one scheduled wake
        woke.append((yield 2))  # an int is coerced to the same thing
        woke.append(sim.now)

    sim.process(sleeper())
    sim.run()
    assert woke == [None, None, 4.5]


def test_bare_negative_delay_is_rejected():
    sim = Simulator()

    def sleeper():
        yield -1.0

    sim.process(sleeper())
    with pytest.raises(SimulationError, match="negative timeout delay"):
        sim.run()


def test_interrupted_bare_delay_sleep_never_resumes_early():
    """The wake of a sleep an interrupt ended is stale: the process
    sleeps again, straight through it, to its own wake."""
    sim = Simulator()
    trace = []

    def sleeper():
        try:
            yield 10.0
            trace.append("first sleep done")
        except Interrupt as interrupt:
            trace.append(("interrupted", interrupt.cause, sim.now))
        yield 20.0
        trace.append(("second sleep done", sim.now))

    target = sim.process(sleeper())
    sim.call_at(1.0, lambda: target.interrupt("up"))
    sim.run()
    assert trace == [("interrupted", "up", 1.0), ("second sleep done", 21.0)]


def test_stale_wake_landing_on_the_next_wake_resumes_once():
    sim = Simulator()
    wakes = []

    def sleeper():
        try:
            yield 10.0
        except Interrupt:
            pass
        yield 9.0  # due at 10.0 too, behind the stale wake
        wakes.append(sim.now)
        yield 5.0
        wakes.append(sim.now)

    target = sim.process(sleeper())
    sim.call_at(1.0, lambda: target.interrupt())
    sim.run()
    assert wakes == [10.0, 15.0]


def test_abandoned_event_cannot_end_a_bare_delay_sleep():
    """Interrupted away from an event, then asleep: the old event
    triggering mid-sleep is a stale wakeup, not the end of the sleep."""
    sim = Simulator()
    gate = sim.event()
    trace = []

    def waiter():
        try:
            yield gate
        except Interrupt:
            trace.append(("interrupted", sim.now))
        yield 10.0
        trace.append(("slept", sim.now))

    target = sim.process(waiter())
    sim.call_at(1.0, lambda: target.interrupt())
    sim.call_at(5.0, lambda: gate.succeed("late"))
    sim.run()
    assert trace == [("interrupted", 1.0), ("slept", 11.0)]


def test_schedule_at_and_call_at_land_on_the_float_given():
    sim = Simulator()
    sim.run(until=8.3)
    when = 52.9
    assert sim.now + (when - sim.now) != when  # the relative form is an ulp off
    fired = []
    sim.schedule_at(when, lambda tag: fired.append((tag, sim.now)), "schedule_at")
    sim.call_at(when, lambda: fired.append(("call_at", sim.now)))
    sim.schedule_at(1.0, lambda tag: fired.append((tag, sim.now)), "past")  # clamps to now
    sim.run()
    assert fired == [("past", 8.3), ("schedule_at", when), ("call_at", when)]
