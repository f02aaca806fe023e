"""Unit tests for mailboxes, resources and conditions."""

import pytest

from repro.sim import Mailbox, Resource, SimulationError, Simulator
from repro.sim.primitives import Condition


def test_mailbox_fifo_order():
    sim = Simulator()
    box = Mailbox(sim)
    got = []

    def consumer():
        for _ in range(3):
            item = yield box.get()
            got.append(item)

    sim.process(consumer())
    for item in ("a", "b", "c"):
        box.put(item)
    sim.run()
    assert got == ["a", "b", "c"]


def test_mailbox_blocks_until_put():
    sim = Simulator()
    box = Mailbox(sim)
    got = []

    def consumer():
        item = yield box.get()
        got.append((item, sim.now))

    def producer():
        yield sim.timeout(5.0)
        box.put("late")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [("late", 5.0)]


def test_mailbox_multiple_getters_fifo():
    sim = Simulator()
    box = Mailbox(sim)
    got = []

    def consumer(tag):
        item = yield box.get()
        got.append((tag, item))

    sim.process(consumer("first"))
    sim.process(consumer("second"))

    def producer():
        yield sim.timeout(1.0)
        box.put(1)
        box.put(2)

    sim.process(producer())
    sim.run()
    assert got == [("first", 1), ("second", 2)]


def test_mailbox_get_nowait_and_len():
    sim = Simulator()
    box = Mailbox(sim)
    box.put("x")
    assert len(box) == 1
    assert box.get_nowait() == "x"
    with pytest.raises(SimulationError):
        box.get_nowait()


def test_resource_serializes_beyond_capacity():
    sim = Simulator()
    cpu = Resource(sim, capacity=2)
    done = []

    def job(tag):
        yield from cpu.use(10.0)
        done.append((tag, sim.now))

    for tag in range(4):
        sim.process(job(tag))
    sim.run()
    # Two run 0-10, the next two 10-20.
    assert done == [(0, 10.0), (1, 10.0), (2, 20.0), (3, 20.0)]


def test_resource_release_requires_acquire():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        cpu.release()


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_utilization_tracking():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)

    def job():
        yield from cpu.use(25.0)

    sim.process(job())
    sim.run(until=100.0)
    assert cpu.utilization(100.0) == pytest.approx(0.25)


def test_resource_released_on_interrupt():
    """`use` must release the grant even when interrupted mid-hold."""
    from repro.sim import Interrupt

    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    done = []

    def holder():
        try:
            yield from cpu.use(100.0)
        except Interrupt:
            pass

    def follower():
        yield from cpu.use(1.0)
        done.append(sim.now)

    hold = sim.process(holder())
    sim.process(follower())

    def interrupter():
        yield sim.timeout(5.0)
        hold.interrupt()

    sim.process(interrupter())
    sim.run()
    assert done == [6.0]


def test_interrupted_hold_returns_its_core_and_its_wake_goes_stale():
    """`use` holds through a bare-delay sleep: interrupted mid-hold it
    still releases, and that hold's wake must not cut a later one short."""
    from repro.sim import Interrupt

    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    done = []

    def holder():
        try:
            yield from cpu.use(100.0)
        except Interrupt:
            done.append(("interrupted", sim.now, cpu.in_use))
        yield from cpu.use(200.0)  # spans the first hold's wake at t=100
        done.append(("held", sim.now, cpu.in_use))

    hold = sim.process(holder())
    sim.call_at(5.0, lambda: hold.interrupt())
    sim.run()
    assert done == [("interrupted", 5.0, 0), ("held", 205.0, 0)]
    assert cpu.total_busy_time == pytest.approx(205.0)


def test_condition_broadcast():
    sim = Simulator()
    cond = Condition(sim)
    woken = []

    def waiter(tag):
        value = yield cond.wait()
        woken.append((tag, value))

    sim.process(waiter("a"))
    sim.process(waiter("b"))

    def notifier():
        yield sim.timeout(3.0)
        cond.notify_all("go")

    sim.process(notifier())
    sim.run()
    assert sorted(woken) == [("a", "go"), ("b", "go")]


def test_clock_monotonic_and_drift():
    from repro.sim import NodeClock

    sim = Simulator()
    clock = NodeClock(sim, offset=100.0, drift=0.01)

    def proc():
        first = clock.now()
        second = clock.now()  # same sim instant: must still advance
        assert second > first
        yield sim.timeout(1000.0)
        later = clock.now()
        assert later == pytest.approx(100.0 + 1000.0 * 1.01, rel=1e-9)

    sim.run_until_complete(sim.process(proc()))


def test_rng_streams_deterministic_and_independent():
    from repro.sim import RandomStreams

    streams_a = RandomStreams(42)
    streams_b = RandomStreams(42)
    xs = [streams_a.stream("net").random() for _ in range(5)]
    ys = [streams_b.stream("net").random() for _ in range(5)]
    assert xs == ys
    # A different name gives a different sequence.
    zs = [streams_b.stream("workload").random() for _ in range(5)]
    assert xs != zs
    # Same name returns the same underlying stream object.
    assert streams_a.stream("net") is streams_a.stream("net")
    # Spawned children differ from the parent.
    child = streams_a.spawn("site1")
    assert child.stream("net").random() not in xs
