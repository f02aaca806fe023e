"""A hold queued on a saturated resource waits as itself.

``Resource.hold`` queues the hold (no grant event), and ``release``
hands the unit to the oldest one and starts it by the kernel's trigger
rule.  These pin the three things that must stay true: grants go in
arrival order, an abandoned hold gives its unit back (or leaves the
queue) exactly once in each of its three states — queued, granted with
its start still queued, running — and queueing allocates no ``Event``.
"""

import pytest

from repro.sim import Event, Interrupt, Resource, Simulator


class _Owner:
    """A stand-in owner, as a served handler has (``Node._serving``)."""

    name = "owner"
    context = {}


def test_a_saturated_resource_grants_in_arrival_order():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    ended = []

    def job(tag, ms):
        yield from cpu.use(ms)
        ended.append((tag, sim.now))

    # Three continuations queue now, three processes as they start at 0:
    # one FIFO queue, whatever the hold times.
    times = (4.0, 1.0, 3.0, 2.0, 5.0, 1.0)
    for tag, ms in enumerate(times):
        if tag < 3:
            cpu.hold(ms, lambda tag: ended.append((tag, sim.now)), tag)
        else:
            sim.process(job(tag, ms))
    assert cpu.in_use == 1 and cpu.queue_length == 2
    sim.run()
    assert ended == [(0, 4.0), (1, 5.0), (2, 8.0), (3, 10.0), (4, 15.0), (5, 16.0)]
    assert cpu.in_use == 0 and cpu.queue_length == 0
    assert cpu.total_busy_time == pytest.approx(16.0)


def _saturated(first_then=None):
    """A one-unit resource whose unit an owned continuation holds for
    10 ms (ending in ``first_then``), a second hold queued behind it
    (abandoned through ``waiter``) and a third behind that."""
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    ran = []
    waiter = Event(sim)
    cpu.hold(10.0, first_then or ran.append, "first", _Owner())
    cpu.hold(10.0, ran.append, "second", _Owner(), waiter)
    cpu.hold(1.0, ran.append, "third")
    return sim, cpu, ran, waiter


def test_an_abandoned_queued_hold_leaves_the_queue_once():
    sim, cpu, ran, waiter = _saturated()
    waiter._abandon(waiter)
    waiter._abandon(waiter)  # a second abandon is a no-op
    assert cpu.queue_length == 1 and cpu.in_use == 1
    sim.run()
    assert ran == ["first", "third"] and sim.now == 11.0
    assert cpu.in_use == 0 and cpu.total_busy_time == pytest.approx(11.0)


def test_an_abandoned_granted_hold_gives_its_unit_back_once():
    """The first hold ends as its owner, so the unit passes to the
    second with its start queued for the same instant; abandoned there,
    the unit goes on to the third and the queued start does nothing."""
    seen = []

    def first_then(tag):
        seen.append((tag, cpu.in_use, cpu.queue_length))  # granted, not started
        waiter._abandon(waiter)
        waiter._abandon(waiter)
        seen.append((cpu.in_use, cpu.queue_length))  # passed on to the third

    sim, cpu, ran, waiter = _saturated(first_then)
    sim.run()
    assert seen == [("first", 1, 1), (1, 0)]
    assert ran == ["third"] and sim.now == 11.0
    assert cpu.in_use == 0 and cpu.total_busy_time == pytest.approx(11.0)


def test_an_abandoned_running_hold_gives_its_unit_back_once():
    sim, cpu, ran, waiter = _saturated()
    sim.run(until=15.0)  # "second" runs 10..20
    assert ran == ["first"] and cpu.in_use == 1 and cpu.queue_length == 1
    waiter._abandon(waiter)
    waiter._abandon(waiter)
    sim.run()
    # The third starts at the abandon, and the second's end, still on
    # the heap at 20, releases nothing more.
    assert ran == ["first", "third"] and sim.now == 20.0
    assert cpu.in_use == 0 and cpu.total_busy_time == pytest.approx(16.0)


def test_an_interrupted_process_abandons_its_queued_hold():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    ran = []

    def job(tag):
        try:
            yield from cpu.use(10.0)
            ran.append((tag, sim.now))
        except Interrupt:
            ran.append((tag, "interrupted", cpu.queue_length))

    sim.process(job("a"))
    queued = sim.process(job("b"))
    sim.process(job("c"))
    sim.call_at(5.0, lambda: queued.interrupt())
    sim.run()
    assert ran == [("b", "interrupted", 1), ("a", 10.0), ("c", 20.0)]
    assert cpu.in_use == 0


def test_a_queued_hold_allocates_no_event(monkeypatch):
    sim = Simulator()
    cpu = Resource(sim, capacity=2)
    made = []
    init = Event.__init__

    def counting(self, *args, **kwargs):
        made.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Event, "__init__", counting)
    ended = []
    for tag in range(10):
        cpu.hold(1.0, ended.append, tag, _Owner() if tag % 2 else None)
    assert cpu.queue_length == 8 and made == []
    sim.run()
    assert ended == list(range(10)) and sim.now == 5.0
    assert made == ["Event"]  # the run's own stop sentinel, and nothing else
