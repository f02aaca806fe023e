"""Regression tests for the kernel's silent-failure and leak bugs.

Each test here pins one of the four bugfixes of the scheduler rework:

1. ``AnyOf`` used to swallow a losing child's *failure* silently; the
   kernel now defuses it explicitly and counts it in
   ``sim.swallowed_failures``.
2. Interrupting a process queued for a core (``Resource.use``, the
   generator face of ``Resource.hold``) used to leak the queued (or
   already-fired) grant, permanently shrinking capacity.
3. ``Network.recover_node`` used to leave the crashed node's
   ``egress_free_at`` horizon in place, charging phantom transmission
   delay after recovery.
4. ``call_at`` clamped past deadlines while the scheduling hook raised
   on negative delays; ``schedule`` now clamps, and ``call_at`` goes
   through it (``timeout`` still rejects negative delays at
   the API boundary), and an interrupted ``Condition`` waiter no longer
   stays on the waiter list forever.
"""

import pytest

from repro.net import PROFILE_LUS, Network
from repro.net.network import MESSAGE_OVERHEAD_BYTES
from repro.sim import (
    Condition,
    Interrupt,
    Mailbox,
    RandomStreams,
    Resource,
    SimulationError,
    Simulator,
)


# -- 1: AnyOf losing-child failures are defused, not swallowed ---------------


def test_anyof_losing_failure_is_defused_and_counted():
    sim = Simulator()
    winner = sim.event()
    loser = sim.event()
    results = []

    def proc():
        done = yield sim.any_of([winner, loser])
        results.append(done)

    sim.process(proc())
    sim.call_at(1.0, lambda: winner.succeed("won"))
    sim.call_at(2.0, lambda: loser.fail(RuntimeError("too late")))
    sim.run()  # must not raise: the late failure is defused
    assert results == [(0, "won")]
    assert sim.swallowed_failures == 1


def test_anyof_defuses_multiple_late_failures():
    sim = Simulator()
    winner = sim.event()
    losers = [sim.event() for _ in range(3)]

    def proc():
        yield sim.any_of([winner] + losers)

    sim.process(proc())
    sim.call_at(1.0, lambda: winner.succeed())
    for offset, event in enumerate(losers):
        sim.call_at(
            2.0 + offset,
            lambda event=event: event.fail(RuntimeError("late")),
        )
    sim.run()
    assert sim.swallowed_failures == 3


def test_unwaited_failure_still_raises():
    """Defusing is scoped to combinator children: a failure nobody ever
    waited on still surfaces at run()."""
    sim = Simulator()
    event = sim.event()
    sim.call_at(1.0, lambda: event.fail(RuntimeError("nobody listening")))
    with pytest.raises(RuntimeError, match="nobody listening"):
        sim.run()
    assert sim.swallowed_failures == 0


# -- 2: interrupting a queued hold must not leak the grant -------------------


def test_interrupted_queued_use_leaves_the_queue():
    sim = Simulator()
    resource = Resource(sim, capacity=1, name="cpu")
    order = []

    def holder():
        yield from resource.use(10.0)
        order.append(("holder-released", sim.now))

    def waiter():
        try:
            yield from resource.use(1.0)
            order.append(("waiter-held", sim.now))
        except Interrupt:
            order.append(("waiter-interrupted", sim.now))

    def late_user():
        yield sim.timeout(20.0)
        yield from resource.use(1.0)
        order.append(("late-held", sim.now))

    sim.process(holder())
    waiting = sim.process(waiter())
    sim.process(late_user())
    sim.call_at(5.0, lambda: waiting.interrupt("cancelled"))
    sim.run()

    # The interrupted waiter never got the core, and capacity recovered:
    # the late user holds it from the moment it asks.
    assert order == [
        ("waiter-interrupted", 5.0), ("holder-released", 10.0), ("late-held", 21.0)
    ]
    assert resource.in_use == 0
    assert resource.queue_length == 0


def test_interrupt_after_the_grant_fired_returns_the_slot():
    """The race variant: the holder's release grants the queued hold,
    and the interrupt is delivered before that hold starts.  The abandon
    hook must give the slot back, and the hold must never start."""
    sim = Simulator()
    resource = Resource(sim, capacity=1, name="cpu")
    started = []

    def holder():
        yield from resource.use(10.0)

    def waiter():
        try:
            yield from resource.use(5.0)
            started.append(sim.now)
        except Interrupt:
            pass

    # Pushed before the holder's hold end, so at t=10 it runs first:
    # the interrupt is queued ahead of the grant's deferred start.
    waiting = []
    sim.call_at(10.0, lambda: waiting[0].interrupt("preempted"))
    sim.process(holder())
    waiting.append(sim.process(waiter()))
    sim.run(until=10.0)
    assert resource.in_use == 0
    assert resource.queue_length == 0
    # The returned slot is immediately holdable again.
    resource.hold(1.0, started.append, "fresh")
    assert resource.in_use == 1
    sim.run()
    assert started == ["fresh"]


def test_interrupted_running_hold_gives_its_unit_back_at_once():
    """Interrupted mid-hold, ``use`` releases at the interrupt instant
    and the queued hold behind it starts there, not at the old end."""
    sim = Simulator()
    resource = Resource(sim, capacity=1, name="cpu")
    ends = []

    def holder():
        try:
            yield from resource.use(10.0)
        except Interrupt:
            ends.append(("interrupted", sim.now))

    def follower():
        yield from resource.use(2.0)
        ends.append(("follower", sim.now))

    holding = sim.process(holder())
    sim.process(follower())
    sim.call_at(4.0, lambda: holding.interrupt("stop"))
    sim.run()
    assert ends == [("interrupted", 4.0), ("follower", 6.0)]
    assert resource.in_use == 0 and resource.total_busy_time == 6.0


def test_interrupted_mailbox_get_requeues_delivered_item():
    sim = Simulator()
    box = Mailbox(sim, name="inbox")
    got = []

    def reader():
        try:
            got.append((yield box.get()))
        except Interrupt:
            pass

    def second_reader():
        yield sim.timeout(2.0)
        got.append((yield box.get()))

    reading = sim.process(reader())

    def put_and_interrupt():
        # Deliver into the waiting reader's event, then interrupt it in
        # the same step: the item must go back to the queue head.
        box.put("payload")
        reading.interrupt("cancelled")

    sim.call_at(1.0, put_and_interrupt)
    sim.process(second_reader())
    sim.run()
    assert got == ["payload"]  # recovered by the second reader, not lost


# -- 3: recover_node resets the egress horizon -------------------------------


def test_recover_node_clears_stale_egress_horizon():
    sim = Simulator()
    net = Network(
        sim,
        PROFILE_LUS,
        streams=RandomStreams(7),
        bandwidth_bytes_per_ms=1_000.0,  # slow NIC: big tx times
    )
    inbox_a = Mailbox(sim, name="a")
    inbox_b = Mailbox(sim, name="b")
    net.register("a", "Ohio", inbox_a)
    net.register("b", "N.California", inbox_b)

    # Queue a large backlog behind a's NIC, then crash it mid-drain.
    for _ in range(10):
        net.send("a", "b", "bulk", b"x", size_bytes=100_000)
    horizon = net._endpoints["a"].egress_free_at
    assert horizon > 1_000.0  # ~10 x (100k+overhead)/1k ms of backlog

    net.fail_node("a")
    net.recover_node("a")
    assert net._endpoints["a"].egress_free_at == 0.0

    # A post-recovery message pays only its own tx time + latency, not
    # the phantom backlog.
    received = []

    def receiver():
        message = yield inbox_b.get()
        received.append((message.body, sim.now))

    sim.process(receiver())
    net.send("a", "b", "ping", "fresh", size_bytes=64)
    sim.run()
    expected = (64 + MESSAGE_OVERHEAD_BYTES) / 1_000.0 + 53.79 / 2
    assert received and received[0][0] == "fresh"
    assert received[0][1] == pytest.approx(expected)


# -- 4: consistent clamping + Condition waiter-list hygiene ------------------


def test_call_at_in_the_past_clamps_to_now():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(10.0)
        sim.call_at(3.0, lambda: fired.append(sim.now))  # already past
        yield sim.timeout(1.0)

    sim.process(proc())
    sim.run()
    assert fired == [10.0]


def test_schedule_in_the_past_clamps_to_now():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(10.0)
        event = sim.event()
        sim.schedule(-5.0, event.succeed, "late")
        seen.append((yield event))

    sim.process(proc())
    sim.run()
    assert seen == ["late"]
    assert sim.now == 10.0


def test_timeout_still_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-0.001)


def test_interrupted_condition_waiter_is_dropped():
    sim = Simulator()
    condition = Condition(sim, name="cv")
    woken = []

    def waiter(tag, give_up_at):
        try:
            value = yield condition.wait()
            woken.append((tag, value))
        except Interrupt:
            pass

    keeper = sim.process(waiter("keeper", None))
    quitter = sim.process(waiter("quitter", 1.0))
    sim.call_at(1.0, lambda: quitter.interrupt("bored"))
    sim.call_at(2.0, lambda: condition.notify_all("go"))
    sim.run()
    assert woken == [("keeper", "go")]
    assert condition._waiters == []
    assert keeper.triggered and quitter.triggered
