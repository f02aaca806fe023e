"""The two environment seams: both worlds satisfy the same Protocols.

These are the structural guarantees the whole PR rests on: the DES
pair (Simulator, Network) and the live pair (LiveClock, TcpTransport)
are interchangeable behind ``repro.runtime.Clock`` / ``Transport``, so
protocol code cannot tell which world it is running in.
"""

import asyncio
import gc
import inspect

import pytest

from repro.live import LiveClock, TcpTransport, localhost_spec
from repro.net import PROFILE_LUS, Network, Node
from repro.runtime import Clock, Transport, require_clock, require_transport
from repro.sim import Process, RandomStreams, Simulator


def test_simulator_satisfies_clock():
    sim = Simulator()
    assert isinstance(sim, Clock)
    require_clock(sim)


def test_live_clock_satisfies_clock():
    async def main():
        clock = LiveClock()
        assert isinstance(clock, Clock)
        require_clock(clock)

    asyncio.run(main())


def test_network_satisfies_transport():
    sim = Simulator()
    network = Network(sim, PROFILE_LUS, streams=RandomStreams(1))
    assert isinstance(network, Transport)
    require_transport(network)


def test_tcp_transport_satisfies_transport():
    async def main():
        clock = LiveClock()
        transport = TcpTransport(clock, localhost_spec(n_nodes=2, base_port=0))
        assert isinstance(transport, Transport)
        require_transport(transport)

    asyncio.run(main())


def test_require_clock_names_missing_attributes():
    class NotAClock:
        now = 0.0

    with pytest.raises(TypeError) as exc:
        require_clock(NotAClock())
    message = str(exc.value)
    assert "timeout" in message
    assert "process" in message


def test_require_transport_names_missing_attributes():
    class NotATransport:
        pass

    with pytest.raises(TypeError) as exc:
        require_transport(NotATransport())
    assert "send" in str(exc.value)


# -- the Clock scheduling contract, once for both clocks ----------------------
#
# ``drive(body)`` builds a clock, calls ``body(clock)`` to schedule work,
# lets the clock run ``settle_ms`` and returns whatever ``body`` returned.


def _drive_simulator(body, settle_ms=100.0):
    sim = Simulator()
    result = body(sim)
    sim.run(until=settle_ms)
    return result


def _drive_live_clock(body, settle_ms=100.0):
    async def main():
        clock = LiveClock()
        try:
            result = body(clock)
            await asyncio.sleep(settle_ms / 1000.0)
            assert clock.drain_failures() == []
            return result
        finally:
            clock.close()

    return asyncio.run(main())


both_clocks = pytest.mark.parametrize(
    "drive", [_drive_simulator, _drive_live_clock], ids=["Simulator", "LiveClock"]
)


@both_clocks
def test_schedule_zero_delay_is_fifo_and_never_synchronous(drive):
    def body(clock):
        seen = []
        event = clock.event()
        event.add_callback(lambda _ev: seen.append("callback"))
        event.succeed()  # queues the callback for this instant
        clock.schedule(0, seen.append, "first")
        clock.schedule(0.0, seen.append, "second")
        assert seen == []  # nothing ran inside schedule()
        return seen

    assert drive(body) == ["callback", "first", "second"]


@both_clocks
def test_schedule_positive_delay_orders_by_time_then_insertion(drive):
    def body(clock):
        seen = []
        clock.schedule(40.0, seen.append, "late")
        clock.schedule(10.0, seen.append, "early-a")
        clock.schedule(10.0, seen.append, "early-b")
        clock.schedule(0.0, seen.append, "now")
        return seen

    assert drive(body) == ["now", "early-a", "early-b", "late"]


@both_clocks
def test_schedule_negative_delay_clamps_to_now(drive):
    def body(clock):
        seen = []
        clock.schedule(0.0, seen.append, "queued")
        clock.schedule(-5.0, seen.append, "past")
        clock.schedule(5.0, seen.append, "future")
        assert seen == []
        return seen

    assert drive(body) == ["queued", "past", "future"]


@both_clocks
def test_schedule_at_orders_by_absolute_time_and_clamps_the_past(drive):
    def body(clock):
        seen = []
        start = clock.now
        clock.schedule_at(start + 40.0, seen.append, "late")
        clock.schedule_at(start + 10.0, seen.append, "early")
        clock.schedule(0.0, seen.append, "queued")
        clock.schedule_at(start - 5.0, seen.append, "past")
        assert seen == []  # never synchronously, even when overdue
        return seen

    assert drive(body) == ["queued", "past", "early", "late"]


@both_clocks
def test_a_wakeup_raised_by_a_scheduled_action_runs_in_place(drive):
    """Who wakes in place: an event triggered by the clock's own
    dispatch, with no process executing, runs its waiters inside
    ``succeed()``; one triggered by a running process queues them, so
    process code keeps run-to-completion on either clock."""

    def body(clock):
        seen = []
        by_action, by_process = clock.event(), clock.event()

        def waiter(tag, event):
            yield event
            seen.append(tag + " woke")

        def action(_arg):
            by_action.succeed()
            seen.append("action returned")

        def trigger():
            yield 1.0
            by_process.succeed()
            seen.append("process stepped on")

        clock.process(waiter("a", by_action))
        clock.process(waiter("p", by_process))
        clock.process(trigger())
        clock.schedule(0.0, action, None)
        return seen

    assert drive(body) == [
        "a woke", "action returned", "process stepped on", "p woke",
    ]


@both_clocks
def test_dispatching_is_false_outside_a_scheduled_action(drive):
    def body(clock):
        seen = [clock.dispatching]
        clock.schedule(0.0, lambda _arg: seen.append(clock.dispatching), None)
        return clock, seen

    clock, seen = drive(body)
    assert seen == [False, True]
    assert clock.dispatching is False


@both_clocks
def test_defuse_counts_a_swallowed_failure(drive):
    def body(clock):
        assert clock.swallowed_failures == 0
        winner, loser = clock.event(), clock.event()
        race = clock.any_of([winner, loser])
        winner.succeed("won")
        loser.fail(RuntimeError("lost the race"))
        return clock, race

    clock, race = drive(body)
    assert race.value == (0, "won")
    assert clock.swallowed_failures == 1
    clock.defuse(race)
    assert clock.swallowed_failures == 2


@both_clocks
def test_clocks_expose_only_the_public_hooks(drive):
    def body(clock):
        return [
            name
            for name in ("_push", "_push_call", "_schedule_callback", "_defuse", "step")
            if hasattr(clock, name)
        ]

    assert drive(body, settle_ms=0.0) == []


def test_require_clock_names_missing_hooks():
    class WithoutHooks:
        """Every Clock attribute except the two kernel hooks."""

        def __init__(self, sim):
            self._sim = sim

        def __getattr__(self, name):
            if name in ("schedule", "defuse"):
                raise AttributeError(name)
            return getattr(self._sim, name)

    clock = WithoutHooks(Simulator())
    assert not isinstance(clock, Clock)
    with pytest.raises(TypeError) as exc:
        require_clock(clock)
    assert "missing: ['schedule', 'defuse']" in str(exc.value)


def test_clock_declares_no_private_method():
    declared = [
        name
        for name, value in vars(Clock).items()
        if inspect.isfunction(value) and value.__qualname__ == f"Clock.{name}"
    ]
    assert {"schedule", "schedule_at", "defuse"} <= set(declared)
    assert [name for name in declared if name.startswith("_")] == []


# -- object lifetime is the kernel's, so it is the same in both worlds ----------


def test_live_rpcs_leave_the_collector_no_process():
    """The live twin of tests/sim/test_process_lifetime.py: a served RPC
    frees its handler process when it finishes, on the wall clock too —
    a long-running node pays no collector work per call."""

    async def main():
        clock = LiveClock()
        # No sockets: both nodes live on this transport, so every message
        # takes the same-process delivery path.
        transport = TcpTransport(clock, localhost_spec(n_nodes=2, base_port=0), listen=None)
        site = transport.profile.site_names[0]
        client = Node(clock, transport, "client", site)
        server = Node(clock, transport, "server", site)

        def echo(message):  # a generator handler: one Process per call
            yield 0.0
            server.reply(message, Node.payload(message))

        server.on("echo", echo)
        client.start()
        server.start()

        def calls(count):
            for index in range(count):
                assert (yield from client.call("server", "echo", index)) == index

        try:
            await asyncio.wait_for(clock.run_process(calls(300)), timeout=20.0)
            assert clock.drain_failures() == []
        finally:
            await transport.close()
            clock.close()

    gc.collect()
    gc.disable()
    try:
        asyncio.run(main())
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [item for item in gc.garbage if isinstance(item, Process)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert leaked == []
