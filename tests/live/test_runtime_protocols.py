"""The two environment seams: both worlds share the same base classes.

These are the structural guarantees protocol code rests on: the DES
pair (Simulator, Network) and the live pair (LiveClock, TcpTransport)
are subclasses of ``repro.sim.Clock`` / ``repro.net.Transport``, and
keep one contract, checked here once for both, so protocol code cannot
tell which world it is running in.
"""

import asyncio
import gc

import pytest

from repro.live import LiveClock, TcpTransport, localhost_spec
from repro.net import PROFILE_LUS, Network, Node, Transport
from repro.sim import Clock, Process, RandomStreams, Simulator


def test_simulator_satisfies_clock():
    assert isinstance(Simulator(), Clock)


def test_live_clock_satisfies_clock():
    async def main():
        clock = LiveClock()
        try:
            assert isinstance(clock, Clock)
        finally:
            clock.close()

    asyncio.run(main())


def test_network_satisfies_transport():
    network = Network(Simulator(), PROFILE_LUS, streams=RandomStreams(1))
    assert isinstance(network, Transport)


def test_tcp_transport_satisfies_transport():
    async def main():
        clock = LiveClock()
        transport = TcpTransport(clock, localhost_spec(n_nodes=2, base_port=0))
        assert isinstance(transport, Transport)

    asyncio.run(main())


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


# -- the fabric contract, once for both transports ----------------------------
#
# ``drive(*stages)`` builds a fabric over the two sites of a localhost
# spec, calls each ``stage(fabric)`` in turn, STAGE_MS apart, lets the
# last one settle and returns the fabric.  The live transport opens no
# socket: every node is registered on it, so each message takes the
# same-process delivery path.

STAGE_MS = 10.0


class _Inbox:
    def __init__(self):
        self.got = []

    def put(self, message):
        self.got.append(message)


def _join(fabric):
    """Nodes ``a0`` / ``a1`` at ``site-0`` and ``b0`` at ``site-1``."""
    inboxes = {"a0": _Inbox(), "a1": _Inbox(), "b0": _Inbox()}
    for node_id, inbox in inboxes.items():
        fabric.register(node_id, "site-1" if node_id == "b0" else "site-0", inbox)
    return inboxes


def _drive_network(*stages):
    sim = Simulator()
    network = Network(
        sim, localhost_spec(n_nodes=2, base_port=0).latency_profile(),
        streams=RandomStreams(1),
    )
    for index, stage in enumerate(stages):
        sim.call_at(index * STAGE_MS, lambda stage=stage: stage(network))
    sim.run()
    return network


def _drive_tcp_transport(*stages):
    async def main():
        clock = LiveClock()
        transport = TcpTransport(clock, localhost_spec(n_nodes=2, base_port=0), listen=None)
        try:
            for stage in stages:
                stage(transport)
                await asyncio.sleep(STAGE_MS / 1000.0)
            assert clock.drain_failures() == []
            return transport
        finally:
            await transport.close()
            clock.close()

    return asyncio.run(main())


both_fabrics = pytest.mark.parametrize(
    "drive", [_drive_network, _drive_tcp_transport], ids=["Network", "TcpTransport"]
)


@both_fabrics
def test_register_rejects_a_duplicate_id_and_an_unknown_site(drive):
    def register(fabric):
        _join(fabric)
        with pytest.raises(ValueError, match="already registered"):
            fabric.register("a0", "site-1", _Inbox())
        with pytest.raises(ValueError, match="not in profile"):
            fabric.register("c0", "nowhere", _Inbox())

    fabric = drive(register)
    assert {"a0", "a1", "b0"} <= set(fabric.node_ids())
    assert "c0" not in fabric.node_ids()
    assert (fabric.site_of("a0"), fabric.site_of("b0")) == ("site-0", "site-1")


@both_fabrics
def test_fail_node_drops_traffic_and_recover_node_restores_it(drive):
    inboxes = {}

    def fail(fabric):
        inboxes.update(_join(fabric))
        fabric.fail_node("a1")
        assert fabric.is_failed("a1") and not fabric.is_failed("a0")
        fabric.send("a0", "a1", "ping", "to the failed node")
        fabric.send("a1", "a0", "ping", "from the failed node")

    def recover(fabric):
        fabric.recover_node("a1")
        fabric.send("a0", "a1", "ping", "through")

    fabric = drive(fail, recover)
    assert [message.body for message in inboxes["a1"].got] == ["through"]
    assert inboxes["a0"].got == []
    assert fabric.stats.dropped_failed == 2
    assert not fabric.is_failed("a1")


@both_fabrics
def test_a_partition_drops_traffic_at_delivery_and_heal_all_lifts_it(drive):
    inboxes = {}

    def partition(fabric):
        inboxes.update(_join(fabric))
        # Sent before the cut, delivered after it: dropped on arrival.
        fabric.send("a0", "b0", "ping", "cut")
        fabric.isolate_site("site-1")  # partition_sites to every other site
        assert fabric.partitioned("site-0", "site-1")
        fabric.send("b0", "a0", "ping", "cut too")
        fabric.send("a0", "a1", "ping", "same site")

    def heal(fabric):
        fabric.heal_all()
        assert not fabric.partitioned("site-0", "site-1")
        fabric.send("a0", "b0", "ping", "healed")

    fabric = drive(partition, heal)
    assert [message.body for message in inboxes["b0"].got] == ["healed"]
    assert [message.body for message in inboxes["a1"].got] == ["same site"]
    assert inboxes["a0"].got == []
    assert fabric.stats.dropped_partition == 2


@both_fabrics
def test_a_tap_sees_every_accepted_message(drive):
    tapped = []

    def send(fabric):
        _join(fabric)
        fabric.add_tap(lambda message: tapped.append((message.dst, message.body)))
        fabric.fail_node("b0")
        fabric.send("a0", "a1", "ping", 1)
        fabric.send("a0", "b0", "ping", 2)  # accepted, then dropped
        fabric.send("b0", "a1", "ping", 3, request_id=7)

    drive(send)
    assert tapped == [("a1", 1), ("b0", 2), ("a1", 3)]


@both_fabrics
def test_stats_count_sends_bytes_and_kinds_the_same_way(drive):
    def send(fabric):
        _join(fabric)
        fabric.send("a0", "a1", "get", "x", size_bytes=100)
        fabric.send("a0", "b0", "get", "y", size_bytes=30)
        fabric.send("b0", "a0", "put", "z")

    stats = drive(send).stats
    assert (stats.sent, stats.bytes_sent, stats.per_kind) == (3, 194, {"get": 2, "put": 1})
    assert stats.delivered == 3


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
