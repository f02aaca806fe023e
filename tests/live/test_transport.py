"""TcpTransport: real sockets under the Network-compatible surface.

Each test boots two or three transports on one asyncio loop (separate
listening sockets, like separate processes minus the fork) and drives
the same Node/Mailbox machinery the protocols use.
"""

import asyncio

import pytest

from repro.live import LiveClock, TcpTransport
from repro.live.codec import CodecError
from repro.net import Node
from repro.obs import Observability
from repro.sim import Mailbox

from .conftest import make_spec


def spec_for_transport_tests():
    # Two processes, each hosting one "protocol node" named after it.
    spec = make_spec(n_nodes=2, seed=3)
    return spec


async def start_pair(clock, spec):
    t0 = TcpTransport(clock, spec, listen=spec.nodes[0].address)
    t1 = TcpTransport(clock, spec, listen=spec.nodes[1].address)
    await t0.start()
    await t1.start()
    return t0, t1


def test_cross_transport_delivery_over_real_sockets():
    async def main():
        clock = LiveClock()
        spec = spec_for_transport_tests()
        t0, t1 = await start_pair(clock, spec)
        try:
            box = Mailbox(clock, name="sink")
            t0.register("store-0-0", spec.nodes[0].site, Mailbox(clock, name="src"))
            t1.register("store-1-0", spec.nodes[1].site, box)

            def receiver():
                message = yield box.get()
                return message

            proc = clock.process(receiver())
            t0.send("store-0-0", "store-1-0", "ping", {"stamp": (1, "a", 2)})
            message = await asyncio.wait_for(clock.wait(proc), timeout=5.0)
            assert message.kind == "ping"
            assert message.body == {"stamp": (1, "a", 2)}
            assert message.src == "store-0-0"
            assert t0.stats.sent == 1
            assert t1.stats.delivered == 1
        finally:
            await t0.close()
            await t1.close()
            clock.close()

    asyncio.run(main())


def test_node_rpc_round_trip_between_transports():
    async def main():
        clock = LiveClock()
        spec = spec_for_transport_tests()
        t0, t1 = await start_pair(clock, spec)
        try:
            server = Node(clock, t1, "store-1-0", spec.nodes[1].site)

            def echo(message):
                server.reply(message, {"echo": Node.payload(message)})

            server.on("echo", echo)
            server.start()

            client = Node(clock, t0, "store-0-0", spec.nodes[0].site)
            client.start()

            def call():
                reply = yield from client.call("store-1-0", "echo", {"n": 7})
                return reply

            reply = await asyncio.wait_for(
                clock.run_process(call()), timeout=5.0
            )
            assert reply == {"echo": {"n": 7}}
        finally:
            await t0.close()
            await t1.close()
            clock.close()

    asyncio.run(main())


def test_a_raising_handler_is_isolated_on_both_delivery_paths():
    """Delivery runs the handler: whether the message came off a socket
    or from a node in the same process, a handler bug lands in
    ``LiveClock.errors`` and the next message is still served."""

    async def main():
        clock = LiveClock()
        spec = spec_for_transport_tests()
        t0, t1 = await start_pair(clock, spec)
        try:
            server = Node(clock, t1, "store-1-0", spec.nodes[1].site)

            def fragile(message):
                if Node.payload(message) == "bad":
                    raise RuntimeError("injected handler bug")
                server.reply(message, "served")

            server.on("fragile", fragile)
            server.start()
            remote = Node(clock, t0, "store-0-0", spec.nodes[0].site)
            local = Node(clock, t1, "music-1-0", spec.nodes[1].site)
            remote.start()
            local.start()

            def call(client, payload):
                return (yield from client.call("store-1-0", "fragile", payload, timeout=200.0))

            for client in (remote, local):
                with pytest.raises(Exception, match="fragile to store-1-0"):
                    await asyncio.wait_for(clock.run_process(call(client, "bad")), timeout=5.0)
                reply = await asyncio.wait_for(clock.run_process(call(client, "good")), timeout=5.0)
                assert reply == "served"
            assert len(clock.errors) == 2
            assert all("injected handler bug" in error for error in clock.errors)
            assert len(clock.drain_failures()) == 2 and clock.fatal_failures == 2
        finally:
            await t0.close()
            await t1.close()
            clock.close()

    asyncio.run(main())


def test_listenless_client_gets_replies_over_return_link():
    """A client transport with no listening socket: replies must route
    back over the connection the request went out on."""

    async def main():
        clock = LiveClock()
        spec = spec_for_transport_tests()
        t_server = TcpTransport(clock, spec, listen=spec.nodes[0].address)
        await t_server.start()
        t_client = TcpTransport(clock, spec, listen=None)
        try:
            server = Node(clock, t_server, "store-0-0", spec.nodes[0].site)
            server.on("hello", lambda m: server.reply(m, "hi"))
            server.start()

            # The client id appears in no spec address table.
            client = Node(clock, t_client, "wanderer-1", spec.nodes[0].site)
            client.start()

            def call():
                reply = yield from client.call("store-0-0", "hello", None)
                return reply

            reply = await asyncio.wait_for(clock.run_process(call()), timeout=5.0)
            assert reply == "hi"
        finally:
            await t_server.close()
            await t_client.close()
            clock.close()

    asyncio.run(main())


def test_rpc_fields_ride_the_frame_over_a_return_link():
    """A listenless client's two calls arrive with their own request ids
    and the caller's trace context; answered in reverse over the return
    link, each reply still resolves the call it answers."""

    async def main():
        clock = LiveClock()
        spec = spec_for_transport_tests()
        t_server = TcpTransport(clock, spec, listen=spec.nodes[0].address)
        await t_server.start()
        t_client = TcpTransport(clock, spec, obs=Observability(clock), listen=None)
        try:
            server = Node(clock, t_server, "store-0-0", spec.nodes[0].site)
            held = []

            def hold(message):
                held.append(message)
                if len(held) == 2:  # answer the later call first
                    for request in reversed(held):
                        server.reply(request, {"n": request.body["n"]})

            server.on("hold", hold)
            server.start()
            client = Node(clock, t_client, "wanderer-1", spec.nodes[0].site)
            client.start()

            def calls():
                with t_client.obs.tracer.span("client.op") as span:
                    first = client.call_async("store-0-0", "hold", {"n": 1})
                    second = client.call_async("store-0-0", "hold", {"n": 2})
                    replies = (yield first), (yield second)
                return (span.trace_id, span.span_id), replies

            trace, replies = await asyncio.wait_for(clock.run_process(calls()), timeout=5.0)
            assert replies == ({"n": 1}, {"n": 2})
            assert [(m.body, m.request_id, m.trace) for m in held] == [
                ({"n": 1}, 0, trace), ({"n": 2}, 1, trace),
            ]
            assert "wanderer-1" in t_server._return_links
        finally:
            await t_server.close()
            await t_client.close()
            clock.close()

    asyncio.run(main())


def test_send_to_local_endpoint_stays_in_process():
    async def main():
        clock = LiveClock()
        spec = spec_for_transport_tests()
        transport = TcpTransport(clock, spec, listen=spec.nodes[0].address)
        await transport.start()
        try:
            box = Mailbox(clock, name="local")
            transport.register("a", spec.nodes[0].site, Mailbox(clock, name="a"))
            transport.register("b", spec.nodes[0].site, box)

            def receiver():
                message = yield box.get()
                return message.body

            proc = clock.process(receiver())
            transport.send("a", "b", "local-ping", 42)
            body = await asyncio.wait_for(clock.wait(proc), timeout=5.0)
            assert body == 42
            assert not transport._outbound  # never touched a socket
        finally:
            await transport.close()
            clock.close()

    asyncio.run(main())


def test_reconnect_after_peer_restart():
    """Frames sent while the peer is down are lost (fair-loss link);
    the outbound link reconnects with backoff and later frames arrive."""

    async def main():
        clock = LiveClock()
        spec = spec_for_transport_tests()
        t0 = TcpTransport(clock, spec, listen=spec.nodes[0].address)
        await t0.start()
        t0.register("store-0-0", spec.nodes[0].site, Mailbox(clock, name="src"))

        received = []

        async def boot_server():
            t1 = TcpTransport(clock, spec, listen=spec.nodes[1].address)
            await t1.start()
            box = Mailbox(clock, name="sink")
            t1.register("store-1-0", spec.nodes[1].site, box)

            def drain():
                while True:
                    message = yield box.get()
                    received.append(message.body)

            clock.process(drain())
            return t1

        # First incarnation.
        t1 = await boot_server()
        t0.send("store-0-0", "store-1-0", "n", 1)
        await asyncio.sleep(0.2)
        assert received == [1]

        # Kill the server; sends during the outage are dropped.
        await t1.close()
        t0.send("store-0-0", "store-1-0", "n", 2)
        await asyncio.sleep(0.3)

        # Restart on the same port; the pooled link must reconnect.
        t1 = await boot_server()
        deadline = clock.loop.time() + 8.0
        while 3 not in received and clock.loop.time() < deadline:
            t0.send("store-0-0", "store-1-0", "n", 3)
            await asyncio.sleep(0.1)
        assert 3 in received
        await t1.close()
        await t0.close()
        clock.close()

    asyncio.run(main())


def test_failed_node_drops_traffic_like_the_des():
    async def main():
        clock = LiveClock()
        spec = spec_for_transport_tests()
        transport = TcpTransport(clock, spec, listen=spec.nodes[0].address)
        await transport.start()
        try:
            box = Mailbox(clock, name="sink")
            transport.register("a", spec.nodes[0].site, Mailbox(clock, name="a"))
            transport.register("b", spec.nodes[0].site, box)
            transport.fail_node("b")
            assert transport.is_failed("b")
            transport.send("a", "b", "ping", None)
            await asyncio.sleep(0.05)
            assert transport.stats.dropped_failed == 1
            transport.recover_node("b")
            assert not transport.is_failed("b")
        finally:
            await transport.close()
            clock.close()

    asyncio.run(main())


def test_register_validates_site_and_duplicates():
    async def main():
        clock = LiveClock()
        spec = spec_for_transport_tests()
        transport = TcpTransport(clock, spec, listen=None)
        try:
            transport.register("a", spec.nodes[0].site, Mailbox(clock, name="a"))
            with pytest.raises(ValueError):
                transport.register("a", spec.nodes[0].site, Mailbox(clock, name="dup"))
            with pytest.raises(ValueError):
                transport.register("c", "no-such-site", Mailbox(clock, name="c"))
        finally:
            await transport.close()
            clock.close()

    asyncio.run(main())


# -- drop accounting: each cause moves its own counter, by the frames dropped ----


def drops(transport):
    stats = transport.stats
    return {
        "failed": stats.dropped_failed,
        "partition": stats.dropped_partition,
        "loss": stats.dropped_loss,
    }


async def paired_endpoints(clock, spec):
    """``a`` on transport 0 / site 0, ``b`` on transport 1 / site 1, and
    a process collecting what ``b`` receives."""
    t0, t1 = await start_pair(clock, spec)
    box = Mailbox(clock, name="b")
    t0.register("store-0-0", spec.nodes[0].site, Mailbox(clock, name="a"))
    t1.register("store-1-0", spec.nodes[1].site, box)
    received = []

    def drain():
        while True:
            message = yield box.get()
            received.append(message.body)

    clock.process(drain())
    return t0, t1, received


async def until(predicate, timeout_s=5.0):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.01)


def test_a_site_partition_counts_each_frame_dropped_off_the_socket():
    async def main():
        clock = LiveClock()
        spec = spec_for_transport_tests()
        t0, t1, received = await paired_endpoints(clock, spec)
        try:
            t1.partition_sites(spec.nodes[0].site, spec.nodes[1].site)
            for index in range(3):
                t0.send("store-0-0", "store-1-0", "n", index)
            # The partition is judged where the frame lands.
            await until(lambda: t1.stats.dropped_partition >= 3)
            t1.heal_all()
            t0.send("store-0-0", "store-1-0", "n", "marker")
            await until(lambda: received)
            assert received == ["marker"]
            assert drops(t1) == {"failed": 0, "partition": 3, "loss": 0}
            assert drops(t0) == {"failed": 0, "partition": 0, "loss": 0}
            assert (t0.stats.sent, t1.stats.delivered) == (4, 1)
        finally:
            await t0.close()
            await t1.close()
            clock.close()

    asyncio.run(main())


def test_a_site_partition_counts_each_frame_dropped_in_process():
    async def main():
        clock = LiveClock()
        spec = spec_for_transport_tests()
        transport = TcpTransport(clock, spec, listen=None)
        try:
            box = Mailbox(clock, name="b")
            transport.register("a", spec.nodes[0].site, Mailbox(clock, name="a"))
            transport.register("b", spec.nodes[1].site, box)
            transport.partition_sites(spec.nodes[0].site, spec.nodes[1].site)
            for index in range(4):
                transport.send("a", "b", "n", index)
            await until(lambda: transport.stats.dropped_partition >= 4)
            await asyncio.sleep(0.05)
            assert drops(transport) == {"failed": 0, "partition": 4, "loss": 0}
            assert transport.stats.delivered == 0
            assert not transport._outbound  # the same-process path
        finally:
            await transport.close()
            clock.close()

    asyncio.run(main())


def test_a_failed_target_counts_each_frame_dropped_off_the_socket():
    async def main():
        clock = LiveClock()
        spec = spec_for_transport_tests()
        t0, t1, received = await paired_endpoints(clock, spec)
        try:
            t1.fail_node("store-1-0")
            for index in range(2):
                t0.send("store-0-0", "store-1-0", "n", index)
            # The sender cannot know: the frames leave and die remotely.
            await until(lambda: t1.stats.dropped_failed >= 2)
            t1.recover_node("store-1-0")
            t0.send("store-0-0", "store-1-0", "n", "marker")
            await until(lambda: received)
            assert received == ["marker"]
            assert drops(t1) == {"failed": 2, "partition": 0, "loss": 0}
            assert drops(t0) == {"failed": 0, "partition": 0, "loss": 0}
        finally:
            await t0.close()
            await t1.close()
            clock.close()

    asyncio.run(main())


def test_an_unroutable_or_unencodable_frame_counts_as_loss():
    async def main():
        clock = LiveClock()
        spec = spec_for_transport_tests()
        transport = TcpTransport(clock, spec, listen=None)
        try:
            transport.register("a", spec.nodes[0].site, Mailbox(clock, name="a"))
            # No address in the spec, and it never wrote to us: no route.
            for index in range(3):
                transport.send("a", "nobody-7", "n", index)
            assert drops(transport) == {"failed": 0, "partition": 0, "loss": 3}
            # A body the wire codec refuses is lost too — and says so.
            with pytest.raises(CodecError):
                transport.send("a", "store-1-0", "n", object())
            assert drops(transport) == {"failed": 0, "partition": 0, "loss": 4}
            assert transport.stats.sent == 4 and transport.stats.delivered == 0
        finally:
            await transport.close()
            clock.close()

    asyncio.run(main())
