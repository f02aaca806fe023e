"""Edge cases of the Node RPC machinery."""

import pytest

from repro.errors import RpcTimeout
from repro.net import PROFILE_LUS, Network, Node
from repro.sim import RandomStreams, Simulator


def build_pair():
    sim = Simulator()
    net = Network(sim, PROFILE_LUS, streams=RandomStreams(9))
    a = Node(sim, net, "a", "Ohio")
    b = Node(sim, net, "b", "Oregon")
    for node in (a, b):
        node.start()
    return sim, net, a, b


def test_call_async_returns_event_usable_directly():
    sim, _net, a, b = build_pair()
    b.on("echo", lambda msg: b.reply(msg, b.payload(msg)))
    results = []

    def client():
        event = a.call_async("b", "echo", 42)
        assert not event.triggered
        value = yield event
        results.append(value)

    sim.run_until_complete(sim.process(client()))
    assert results == [42]


def test_duplicate_reply_is_ignored():
    """A handler that replies twice must not corrupt the pending map."""
    sim, _net, a, b = build_pair()

    def double_reply(msg):
        b.reply(msg, "first")
        b.reply(msg, "second")

    b.on("dbl", double_reply)

    def client():
        value = yield from a.call("b", "dbl", None)
        return value

    proc = sim.process(client())
    value = sim.run_until_complete(proc)
    assert value == "first"
    sim.run()  # the late duplicate drains without error


def test_reply_after_timeout_is_dropped():
    sim, _net, a, b = build_pair()

    def slow(msg):
        def later():
            yield sim.timeout(500.0)
            b.reply(msg, "too late")

        return later()

    b.on("slow", slow)
    outcomes = []

    def client():
        try:
            yield from a.call("b", "slow", None, timeout=100.0)
        except RpcTimeout:
            outcomes.append("timeout")

    sim.process(client())
    sim.run()
    assert outcomes == ["timeout"]


def test_crash_between_request_and_reply():
    sim, net, a, b = build_pair()

    def flaky(msg):
        def later():
            yield sim.timeout(10.0)
            b.reply(msg, "reply")

        return later()

    b.on("flaky", flaky)
    outcomes = []

    def client():
        try:
            yield from a.call("b", "flaky", None, timeout=300.0)
            outcomes.append("replied")
        except RpcTimeout:
            outcomes.append("timeout")

    def crasher():
        yield sim.timeout(20.0)  # after b received and processed, reply in flight
        net.fail_node("b")

    sim.process(client())
    sim.process(crasher())
    sim.run()
    assert outcomes == ["timeout"]  # the in-flight reply was dropped


def test_registering_reply_kind_rejected():
    sim, _net, a, _b = build_pair()
    with pytest.raises(ValueError):
        a.on("__reply__", lambda msg: None)


def test_start_is_idempotent():
    sim, _net, a, b = build_pair()
    a.start()
    a.start()
    b.on("ping", lambda msg: b.reply(msg, "pong"))

    def client():
        value = yield from a.call("b", "ping", None)
        return value

    assert sim.run_until_complete(sim.process(client())) == "pong"


def test_call_quorum_empty_destinations():
    sim, _net, a, _b = build_pair()
    assert a.call_quorum([], "echo", None, needed=0).value == []
