"""Tests for Node dispatch, RPC and quorum waiting."""

import pytest

from repro.errors import QuorumUnavailable, RpcTimeout
from repro.net import PROFILE_LUS, REPLY_KIND, Network, Node, quorum_size
from repro.sim import RandomStreams, Simulator


class EchoNode(Node):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.on("echo", self._handle_echo)
        self.on("slow_echo", self._handle_slow_echo)
        self.on("note", self._handle_note)
        self.notes = []

    def _handle_echo(self, msg):
        self.reply(msg, {"echoed": self.payload(msg)})

    def _handle_slow_echo(self, msg):
        def work():
            yield self.sim.timeout(50.0)
            self.reply(msg, self.payload(msg))

        return work()

    def _handle_note(self, msg):
        self.notes.append(msg.body)


def build(sites=(("n1", "Ohio"), ("n2", "N.California"), ("n3", "Oregon"))):
    sim = Simulator()
    net = Network(sim, PROFILE_LUS, streams=RandomStreams(1))
    nodes = {}
    for node_id, site in sites:
        node = EchoNode(sim, net, node_id, site)
        node.start()
        nodes[node_id] = node
    return sim, net, nodes


def test_rpc_round_trip_costs_one_rtt():
    sim, _, nodes = build()
    results = []

    def client():
        reply = yield from nodes["n1"].call("n2", "echo", "hi")
        results.append((reply, sim.now))

    sim.process(client())
    sim.run()
    reply, elapsed = results[0]
    assert reply == {"echoed": "hi"}
    assert elapsed == pytest.approx(53.79, rel=0.02)


def test_rpc_generator_handler_runs_concurrently():
    sim, _, nodes = build()
    finish_times = {}

    def client(tag):
        yield from nodes["n1"].call("n2", "slow_echo", tag)
        finish_times[tag] = sim.now

    sim.process(client("a"))
    sim.process(client("b"))
    sim.run()
    # Both handlers sleep 50ms; concurrent execution means both finish
    # around one RTT + 50ms, not 2x50ms apart.
    assert abs(finish_times["a"] - finish_times["b"]) < 1.0


def test_rpc_timeout_on_dead_peer():
    sim, net, nodes = build()
    net.fail_node("n2")
    outcomes = []

    def client():
        try:
            yield from nodes["n1"].call("n2", "echo", "hi", timeout=500.0)
        except RpcTimeout:
            outcomes.append(sim.now)

    sim.process(client())
    sim.run()
    assert outcomes == [500.0]


def test_one_way_send_dispatches_without_reply():
    sim, _, nodes = build()
    nodes["n1"].send("n3", "note", {"k": 1})
    sim.run()
    assert len(nodes["n3"].notes) == 1


def test_unknown_kind_raises():
    sim, _, nodes = build()
    nodes["n1"].send("n2", "mystery", None)
    with pytest.raises(LookupError, match="mystery"):
        sim.run()


def test_quorum_size():
    assert quorum_size(1) == 1
    assert quorum_size(3) == 2
    assert quorum_size(5) == 3
    assert quorum_size(9) == 5
    assert quorum_size(4) == 3


def test_call_quorum_returns_at_kth_fastest():
    """Quorum of 2-of-3 completes at the second-nearest replica's RTT."""
    sim, _, nodes = build()
    results = []

    def client():
        replies = yield nodes["n1"].call_quorum(["n1", "n2", "n3"], "echo", "q", needed=2)
        results.append((len(replies), sim.now))

    sim.process(client())
    sim.run()
    count, elapsed = results[0]
    assert count == 2
    # n1 is local (fast); n2 is 53.79ms RTT; quorum formed at ~n2's reply,
    # well before n3's 72.14ms.
    assert elapsed == pytest.approx(53.79, rel=0.05)
    assert elapsed < 70.0


def test_call_quorum_fails_when_unreachable():
    sim, net, nodes = build()
    net.fail_node("n2")
    net.fail_node("n3")
    outcomes = []

    def client():
        try:
            yield nodes["n1"].call_quorum(["n1", "n2", "n3"], "echo", "q", needed=2, timeout=300.0)
        except QuorumUnavailable:
            outcomes.append("nack")

    sim.process(client())
    sim.run()
    assert outcomes == ["nack"]


def test_call_quorum_needed_exceeds_total_raises_in_the_callers_step():
    """Asking for more replies than requests sent raises at once, where
    the caller asks (it used to return an event that never triggers, so
    the caller hung); asking for all of them still succeeds, and only
    with the last reply."""
    sim, _, nodes = build()
    seen = []
    # No per-reply handle to watch: tap n1's inbox for the replies' arrivals.
    arrivals = []
    sink = nodes["n1"].inbox
    deliver = sink.put

    def tap(message):
        if message.kind == REPLY_KIND:
            arrivals.append(sim.now)
        deliver(message)

    sink.put = tap

    def too_many():
        try:
            nodes["n1"].call_quorum(["n2"], "echo", "q", needed=2)
        except QuorumUnavailable:
            seen.append(("refused", sim.now))
        yield sim.timeout(0.0)

    def every_one():
        replies = yield nodes["n1"].call_quorum(["n1", "n2", "n3"], "echo", "q", needed=3)
        seen.append(("all", len(replies), len(arrivals), sim.now == max(arrivals)))

    sim.process(too_many())
    sim.process(every_one())
    sim.run(until=1_000.0)  # well inside the RPC timeout: a hang shows as a missing entry
    assert seen == [("refused", 0.0), ("all", 3, 3, True)]


def test_a_refused_quorum_wait_sends_nothing():
    """The refusal comes before any request goes out, so no request is
    left to time out as an unhandled ``RpcTimeout`` afterwards."""
    sim, net, nodes = build()
    net.fail_node("n2")
    sent = net.stats.sent
    with pytest.raises(QuorumUnavailable):
        nodes["n1"].call_quorum(["n2"], "echo", "q", needed=2)
    assert net.stats.sent == sent
    assert nodes["n1"]._pending_replies == {}
    sim.run(until=10_000.0)  # returns: nothing is pending to fail


def test_crash_and_recover_roundtrip():
    sim, _, nodes = build()
    nodes["n2"].crash()
    assert nodes["n2"].failed
    nodes["n2"].recover()
    assert not nodes["n2"].failed
    results = []

    def client():
        reply = yield from nodes["n1"].call("n2", "echo", "back")
        results.append(reply)

    sim.process(client())
    sim.run()
    assert results == [{"echoed": "back"}]
