"""What one RPC costs the kernel — counted, not timed.

A delivered message runs its handler inside the delivery event, a reply
wakes its caller inside the reply's delivery, CPU time is a held core
whose end runs the rest as a continuation (no handler process), and a
node keeps one expiry timer per timeout value instead of one heap entry
per call.  These tests
pin that with exact counters (dispatches, heap depth, float-equal
deadlines), which do not depend on the host.
"""

import gc
import weakref

import pytest

from repro.core import build_music
from repro.errors import RpcTimeout
from repro.net import PROFILE_LUS, Network, Node
from repro.net.node import _ExpiryQueue
from repro.obs import SimProfiler
from repro.sim import Event, Process, RandomStreams, Simulator
from repro.store import Consistency
from tests.helpers import make_store


def build_pair(profiled=False, start=True):
    sim = Simulator()
    profiler = SimProfiler().install(sim) if profiled else None
    net = Network(sim, PROFILE_LUS, streams=RandomStreams(5))
    a = Node(sim, net, "a", "Ohio")
    b = Node(sim, net, "b", "Oregon")
    b.on("echo", lambda msg: b.reply(msg, b.payload(msg)))
    if start:
        a.start()
        b.start()
    return sim, net, a, b, profiler


def settled(node):
    """No call pending and no expiry timer armed on ``node``."""
    return not node._pending_replies and all(
        not queue.entries and not queue.armed for queue in node._expiry.values()
    )


# -- events per RPC ------------------------------------------------------------


def test_one_echo_rpc_dispatches_at_most_four_kernel_events():
    sim, _net, a, _b, profiler = build_pair(profiled=True)

    def caller():
        return (yield from a.call("b", "echo", "hi"))

    process = sim.process(caller())
    assert sim.run_until_complete(process) == "hi"
    # The caller's bootstrap, the request's delivery (the handler runs
    # inside it) and the reply's delivery (the caller resumes inside it).
    assert profiler.events == 3
    sim.run()
    # ... and the node's expiry timer, once, finding nothing to expire.
    assert profiler.events <= 4
    assert sim._heap == [] and settled(a)


def test_a_generator_handler_adds_only_the_time_it_takes():
    sim, _net, a, b, profiler = build_pair(profiled=True)

    def slow(msg):
        yield from b.compute(2.0)
        b.reply(msg, "done")

    b.on("slow", slow)

    def caller():
        return (yield from a.call("b", "slow", None))

    assert sim.run_until_complete(sim.process(caller())) == "done"
    # bootstrap, delivery (+ the handler's first step), the end of its
    # CPU hold (+ the reply's send), the reply's delivery.
    assert profiler.events == 4


def test_a_served_handler_still_costs_exactly_four_dispatches():
    sim, _net, a, b, profiler = build_pair(profiled=True)
    b.on("slow", lambda msg: b.serve(2.0, lambda request: b.reply(request, "done"), msg))

    def caller():
        return (yield from a.call("b", "slow", None))

    assert sim.run_until_complete(sim.process(caller())) == "done"
    # bootstrap, delivery (the handler serves), the hold's end (the
    # continuation replies), the reply's delivery — and no process.
    assert profiler.events == 4
    assert set(profiler.by_event_type) == {"Process.start", "Network._deliver", "_end_hold"}


def test_store_rpcs_are_answered_without_a_process(monkeypatch):
    """A contention16-shaped run at tiny scale: four clients, two
    critical sections each on one key.  Every store RPC a replica
    answers is served by continuations; none becomes a process."""
    import repro.net.node as node_module

    spawned = []

    class Counted(Process):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            spawned.append(self.name)

    monkeypatch.setattr(node_module, "Process", Counted)
    deployment = build_music(profile_name="lUs", seed=0)
    sim = deployment.sim
    sites = deployment.profile.site_names
    clients = [deployment.client(sites[i % len(sites)]) for i in range(4)]

    def worker(client):
        for _ in range(2):
            section = yield from client.critical_section("hot", timeout_ms=1e9)
            value = yield from section.get()
            yield from section.put((value or 0) + 1)
            yield from section.exit()

    for process in [sim.process(worker(client)) for client in clients]:
        sim.run_until_complete(process)
    per_kind = deployment.network.stats.per_kind
    assert per_kind["store_read"] > 0 and per_kind["paxos_commit"] > 0
    assert spawned == []


def test_a_local_one_get_resumes_its_caller_exactly_once():
    sim, _net, cluster, (host,) = make_store()
    coordinator = cluster.coordinator_for(host)
    advances = []

    class Counted(Process):
        __slots__ = ()

        def _advance(self, throw, payload):
            advances.append(sim.now)
            Process._advance(self, throw, payload)

    def caller():
        rows = yield from coordinator.get("t", "k", consistency=Consistency.LOCAL_ONE)
        return rows

    process = Counted(sim, caller())
    sim.schedule(0.0, Process.start, process)
    assert sim.run_until_complete(process) == {}
    # Its first step, then the reply: the CPU hold is not a step.
    assert len(advances) == 2 and advances[0] == 0.0


def test_a_thousand_answered_rpcs_park_nothing_in_the_heap(monkeypatch):
    sim, _net, a, _b, profiler = build_pair(profiled=True)
    callers, calls = 10, 100
    answered = []
    backlog = []  # at every add: expiry entries kept beyond the calls in flight
    add = _ExpiryQueue.add

    def counting_add(queue, *call):
        add(queue, *call)
        backlog.append(len(queue.entries) - len(queue.pending))

    monkeypatch.setattr(_ExpiryQueue, "add", counting_add)

    def caller(tag):
        for index in range(calls):
            answered.append((yield from a.call("b", "echo", (tag, index))))

    for tag in range(callers):
        sim.process(caller(tag))
    sim.run()
    assert len(answered) == callers * calls
    # Ten calls in flight: ten deliveries and one timer, not a parked
    # expiry entry for every call of the last four seconds ...
    assert profiler.heap_high_water < 32
    assert profiler.events < 3 * callers * calls
    # ... and not a queued one either: an answered call's entry goes at
    # the next call, not four simulated seconds later.
    assert len(backlog) == callers * calls and max(backlog) <= 1
    assert settled(a)


class WeakEvent(Event):
    """``Event`` has no ``__weakref__`` slot; this one can be watched."""

    __slots__ = ("__weakref__",)


def test_an_answered_calls_reply_event_dies_when_its_caller_moves_on():
    sim, _net, a, _b, _ = build_pair()
    sim.event = lambda name="": WeakEvent(sim, name)  # what call_async makes
    watched = []

    def caller():
        for index in range(3):
            handle = a.call_async("b", "echo", ["row"] * 100)
            watched.append(weakref.ref(handle))
            reply = yield handle
            assert len(reply) == 100
            del handle, reply
            # We run inside the reply's delivery, which still names the
            # event; one step on, nothing does — no expiry entry, though
            # the call's deadline is seconds away.
            yield 1.0
            assert watched[index]() is None
            assert not a._pending_replies

    gc.disable()
    try:
        sim.run_until_complete(sim.process(caller()))
    finally:
        gc.enable()
    assert sim.now < 1_000.0 and len(watched) == 3


# -- the expiry queue ------------------------------------------------------------


def test_calls_to_a_failed_node_fail_at_exactly_sent_at_plus_timeout():
    sim, net, a, _b, _ = build_pair()
    net.fail_node("b")
    # Send times and a timeout whose sums and differences are inexact in
    # binary; the later calls expire off the re-armed timer.
    starts, timeout = [0.1, 8.3, 8.3, 31.7], 44.6
    failures = []

    def caller(start):
        yield start
        sent_at = sim.now
        try:
            yield from a.call("b", "echo", None, timeout=timeout)
        except RpcTimeout as exc:
            failures.append((sent_at, sim.now, str(exc)))

    for start in starts:
        sim.process(caller(start))
    sim.run()
    assert [(sent_at, failed_at) for sent_at, failed_at, _ in failures] == [
        (start, start + timeout) for start in starts
    ]
    assert failures[0][2] == "echo to b after 44.6ms"
    assert sim._heap == [] and settled(a)


def test_mixed_timeouts_expire_in_deadline_order():
    sim, net, a, _b, _ = build_pair()
    net.fail_node("b")
    expired = []

    def caller(tag, start, timeout):
        yield start
        try:
            yield from a.call("b", "echo", tag, timeout=timeout)
        except RpcTimeout:
            expired.append((tag, sim.now))

    for tag, start, timeout in [("long", 0.0, 500.0), ("short", 10.0, 100.0),
                                ("mid", 20.0, 300.0), ("short-2", 30.0, 100.0)]:
        sim.process(caller(tag, start, timeout))
    sim.run()
    assert expired == [("short", 110.0), ("short-2", 130.0), ("mid", 320.0), ("long", 500.0)]
    assert settled(a)


def test_answered_and_unanswered_calls_interleaved_fail_only_the_unanswered_on_time():
    sim, net, a, _b, _ = build_pair()
    timeout = 444.6  # inexact in binary, like the send times below
    outcomes = []  # (sent_at, finished_at, reply or None), in finishing order

    def caller(tag):
        for index in range(12):
            yield 0.1 + 7.3 * tag
            sent_at = sim.now
            try:
                reply = yield from a.call("b", "echo", (tag, index), timeout=timeout)
            except RpcTimeout:
                reply = None
            outcomes.append((sent_at, sim.now, reply))

    # The peer is gone for a stretch in mid-stream: what the five callers
    # send before and after it is answered, what they send during it is
    # not, and the one queue holds both kinds while its timer is armed.
    sim.call_at(300.0, lambda: net.fail_node("b"))
    sim.call_at(1_100.0, lambda: net.recover_node("b"))
    for tag in range(5):
        sim.process(caller(tag))
    sim.run()
    assert len(outcomes) == 60
    failed = [(sent_at, at) for sent_at, at, reply in outcomes if reply is None]
    answered = [(sent_at, at) for sent_at, at, reply in outcomes if reply is not None]
    assert len(failed) >= 5 and len(answered) >= 20
    assert any(sent_at > failed[-1][0] for sent_at, _ in answered)  # after the heal
    # Every failure lands at its own deadline, float-equal, oldest first.
    assert [at for _, at in failed] == [sent_at + timeout for sent_at, _ in failed]
    assert failed == sorted(failed)
    assert all(at < sent_at + timeout for sent_at, at in answered)
    assert sim._heap == [] and settled(a)


def test_a_reply_before_the_deadline_leaves_nothing_to_fire():
    sim, net, a, _b, _ = build_pair()
    handles = []

    def caller():
        # One answered call ahead of one that will expire, same queue.
        handles.append(a.call_async("b", "echo", "kept", timeout=200.0))
        assert (yield handles[0]) == "kept"
        net.fail_node("b")
        handles.append(a.call_async("b", "echo", "lost", timeout=200.0))

    sim.process(caller())
    sim.run(strict=False)
    kept, lost = handles
    assert kept.ok and kept.value == "kept"  # its deadline passed unnoticed
    assert not lost.ok and isinstance(lost._value, RpcTimeout)
    assert settled(a)


def test_a_reply_after_expiry_is_ignored():
    sim, _net, a, b, _ = build_pair()

    def late(msg):
        yield 300.0
        b.reply(msg, "too late")

    b.on("late", late)
    outcomes = []

    def caller():
        try:
            yield from a.call("b", "late", None, timeout=100.0)
        except RpcTimeout:
            outcomes.append(("timeout", sim.now))

    sim.process(caller())
    sim.run()  # the late reply is delivered to nobody, without error
    assert outcomes == [("timeout", 100.0)]
    assert settled(a)


# -- delivery before start() -----------------------------------------------------


def test_messages_delivered_before_start_are_handled_after_it_in_order():
    sim, _net, a, b, _ = build_pair(start=False)
    handled = []
    b.on("note", lambda msg: handled.append(("note", msg.body)))

    def task(msg):
        handled.append(("task", msg.body))
        yield 1.0
        handled.append(("task done", msg.body))

    b.on("task", task)
    a.send("b", "note", 1)
    a.send("b", "task", 2)
    a.send("b", "note", 3)
    sim.run()
    assert handled == []  # delivered, kept
    b.start()
    assert handled == [("note", 1), ("task", 2), ("note", 3)]
    a.send("b", "note", 4)
    sim.run()
    assert handled[3:] == [("task done", 2), ("note", 4)]
    b.start()  # idempotent: nothing is handled twice
    assert len(handled) == 5


def test_a_raising_handler_fails_the_run_at_the_delivery():
    sim, _net, a, b, _ = build_pair()

    def boom(msg):
        raise RuntimeError("handler bug")

    b.on("boom", boom)
    a.send("b", "boom", None)
    with pytest.raises(RuntimeError, match="handler bug"):
        sim.run()
