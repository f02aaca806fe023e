"""Kernel micro-benchmarks: allocation counters under the self-profiler.

These pin the scheduler-fast-path guarantees with exact counter
assertions rather than timing (timing is machine noise; counters are
deterministic):

- zero-delay scheduling (callback hops, same-step triggers) bypasses
  ``heapq`` entirely — ``profiler.heap_pushes`` only moves for
  positive-delay work;
- RPC envelope construction is counted per ``call_async``;
- hot-path events carry constant or container-owned names (no per-event
  f-string allocation);
- the profiled dispatch is bit-identical to the plain one.
"""

from repro.net import PROFILE_LUS, Network
from repro.net.node import Node
from repro.obs.prof import SimProfiler
from repro.sim import Mailbox, RandomStreams, Simulator


def test_zero_delay_scheduling_bypasses_the_heap():
    sim = Simulator()
    profiler = SimProfiler().install(sim)
    hops = 200
    seen = []

    def proc():
        for index in range(hops):
            # An immediately-triggered event resumes via the ready
            # queue: a same-time hop, no heap involvement.
            event = sim.event()
            event.succeed(index)
            seen.append((yield event))

    sim.process(proc())
    sim.run()
    assert seen == list(range(hops))
    # One push for nothing: the process bootstrap itself is delay-0 and
    # also bypasses the heap.
    assert profiler.heap_pushes == 0
    assert profiler.events == hops + 1  # hops resumes + bootstrap
    assert sim.now == 0.0


def test_heap_pushes_count_only_future_time_work():
    sim = Simulator()
    profiler = SimProfiler().install(sim)
    timeouts = 50

    def proc():
        for _ in range(timeouts):
            yield sim.timeout(1.0)
        for _ in range(25):
            event = sim.event()
            event.succeed()
            yield event  # zero-delay: must not touch the heap

    sim.process(proc())
    sim.run()
    assert profiler.heap_pushes == timeouts
    assert sim.now == float(timeouts)


def test_timeout_events_use_a_constant_name():
    sim = Simulator()
    first = sim.timeout(1.0)
    second = sim.timeout(2.0)
    assert first.name == "Timeout"
    # The same string object, not a fresh per-event format.
    assert first.name is second.name
    sim.run()


def test_mailbox_and_resource_events_reuse_container_name():
    sim = Simulator()
    box = Mailbox(sim, name="inbox:n1")
    box.put("x")
    get_event = box.get()
    assert get_event.name is box.name

    from repro.sim import Resource

    cpu = Resource(sim, capacity=1, name="cpu:n1")
    cpu.hold(1.0, lambda _arg: None, None)
    cpu.hold(1.0, lambda _arg: None, None)  # queued behind the first
    (grant,) = cpu._waiters
    assert grant.name is cpu.name
    sim.run()


def test_rpc_envelope_counter_and_cached_rpc_names():
    sim = Simulator()
    profiler = SimProfiler().install(sim)
    net = Network(sim, PROFILE_LUS, streams=RandomStreams(3))
    a = Node(sim, net, "a", "Ohio")
    b = Node(sim, net, "b", "Oregon")
    b.on("echo", lambda msg: b.reply(msg, Node.payload(msg)))
    a.start()
    b.start()
    replies = []
    calls = 10

    def caller():
        for index in range(calls):
            reply = yield from a.call("b", "echo", index)
            replies.append(reply)

    sim.process(caller())
    sim.run()
    assert replies == list(range(calls))
    assert profiler.rpc_envelopes == calls
    # Reply events share one interned per-kind name (no per-RPC string).
    assert a._rpc_names == {"echo": "rpc:echo"}


def test_profiled_run_is_bit_identical_to_plain_run():
    def workload(sim, net, nodes):
        a, b = nodes
        b.on("bump", lambda msg: b.reply(msg, Node.payload(msg) + 1))
        a.start()
        b.start()
        trace = []

        def caller():
            total = 0
            for index in range(20):
                total = yield from a.call("b", "bump", total)
                trace.append((sim.now, total))
                yield sim.timeout(0.5)

        sim.process(caller())
        sim.run()
        return trace

    def build(profile):
        sim = Simulator()
        profiler = SimProfiler().install(sim) if profile else None
        net = Network(
            sim, PROFILE_LUS, streams=RandomStreams(11), jitter_fraction=0.1
        )
        nodes = (Node(sim, net, "a", "Ohio"), Node(sim, net, "b", "Oregon"))
        return workload(sim, net, nodes), profiler

    plain, _ = build(profile=False)
    profiled, profiler = build(profile=True)
    assert plain == profiled  # same timestamps, same values, same order
    assert profiler.events > 0
    assert profiler.heap_pushes > 0


def test_snapshot_reports_allocation_counters():
    sim = Simulator()
    profiler = SimProfiler().install(sim)

    def proc():
        yield sim.timeout(1.0)

    sim.process(proc())
    sim.run()
    snapshot = profiler.snapshot()
    assert snapshot["heap_pushes"] == profiler.heap_pushes == 1
    assert snapshot["rpc_envelopes"] == 0
    # bootstrap + timeout fire (which resumes the process in place)
    assert snapshot["events"] == profiler.events == 2
    profiler.uninstall()
    # Counters survive uninstall (the bench snapshot happens after).
    assert profiler.heap_pushes == 1


def test_swallowed_failures_reported_by_kernel_counter():
    sim = Simulator()
    winner = sim.event()
    loser = sim.event()

    def proc():
        yield sim.any_of([winner, loser])

    sim.process(proc())
    sim.call_at(1.0, lambda: winner.succeed())
    sim.call_at(2.0, lambda: loser.fail(RuntimeError("defused")))
    sim.run()
    assert sim.swallowed_failures == 1
