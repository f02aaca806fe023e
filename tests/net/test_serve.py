"""A served continuation is the step it replaces, minus the generator.

``Node.serve`` holds a core FIFO, as ``compute`` (its generator face)
does, and runs the rest of the work as a continuation when the hold
ends, *as the caller*.
Each test here pins one way a continuation could drift from the process
step it replaced — and fails on the naive version of it: cores granted
in the wrong order, an interrupt that leaks a core or still sends,
argument errors surfacing from the kernel loop instead of the caller,
errors lost between continuation and caller, and an fsync the reply
does not wait out.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MusicConfig, build_music
from repro.errors import QuorumUnavailable
from repro.net import PROFILE_LUS, Network, Node
from repro.sim import Interrupt, RandomStreams, Simulator
from repro.storage import StorageEngineConfig
from repro.store import Consistency, StoreConfig
from repro.store.types import Update

from tests.helpers import make_store, run

# -- contended cores -----------------------------------------------------------


def run_schedule(jobs, cores, served):
    """Run ``jobs`` — (arrival, hold, tail, how) — on one node; return
    what happened, in order.  A job asks for a core (logged as "ask"),
    holds it for ``hold`` ms, then logs its end and a follow-up ``tail``
    ms later (what a reply's send is to a handler).  ``how`` is who
    asks: a process ("caller"), a process through ``compute``
    ("compute"), or the handler of a delivered message ("handler").
    With ``served`` false every job goes through ``compute``, the
    generator face; otherwise callers and handlers use ``serve``."""
    sim = Simulator()
    net = Network(sim, PROFILE_LUS, streams=RandomStreams(5))
    node = Node(sim, net, "n", "Ohio", cores=cores)
    sender = Node(sim, net, "s", "Ohio")
    log = []

    def finish(job):
        index, tail, done = job
        log.append(("end", index, sim.now))
        sim.schedule(tail, lambda i: log.append(("tail", i, sim.now)), index)
        if done is not None:
            done.succeed()

    def handler(msg):
        index, hold, tail = msg.body
        log.append(("ask", index, sim.now))
        if served:
            node.serve(hold, finish, (index, tail, None))
            return None

        def step():
            yield from node.compute(hold)
            finish((index, tail, None))

        return step()

    node.on("job", handler)
    node.start()
    sender.start()

    def job(index, arrival, hold, tail, how):
        yield arrival
        if how == "handler":
            sender.send("n", "job", (index, hold, tail))
            return
        log.append(("ask", index, sim.now))
        if served and how == "caller":
            done = sim.event()
            node.serve(hold, finish, (index, tail, done), done)
            yield done
        else:
            yield from node.compute(hold)
            finish((index, tail, None))

    for index, (arrival, hold, tail, how) in enumerate(jobs):
        sim.process(job(index, arrival, hold, tail, how))
    sim.run()
    assert node.cpu.in_use == 0 and node.cpu.queue_length == 0
    return log


def fifo_model(jobs, cores, asks):
    """The schedule a FIFO multi-server queue gives, worked out without
    the simulator: in the order the jobs asked (``asks``: (index, time)),
    each starts at the later of its ask and the earliest time a core is
    free, and ends ``hold`` later.  Returns {index: (end, tail time)}."""
    free = [0.0] * cores
    model = {}
    for index, asked in asks:
        _arrival, hold, tail, _how = jobs[index]
        core = min(range(cores), key=free.__getitem__)
        free[core] = max(asked, free[core]) + hold
        model[index] = (free[core], free[core] + tail)
    return model


def observed(log):
    ends = {index: at for kind, index, at in log if kind == "end"}
    tails = {index: at for kind, index, at in log if kind == "tail"}
    return {index: (ends[index], tails[index]) for index in ends}


jobs = st.lists(
    st.tuples(
        st.sampled_from([0.0, 1.0, 2.0]),  # arrival: ties are the point
        st.sampled_from([0.5, 1.0, 2.0]),  # hold
        st.sampled_from([0.0, 0.5, 1.0]),  # tail
        st.sampled_from(["caller", "compute", "handler"]),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(jobs=jobs, cores=st.integers(min_value=1, max_value=3))
def test_served_and_computed_holds_share_cores_as_a_fifo_queue_does(jobs, cores):
    for served in (True, False):
        log = run_schedule(jobs, cores, served)
        asks = [(index, at) for kind, index, at in log if kind == "ask"]
        assert observed(log) == fifo_model(jobs, cores, asks)


def test_a_core_granted_inside_a_continuation_is_deferred_like_a_process():
    """One core, two callers: the first one's continuation releases the
    core to the queued second *and then* schedules its follow-up.  As
    from a process, the grant is deferred, so the follow-up's heap entry
    comes first and wins the tie at t=2 — granted in place, the second
    hold's end would be pushed, and run, first."""
    jobs = [(0.0, 1.0, 1.0, "caller"), (0.0, 1.0, 0.0, "caller")]
    log = run_schedule(jobs, cores=1, served=True)
    assert log == [
        ("ask", 0, 0.0), ("ask", 1, 0.0),
        ("end", 0, 1.0), ("tail", 0, 2.0), ("end", 1, 2.0), ("tail", 1, 2.0),
    ]
    assert log == run_schedule(jobs, cores=1, served=False)


# -- interrupts --------------------------------------------------------------------


def test_a_caller_interrupted_in_its_hold_gives_the_core_back_and_sends_nothing():
    sim, net, cluster, (host,) = make_store()
    coordinator = cluster.coordinator_for(host)
    service = cluster.config.coordinator_service_ms
    seen = []

    def caller():
        try:
            yield from coordinator.get("t", "k")
        except Interrupt:
            seen.append((sim.now, host.cpu.in_use))

    process = sim.process(caller())
    sim.run(until=service / 2)
    assert host.cpu.in_use == 1
    sent = net.stats.sent
    process.interrupt("stop")
    sim.run()
    assert seen == [(service / 2, 0)]  # released at the interrupt instant
    assert net.stats.sent == sent  # and the hold's end sent nothing
    assert host.cpu.total_busy_time == service / 2


def test_a_queued_caller_interrupted_leaves_the_queue():
    sim, net, cluster, _hosts = make_store()
    host = Node(sim, net, "one-core", "Ohio", cores=1)
    host.start()
    coordinator = cluster.coordinator_for(host)
    finished = []

    def caller(tag):
        try:
            yield from coordinator.get("t", tag)
            finished.append(tag)
        except Interrupt:
            finished.append(("interrupted", tag, sim.now))

    sim.process(caller("first"))
    second = sim.process(caller("second"))
    sim.run(until=0.01)
    assert host.cpu.queue_length == 1
    second.interrupt()
    sim.run()
    assert finished == [("interrupted", "second", 0.01), "first"]
    assert host.cpu.in_use == 0 and host.cpu.queue_length == 0
    assert net.stats.per_kind["store_read"] == 3  # the first get's quorum fan-out only


def test_a_detector_stopped_mid_scan_frees_its_core_and_scans_nothing():
    config = MusicConfig(failure_detection_enabled=True)
    deployment = build_music(seed=3, music_config=config)
    sim = deployment.sim
    scan_at = config.detector_scan_interval_ms
    sim.run(until=scan_at + 0.05)  # every replica is inside scan_keys' hold
    replicas = [detector.replica for detector in deployment.detectors]
    assert replicas and all(replica.cpu.in_use == 1 for replica in replicas)
    for detector in deployment.detectors:
        detector.stop()
    sim.run(until=scan_at + 100.0)
    assert all(replica.cpu.in_use == 0 for replica in replicas)
    assert deployment.network.stats.per_kind.get("store_scan", 0) == 0


# -- errors ---------------------------------------------------------------------------


def test_argument_errors_raise_in_the_callers_step_before_the_hold():
    sim, net, cluster, (host,) = make_store()
    coordinator = cluster.coordinator_for(host)
    stamp = (1.0, "w")
    attempts = [
        lambda: coordinator.get("t", "k", consistency="FANCY"),
        lambda: coordinator.put("t", "k", "c", {"v": 1}, stamp, consistency="FANCY"),
        lambda: coordinator.write(
            [Update("t", "k", "c", {"v": 1}, stamp), Update("t", "j", "c", {"v": 1}, stamp)],
            Consistency.QUORUM,
        ),
    ]
    seen = []

    def caller():
        for attempt in attempts:
            try:
                yield from attempt()
            except ValueError:
                seen.append((sim.now, host.cpu.in_use, net.stats.sent))

    run(sim, caller())
    assert seen == [(0.0, 0, 0)] * len(attempts)
    assert host.cpu.total_busy_time == 0.0


def test_an_error_the_continuation_meets_raises_at_the_callers_yield():
    config = StoreConfig(replication_factor=1, anti_entropy_enabled=False)
    sim, net, cluster, (host,) = make_store(config=config)
    coordinator = cluster.coordinator_for(host)
    # A key whose one replica is in another site than the caller's.
    key = next(
        f"k{i}" for i in range(100)
        if net.site_of(coordinator.replicas(f"k{i}")[0]) != host.site
    )
    seen = []

    def caller():
        try:
            yield from coordinator.get("t", key, consistency=Consistency.LOCAL_ONE)
        except QuorumUnavailable:
            seen.append((sim.now, net.stats.sent))

    run(sim, caller())
    assert seen == [(config.coordinator_service_ms, 0)]


def test_a_continuation_that_raises_fails_the_run_at_the_holds_end():
    sim = Simulator()
    net = Network(sim, PROFILE_LUS, streams=RandomStreams(5))
    node = Node(sim, net, "n", "Ohio")
    node.start()

    def boom(_arg):
        raise RuntimeError("continuation bug")

    def caller():
        done = sim.event()
        node.serve(2.5, boom, None, done)
        yield done

    sim.process(caller())
    with pytest.raises(RuntimeError, match="continuation bug"):
        sim.run()
    assert sim.now == 2.5


# -- fsync latency -----------------------------------------------------------------


def _write_acks(fsync_ms, crash_victim_at=None):
    """One quorum put under ``wal_sync="always"``; returns the store
    write acks as ``{replica: sent_at}``, the put's outcome, and the
    cluster."""
    config = StoreConfig(
        anti_entropy_enabled=False,
        storage=StorageEngineConfig(wal_sync="always", fsync_latency_ms=fsync_ms),
    )
    sim, net, cluster, (host,) = make_store(config=config)
    coordinator = cluster.coordinator_for(host)
    acks = {}
    net.add_tap(
        lambda m: acks.__setitem__(m.src, m.sent_at)
        if m.kind == "__reply__" and m.dst == host.node_id else None
    )
    victim = cluster.replicas[0]
    if crash_victim_at is not None:
        sim.call_at(crash_victim_at, victim.crash)

    def caller():
        yield from coordinator.put("t", "k", "c", {"v": 1}, (1.0, "w"))
        return sim.now

    return acks, run(sim, caller()), victim


def test_a_write_is_acknowledged_exactly_one_fsync_later():
    fsync_ms = 3.75
    instant, _, _ = _write_acks(0.0)
    waited, _, _ = _write_acks(fsync_ms)
    assert set(waited) == set(instant) and len(waited) == 3
    assert waited == {node: sent_at + fsync_ms for node, sent_at in instant.items()}


def test_a_crash_during_the_fsync_neither_applies_nor_acknowledges():
    fsync_ms = 3.75
    instant, _, victim = _write_acks(0.0)
    crash_at = instant[victim.node_id] + fsync_ms / 2
    acks, _, victim = _write_acks(fsync_ms, crash_victim_at=crash_at)
    assert victim.node_id not in acks and len(acks) == 2  # the put still had its quorum
    assert victim.engine.crashed
    assert victim.engine.live_rows("t", "k") == {}
    assert victim.engine.wal.records == []  # the unsynced record went with the crash
