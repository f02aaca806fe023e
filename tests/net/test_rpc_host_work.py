"""What a store operation costs the host, counted.

The paper prices a critical section in messages and round trips, so a
message should cost the simulator a constant amount of host work, and
only for what it models: no envelope around the caller's body, no call
for observability that is off, no placement or price worked out again.
These tests count the Python function calls one warmed-up store
operation makes (``cProfile`` without builtins: exact for a seed, no
clock involved), so they hold on any machine.  Python 3.12 inlines
comprehensions, which saves the QUORUM paths a few calls.  Four MUSIC
operations are counted the same way: the lock peek of acquireLock
(``LockStore.head`` at LOCAL_ONE, which reuses its decode while the
partition is unchanged), one uncontended guarded CAS, and — through a
``MusicClient`` with read leases on — a lease-served criticalGet (one
LOCAL_ONE lock peek is all it models) and a criticalPut; and, through a
client queued behind a holder, an acquireLock poll that is not granted.
Tracing is off, so none of them opens a span.  A quorum round makes no
event per request: its replies go straight to the quorum wait.
"""

import cProfile
import gc
import sys

import pytest

from repro.core import build_music
from repro.net import REPLY_KIND
from repro.sim import Event
from repro.store import Condition, Consistency, Update

# Python calls per op: LOCAL_ONE get, QUORUM get, QUORUM put, lock
# peek, guarded CAS, lease-served criticalGet, criticalPut, acquireLock
# poll not granted.  Every limit is this test's own count, run under
# CPython 3.11.7 and 3.12.1 (3.10 counts like 3.11, 3.13 like 3.12).
KINDS = ("get_one", "get", "put", "head", "cas", "lease_get", "critical_put", "acquire_poll")
CLIENT_KINDS = ("lease_get", "critical_put", "acquire_poll")
LIMITS = (
    (39, 88, 126, 41, 437, 58, 189, 51)
    if sys.version_info >= (3, 12)
    else (39, 89, 126, 41, 447, 58, 189, 51)
)


def python_calls(thunk):
    """Python-level function calls made while ``thunk()`` runs, with the
    cyclic collector held off: a collection would also count the
    finalizers of whatever earlier tests left behind."""
    gc.collect()
    gc.disable()
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    try:
        thunk()
    finally:
        profile.disable()
        gc.enable()
    return sum(entry.callcount for entry in profile.getstats())


@pytest.fixture
def store():
    deployment = build_music(seed=0)
    return deployment, deployment.replicas[0].coordinator


def op_runner(deployment, coordinator, kind):
    """``run(key)`` runs one ``kind`` op to completion in its own process."""
    sim = deployment.sim
    writer = coordinator.node.node_id
    stamps = iter(range(1, 10**6))
    (lock_store,) = [r.lock_store for r in deployment.replicas if r.coordinator is coordinator]
    queued, values = set(), {}

    def body(key):
        if kind == "get_one":
            yield from coordinator.get("t", key, consistency=Consistency.LOCAL_ONE)
        elif kind == "get":
            yield from coordinator.get("t", key)
        elif kind == "put":
            yield from coordinator.put("t", key, None, {"v": 1}, (float(next(stamps)), writer))
        elif kind == "head":
            # Of a lock partition holding one queued lockRef, which the
            # first (warm-up) visit of a key mints.
            if key not in queued:
                queued.add(key)
                yield from lock_store.generate_and_enqueue(key)
            yield from lock_store.head(key)
        else:
            # The guard holds: it expects the value the last CAS wrote.
            current = values.get(key)
            values[key] = (current or 0) + 1
            update = Update("t", key, None, {"v": values[key]}, (0.0, writer))
            result = yield from coordinator.cas(
                "t", key, Condition("col_eq", None, "v", current), [update],
                stamp_with_ballot=True,
            )
            assert result.applied

    def nothing():
        return
        yield

    def run(key=None):
        generator = nothing() if key is None else body(key)
        return sim.run_until_complete(sim.process(generator), limit=1e12)

    return run


def client_runner(deployment, kind):
    """``run(key)`` runs one criticalGet (``lease_get``) or criticalPut
    through a ``MusicClient`` in its own process, inside a critical
    section on ``key`` that has written once, so a read lease serves
    every get; or (``acquire_poll``) one acquireLock poll of a second
    client's lockRef, queued behind that section, which is not granted."""
    sim = deployment.sim
    site = deployment.profile.site_names[0]
    client, waiter = deployment.client(site), deployment.client(site)
    values = iter(range(1, 10**6))
    sections, queued = {}, {}

    def enter(key):
        section = sections[key] = yield from client.critical_section(key)
        yield from section.put(0)
        if kind == "acquire_poll":
            queued[key] = yield from waiter.create_lock_ref(key)

    def body(key):
        section = sections[key]
        if kind == "lease_get":
            yield from client.critical_get(key, section.lock_ref)
        elif kind == "critical_put":
            yield from client.critical_put(key, section.lock_ref, next(values))
        else:
            granted = yield from waiter.acquire_lock(key, queued[key])
            assert not granted

    def nothing():
        return
        yield

    def run(key=None):
        if key is not None and key not in sections:
            sim.run_until_complete(sim.process(enter(key)), limit=1e12)
        generator = nothing() if key is None else body(key)
        return sim.run_until_complete(sim.process(generator), limit=1e12)

    return run


def calls_per_op(deployment, coordinator, kind):
    """The calls one op adds to running an empty process, averaged over
    eight ops on four keys after eight warm-up ops (placements, sizes
    and handler stand-ins are cached by then)."""
    if kind in CLIENT_KINDS:
        run = client_runner(deployment, kind)
    else:
        run = op_runner(deployment, coordinator, kind)
    keys = [f"k{index % 4}" for index in range(8)]
    for key in keys:
        run(key)
    counts = [python_calls(lambda: run(key)) for key in keys]
    return sum(counts) / len(counts) - python_calls(run)


@pytest.mark.parametrize("kind, limit", zip(KINDS, LIMITS))
def test_a_store_op_costs_a_bounded_number_of_calls(kind, limit):
    deployment = build_music(seed=0, read_leases=kind in ("lease_get", "critical_put"))
    coordinator = deployment.replicas[0].coordinator
    assert calls_per_op(deployment, coordinator, kind) <= limit


@pytest.mark.parametrize("kind", ["get", "put"])
def test_a_quorum_op_constructs_one_event(kind, monkeypatch):
    """A warmed QUORUM get or put makes one ``Event``, the ``done`` its
    process waits on: no request of its round gets a reply event."""
    deployment = build_music(seed=0)
    run = op_runner(deployment, deployment.replicas[0].coordinator, kind)
    for index in range(8):
        run(f"k{index % 4}")
    made = []
    init = Event.__init__

    def counting(self, *args, **kwargs):
        if type(self) is Event:  # not the Process that runs the op
            made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Event, "__init__", counting)
    run("k0")
    assert len(made) == 1


def test_every_counted_get_is_lease_served():
    """The eight gets ``calls_per_op`` counts, after its eight warm-up
    gets, are all served by the read lease (no quorum read)."""
    deployment = build_music(seed=0, read_leases=True)
    run = client_runner(deployment, "lease_get")

    def served():
        counters = [replica.counters for replica in deployment.replicas]
        return [sum(c["lease_hits"] for c in counters), sum(c["lease_misses"] for c in counters)]

    keys = [f"k{index % 4}" for index in range(8)]
    for key in keys:
        run(key)
    hits, misses = served()
    for key in keys:
        run(key)
    assert served() == [hits + 8, misses]


def test_a_request_and_its_reply_carry_the_bodies_themselves(store):
    """The tapped request's body is the dict the coordinator built, and
    the reply's body is the dict the replica answered with."""
    deployment, coordinator = store
    node = coordinator.node
    built, answered, tapped = [], [], []
    call_async = node.call_async

    def recording_call(dst, kind, body, *args, **kwargs):
        built.append(body)
        return call_async(dst, kind, body, *args, **kwargs)

    node.call_async = recording_call
    for replica in deployment.store.replicas:

        def recording_answer(answer, original=replica._answer):
            answered.append(answer[1])
            original(answer)

        replica._answer = recording_answer
    deployment.network.add_tap(tapped.append)
    op_runner(deployment, coordinator, "get_one")("k0")

    (request,) = [message for message in tapped if message.kind == "store_read"]
    (reply,) = [
        message for message in tapped
        if message.kind == REPLY_KIND and message.request_id == request.request_id
    ]
    assert built == [request.body] and request.body is built[0]
    assert request.request_id >= 0 and request.trace is None
    assert (reply.src, reply.dst) == (request.dst, request.src)
    assert len(answered) == 1 and reply.body is answered[0]


def test_sending_to_an_unregistered_id_raises(store):
    deployment, coordinator = store
    stats = deployment.network.stats
    sent = stats.sent
    with pytest.raises(KeyError):
        deployment.network.send(coordinator.node.node_id, "nobody", "ping", None)
    assert stats.sent == sent
