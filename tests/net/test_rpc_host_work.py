"""What a store operation costs the host, counted.

The paper prices a critical section in messages and round trips, so a
message should cost the simulator a constant amount of host work, and
only for what it models: no envelope around the caller's body, no call
for observability that is off, no placement or price worked out again.
These tests count the Python function calls one warmed-up store
operation makes (``cProfile`` without builtins: exact for a seed, no
clock involved), so they hold on any machine.  Python 3.12 inlines
comprehensions, which saves the QUORUM paths a few calls.  Two MUSIC
operations are counted the same way: the lock peek of acquireLock
(``LockStore.head`` at LOCAL_ONE, which reuses its decode while the
partition is unchanged) and one uncontended guarded CAS.
"""

import cProfile
import sys

import pytest

from repro.core import build_music
from repro.net import REPLY_KIND
from repro.store import Condition, Consistency, Update

# Python calls per op: LOCAL_ONE get, QUORUM get, QUORUM put, lock
# peek, guarded CAS.  The peek and CAS limits are this test's counts on
# 3.11; for 3.12 the CAS limit is that count less the 19 calls an
# ad-hoc count of the same CAS saves on 3.12 (628 -> 609), not a run
# of this test there.
KINDS = ("get_one", "get", "put", "head", "cas")
LIMITS = (
    (49, 123, 196, 54, 610) if sys.version_info >= (3, 12) else (49, 127, 198, 54, 629)
)


def python_calls(thunk):
    """Python-level function calls made while ``thunk()`` runs."""
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    try:
        thunk()
    finally:
        profile.disable()
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


def calls_per_op(deployment, coordinator, kind):
    """The calls one op adds to running an empty process, averaged over
    eight ops on four keys after eight warm-up ops (placements, sizes
    and handler stand-ins are cached by then)."""
    run = op_runner(deployment, coordinator, kind)
    keys = [f"k{index % 4}" for index in range(8)]
    for key in keys:
        run(key)
    counts = [python_calls(lambda: run(key)) for key in keys]
    return sum(counts) / len(counts) - python_calls(run)


@pytest.mark.parametrize("kind, limit", zip(KINDS, LIMITS))
def test_a_store_op_costs_a_bounded_number_of_calls(store, kind, limit):
    deployment, coordinator = store
    assert calls_per_op(deployment, coordinator, kind) <= limit


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
