"""A hot key does not get slower the longer it is hot.

Every released lockRef leaves a tombstone in the key's lock partition.
Queue reads — the acquire-poll peek, the read phase of every mint and
dequeue LWT — used to walk all of them, so the host cost of a critical
section grew with the number of sections the key had ever served.  They
are now answered from the storage engine's live-row index.

These tests count Python function calls (``cProfile`` without builtins:
exact for a seed, no clock involved), so they hold on any machine.
"""

import cProfile

from repro.core import build_music
from repro.lockstore import LockStore
from repro.lockstore.lockstore import LOCK_TABLE
from repro.store import Consistency

from tests.helpers import make_store, run


def python_calls(thunk):
    """Python-level function calls made while ``thunk()`` runs."""
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    try:
        thunk()
    finally:
        profile.disable()
    return sum(entry.callcount for entry in profile.getstats())


def test_a_queue_read_costs_the_live_queue_not_the_history():
    sim, _net, cluster, (host,) = make_store()
    coordinator = cluster.coordinator_for(host)
    lockstore = LockStore(coordinator, host.clock)

    def churn(key, cycles):
        for _ in range(cycles):
            ref = yield from lockstore.generate_and_enqueue(key)
            yield from lockstore.dequeue(key, ref)
        for _ in range(2):
            yield from lockstore.generate_and_enqueue(key)
        yield sim.timeout(500.0)  # every replica has applied everything

    run(sim, churn("worn", 500))
    run(sim, churn("fresh", 0))
    replica = cluster.replicas_in_site(host.site)[0]
    assert len(replica.engine.partition_view(LOCK_TABLE, "worn")) == 503
    assert len(replica.engine.partition_view(LOCK_TABLE, "fresh")) == 3

    def local_read(key):
        return python_calls(lambda: replica.local_rows(LOCK_TABLE, key))

    def served_read(key):
        return python_calls(lambda: run(sim, coordinator.get(
            LOCK_TABLE, key, consistency=Consistency.LOCAL_ONE
        )))

    def quorum_read(key):
        return python_calls(lambda: run(sim, lockstore.peek_quorum(key)))

    assert list(replica.local_rows(LOCK_TABLE, "worn")) == ["guard", 501, 502]
    assert local_read("worn") <= 4
    # Whole read paths: 500 tombstones cost what none cost.  (A call or
    # two apart: the keys sit at different ring positions, and a timer
    # of an earlier call may expire during the read.)
    for read in (local_read, served_read, quorum_read):
        read("worn"), read("fresh")  # first use fills caches (sizes, ring)
        assert abs(read("worn") - read("fresh")) <= 10


def test_calls_per_cs_do_not_grow_over_forty_contended_rounds():
    """16 clients on one key, as in the ``contention16`` benchmark: the
    calls one CS costs in rounds 21-40 are within 5 % of rounds 6-20.
    (Rounds 1-5 are left out: all 16 clients mint at once at t=0, and
    that ballot storm costs ~1.5x a steady-state round.)  Before the
    index this ratio was 1.4 and rising."""
    clients_n, warmup, middle, last = 16, 5, 20, 40
    deployment = build_music(profile_name="lUs", seed=606)
    sim = deployment.sim
    sites = deployment.profile.site_names
    clients = [deployment.client(sites[i % len(sites)]) for i in range(clients_n)]
    marks = {rounds * clients_n: sim.event() for rounds in (warmup, middle, last)}
    completed = [0]

    def worker(client):
        while True:  # never the tail of a run: the sim stops at `last`
            section = yield from client.critical_section("hot", timeout_ms=1e9)
            value = yield from section.get()
            yield from section.put((value or 0) + 1)
            yield from section.exit()
            completed[0] += 1
            if completed[0] in marks:
                marks[completed[0]].succeed()

    for client in clients:
        sim.process(worker(client))

    def run_to(mark):
        def wait():
            yield mark
        return python_calls(
            lambda: sim.run_until_complete(sim.process(wait()), limit=1e12)
        )

    run_to(marks[warmup * clients_n])
    early = run_to(marks[middle * clients_n]) / (middle - warmup)
    late = run_to(marks[last * clients_n]) / (last - middle)
    assert abs(late / early - 1.0) <= 0.05, (early, late)
