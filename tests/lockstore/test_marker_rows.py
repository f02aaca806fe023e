"""The forced-dequeue marker rows (``FORCED_ROW`` / ``LEASE_ROW``).

``LockStore.dequeue(forced=True)`` promises two things the synchFlag
fast path and the read leases rest on: the markers ride the *same* LWT
as the row delete, so no local read can show the row gone with the
markers still invisible (or the reverse); and a forced dequeue that
finds the row already gone writes no marker at all.
"""

import pytest

from repro.lockstore import LockStore
from repro.lockstore.lockstore import FORCED_ROW, LEASE_ROW, LOCK_TABLE
from repro.store import Consistency

from tests.helpers import make_store, run


def make_lockstores(host_sites, **kwargs):
    sim, _net, cluster, hosts = make_store(host_sites=host_sites)
    stores = [
        LockStore(cluster.coordinator_for(host), host.clock, **kwargs)
        for host in hosts
    ]
    return sim, stores


def marker_rows(sim, store, key):
    rows = run(sim, store.coordinator.get(
        LOCK_TABLE, key, consistency=Consistency.QUORUM
    ))
    return {clustering for clustering in rows if isinstance(clustering, str)}


def test_markers_appear_in_the_read_in_which_the_row_disappears():
    sim, (preemptor, watcher) = make_lockstores(
        ("Ohio", "Oregon"), lease_rows=True
    )
    seen = []

    def watch():
        while not seen or seen[-1][0] == 1:
            entry, epoch, revoked, _ = yield from watcher.head("k")
            seen.append((entry.lock_ref, epoch, revoked))
            yield sim.timeout(1.0)

    def scenario():
        yield from preemptor.generate_and_enqueue("k")
        yield from preemptor.generate_and_enqueue("k")
        yield sim.timeout(200.0)  # both rows are at every replica
        watching = sim.process(watch())
        yield from preemptor.dequeue("k", 1, forced=True)
        yield watching

    run(sim, scenario())
    before = [obs for obs in seen if obs[0] == 1]
    after = [obs for obs in seen if obs[0] == 2]
    # The watcher polled across the moment the preemption reached its
    # site's replica, and every read is one of exactly two pictures.
    assert before and after and len(before) + len(after) == len(seen)
    assert all(obs == (1, None, None) for obs in before)
    assert all(obs[1] is not None and obs[2] == 1 for obs in after)


def test_forced_dequeue_that_finds_the_row_gone_writes_no_marker():
    sim, (store,) = make_lockstores(("Ohio",), lease_rows=True)

    def scenario():
        ref = yield from store.generate_and_enqueue("k")
        yield from store.generate_and_enqueue("k")
        yield from store.dequeue("k", ref)  # the clean release wins
        done = yield from store.dequeue("k", ref, forced=True)
        yield sim.timeout(200.0)
        head = yield from store.head("k")
        return done, head

    done, (entry, epoch, revoked, _) = run(sim, scenario())
    assert done is True  # "no-op if lockRef not in queue"
    assert entry.lock_ref == 2 and epoch is None and revoked is None
    assert marker_rows(sim, store, "k") == {"guard"}


@pytest.mark.parametrize("lease_rows", [False, True])
def test_lease_row_is_written_only_with_lease_rows_on(lease_rows):
    sim, (store,) = make_lockstores(("Ohio",), lease_rows=lease_rows)

    def scenario():
        ref = yield from store.generate_and_enqueue("k")
        yield from store.dequeue("k", ref, forced=True)
        yield sim.timeout(200.0)
        head = yield from store.head("k")
        return head

    entry, epoch, revoked, _ = run(sim, scenario())
    assert entry is None and epoch is not None
    assert revoked == (1 if lease_rows else None)
    expected = {"guard", FORCED_ROW} | ({LEASE_ROW} if lease_rows else set())
    assert marker_rows(sim, store, "k") == expected
