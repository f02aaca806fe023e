"""The forced-dequeue marker row (``FORCED_ROW``).

``LockStore.dequeue(forced=True)`` promises two things the synchFlag
fast path and the mirror's revocation rest on: the marker rides the
*same* LWT as the row delete, so no local read can show the row gone
with the marker still invisible (or the reverse); and a forced dequeue
that finds the row already gone writes no marker at all.
"""

import pytest

from repro.lockstore import LockStore
from repro.lockstore.lockstore import FORCED_ROW, LOCK_TABLE
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


def test_the_marker_appears_in_the_read_in_which_the_row_disappears():
    sim, (preemptor, watcher) = make_lockstores(("Ohio", "Oregon"))
    seen = []

    def watch():
        while not seen or seen[-1][0] == 1:
            entry, epoch, forced, _ = yield from watcher.head("k")
            seen.append((entry.lock_ref, epoch, forced))
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
    sim, (store,) = make_lockstores(("Ohio",))

    def scenario():
        ref = yield from store.generate_and_enqueue("k")
        yield from store.generate_and_enqueue("k")
        yield from store.dequeue("k", ref)  # the clean release wins
        done = yield from store.dequeue("k", ref, forced=True)
        yield sim.timeout(200.0)
        head = yield from store.head("k")
        return done, head

    done, (entry, epoch, forced, _) = run(sim, scenario())
    assert done is True  # "no-op if lockRef not in queue"
    assert entry.lock_ref == 2 and epoch is None and forced is None
    assert marker_rows(sim, store, "k") == {"guard"}


@pytest.mark.parametrize("batched", [False, True])
def test_a_forced_dequeue_writes_one_marker_naming_its_ref(batched):
    sim, (store,) = make_lockstores(("Ohio",), batched=batched)

    def scenario():
        ref = yield from store.generate_and_enqueue("k")
        yield from store.dequeue("k", ref, forced=True)
        yield sim.timeout(200.0)
        head = yield from store.head("k")
        return head

    entry, epoch, forced, _ = run(sim, scenario())
    assert entry is None and epoch is not None and forced == 1
    assert marker_rows(sim, store, "k") == {"guard", FORCED_ROW}
