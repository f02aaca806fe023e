"""Tests for the lock store (guard counter, queue, peek, dequeue)."""

from repro.lockstore import LockStore

from tests.helpers import make_store, run


def make_lockstore(host_sites=("Ohio",), **kwargs):
    sim, net, cluster, hosts = make_store(host_sites=host_sites, **kwargs)
    stores = [LockStore(cluster.coordinator_for(h), h.clock) for h in hosts]
    return sim, net, cluster, stores


def test_lock_refs_unique_and_increasing():
    sim, _net, _cluster, (ls,) = make_lockstore()

    def client():
        refs = []
        for _ in range(4):
            ref = yield from ls.generate_and_enqueue("k")
            refs.append(ref)
        return refs

    assert run(sim, client()) == [1, 2, 3, 4]


def test_peek_returns_first_in_queue():
    sim, _net, _cluster, (ls,) = make_lockstore()

    def client():
        yield from ls.generate_and_enqueue("k")
        yield from ls.generate_and_enqueue("k")
        # Peek is a local eventual read; give the local replica a moment.
        yield sim.timeout(60.0)
        entry = yield from ls.peek("k")
        return entry

    entry = run(sim, client())
    assert entry.lock_ref == 1
    assert entry.enqueued_at is not None
    assert entry.start_time is None


def test_peek_empty_queue_returns_none():
    sim, _net, _cluster, (ls,) = make_lockstore()

    def client():
        entry = yield from ls.peek("k")
        return entry

    assert run(sim, client()) is None


def test_dequeue_advances_queue():
    sim, _net, _cluster, (ls,) = make_lockstore()

    def client():
        yield from ls.generate_and_enqueue("k")
        yield from ls.generate_and_enqueue("k")
        yield from ls.dequeue("k", 1)
        yield sim.timeout(60.0)
        entry = yield from ls.peek("k")
        return entry

    assert run(sim, client()).lock_ref == 2


def test_dequeue_missing_ref_is_noop_success():
    sim, _net, _cluster, (ls,) = make_lockstore()

    def client():
        ok = yield from ls.dequeue("k", 99)
        return ok

    assert run(sim, client()) is True


def test_concurrent_enqueues_from_different_sites_stay_unique():
    sim, _net, _cluster, stores = make_lockstore(
        host_sites=("Ohio", "N.California", "Oregon")
    )
    refs = []

    def client(ls):
        for _ in range(3):
            ref = yield from ls.generate_and_enqueue("hot-key")
            refs.append(ref)

    procs = [sim.process(client(ls)) for ls in stores]
    for proc in procs:
        sim.run_until_complete(proc, limit=1e7)
    assert sorted(refs) == list(range(1, 10))


def test_guard_is_per_key():
    sim, _net, _cluster, (ls,) = make_lockstore()

    def client():
        a = yield from ls.generate_and_enqueue("key-a")
        b = yield from ls.generate_and_enqueue("key-b")
        return a, b

    assert run(sim, client()) == (1, 1)


def test_set_start_time_and_get_entry():
    sim, _net, _cluster, (ls,) = make_lockstore()

    def client():
        ref = yield from ls.generate_and_enqueue("k")
        yield from ls.set_start_time("k", ref, 1234.5)
        yield sim.timeout(60.0)
        entry = yield from ls.get_entry("k", ref)
        return entry

    entry = run(sim, client())
    assert entry.start_time == 1234.5


def test_get_entry_missing_returns_none():
    sim, _net, _cluster, (ls,) = make_lockstore()

    def client():
        entry = yield from ls.get_entry("k", 42)
        return entry

    assert run(sim, client()) is None


def test_queue_lists_in_order():
    sim, _net, _cluster, (ls,) = make_lockstore()

    def client():
        for _ in range(3):
            yield from ls.generate_and_enqueue("k")
        yield sim.timeout(60.0)
        entries = yield from ls.queue("k")
        return [e.lock_ref for e in entries]

    assert run(sim, client()) == [1, 2, 3]


def test_peek_quorum_sees_fresh_enqueue():
    """Quorum peek reflects a just-committed enqueue even if the local
    replica lags (here: local replica site partitioned during enqueue)."""
    sim, net, cluster, stores = make_lockstore(host_sites=("Ohio", "Oregon"))
    ohio_ls, oregon_ls = stores

    def client():
        yield from ohio_ls.generate_and_enqueue("k")
        entry = yield from oregon_ls.peek_quorum("k")
        return entry

    assert run(sim, client()).lock_ref == 1
