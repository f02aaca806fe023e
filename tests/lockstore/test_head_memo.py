"""``LockStore.head`` decodes a lock partition once per version.

A local (LOCAL_ONE) head read hands back the replica's published live-row
view, the same object until the partition changes, so ``head`` keeps one
``(rows, decode)`` slot per key and reuses the decode while the view is
the same object.  That is sound only if every change of the partition
the head depends on — a mint, a ``startTime`` write, a release and a
forced release (the ``FORCED_ROW`` epoch and ref), each after another —
publishes a new view.  Each step below checks that the next head read
shows the change, against a decode by a lock store that has never read
the key; a memo keyed on the key alone returns the first picture forever
and fails at the first change.
"""

from repro.lockstore import LockStore
from repro.store import Consistency

from tests.helpers import make_store, run

SETTLE_MS = 200.0  # every replica has applied the last write by then


def make_lockstores():
    sim, _net, cluster, (host,) = make_store()
    coordinator = cluster.coordinator_for(host)

    def lockstore(**kwargs):
        return LockStore(coordinator, host.clock, **kwargs)

    return sim, host, lockstore


def test_every_change_of_the_partition_reaches_the_next_head():
    sim, host, lockstore = make_lockstores()
    watcher = lockstore()
    writer = lockstore()
    seen = []

    def check(step):
        yield sim.timeout(SETTLE_MS)
        head = yield from watcher.head("k")
        again = yield from watcher.head("k")
        fresh = yield from lockstore().head("k")
        assert head == fresh, step
        # Nothing changed between the two peeks: decoded once.
        assert again is head, step
        # Merged reads are built per call and always decoded.
        merged = yield from watcher.head("k", Consistency.QUORUM)
        merged_again = yield from watcher.head("k", Consistency.QUORUM)
        assert merged == merged_again == fresh and merged_again is not merged, step
        seen.append((step, head))

    def scenario():
        yield from check("empty")
        first = yield from writer.generate_and_enqueue("k")
        yield from check("mint")
        yield from writer.set_start_time("k", first, host.clock.now())
        yield from check("startTime")
        second = yield from writer.generate_and_enqueue("k")
        yield from writer.dequeue("k", first)
        yield from check("release")
        yield from writer.dequeue("k", second, forced=True)
        yield from check("forced release")
        third = yield from writer.generate_and_enqueue("k")
        yield from writer.dequeue("k", third, forced=True)
        yield from check("second forced release")

    run(sim, scenario())
    heads = dict(seen)
    assert heads["empty"] == (None, None, None, None)
    assert heads["mint"][0].lock_ref == 1 and heads["mint"][0].start_time is None
    assert heads["startTime"][0].lock_ref == 1 and heads["startTime"][0].start_time is not None
    assert heads["release"][0].lock_ref == 2 and heads["release"][1] is None
    entry, epoch, forced, _ = heads["forced release"]
    assert entry is None and epoch is not None and forced == 2
    entry, later_epoch, forced, _ = heads["second forced release"]
    assert entry is None and later_epoch > epoch and forced == 3


def test_a_write_elsewhere_keeps_the_decode():
    sim, _host, lockstore = make_lockstores()
    watcher = lockstore()
    writer = lockstore()

    def scenario():
        yield from writer.generate_and_enqueue("k")
        yield sim.timeout(SETTLE_MS)
        before = yield from watcher.head("k")
        yield from writer.generate_and_enqueue("other")
        yield sim.timeout(SETTLE_MS)
        after = yield from watcher.head("k")
        return before, after

    before, after = run(sim, scenario())
    assert before[0].lock_ref == 1
    assert after is before


def test_a_run_with_no_section_open_leaves_no_memo():
    """The memo is bounded by the live queues, not by the keys ever read:
    a release that leaves its memo no queued ref drops it.  A tiny
    ``bigscale``-shaped run (two store nodes per site, a dozen clients,
    one section each on a fresh key, then eventual ops) ends with every
    replica holding no memo."""
    from repro.core import build_music

    music = build_music(seed=3, nodes_per_site=2, audit=True)
    sites = music.profile.site_names

    def worker(index):
        client = music.client(sites[index % len(sites)])
        cs = yield from client.critical_section(f"key-{index}")
        value = yield from cs.get()
        yield from cs.put((value or 0) + 1)
        yield from cs.exit()
        yield from client.put(f"other-{index}", index)
        yield from client.get(f"key-{index}")

    processes = [music.sim.process(worker(index)) for index in range(12)]
    music.sim.run(until=music.sim.now + 5_000.0)
    assert all(process.ok for process in processes)
    assert music.auditor.clean, music.auditor.render_report()
    assert [replica.lock_store._heads for replica in music.replicas] == [{}] * len(music.replicas)
