"""One code path per ECF operation (DESIGN.md §8).

Every optional behaviour is data on the same path: one lock-partition
head read, one queue-head check, one criticalPut (a delete is a put of
``None``).  These tests pin what that path must keep doing whatever
features are switched on, and that a replica forgets a lockRef on every
exit that learns it is dead.
"""

import itertools

import pytest

from repro.core import MusicConfig, build_music
from repro.errors import NotLockHolder
from repro.lockstore import LockEntry
from repro.lockstore.lockstore import FORCED_ROW, HANDOFF_ROW, LOCK_TABLE

from tests.helpers import run


# -- the unified head read --------------------------------------------------


def reference_head(rows):
    """The head read spelled out per row, independently of LockStore:
    the first int clustering, the FORCED_ROW cell stamp and ref, the
    HANDOFF_ROW cell (its stamp names the released ref)."""
    refs = sorted(c for c in rows if isinstance(c, int))
    entry = None
    if refs:
        values = rows[refs[0]].visible_values()
        entry = LockEntry(refs[0], values.get("enqueued_at"), values.get("startTime"))
    epoch = forced = handoff = None
    if FORCED_ROW in rows:
        epoch = rows[FORCED_ROW].visible_cells()["ref"].stamp
        forced = rows[FORCED_ROW].visible_values()["ref"]
    if HANDOFF_ROW in rows:
        cell = rows[HANDOFF_ROW].visible_cells()["value"]
        handoff = int(cell.stamp[0]), cell.value
    return entry, epoch, forced, handoff


def spy_on_head_reads(replica, log):
    """Record, for every head read of ``replica``, the partition rows it
    was handed and the triple it made of them."""
    coordinator_get = replica.coordinator.get
    head = replica.lock_store.head
    partition_reads = []

    def get(table, partition, *args, **kwargs):
        read = yield from coordinator_get(table, partition, *args, **kwargs)
        if table == LOCK_TABLE and not args and "clustering" not in kwargs:
            # A local head read on the hot path also returns tombstones.
            partition_reads.append(read[0] if kwargs.get("tombstones") else read)
        return read

    def spied_head(key, *args):
        decoded = yield from head(key, *args)
        log.append((partition_reads.pop(), decoded))
        return decoded

    replica.coordinator.get = get
    replica.lock_store.head = spied_head


@pytest.mark.parametrize(
    "fast_locks,read_leases,peek_quorum",
    list(itertools.product([False, True], repeat=3)),
)
def test_head_read_decodes_the_same_entry_under_every_feature_mix(
    fast_locks, read_leases, peek_quorum
):
    config = MusicConfig(
        fast_locks=fast_locks, read_leases=read_leases, peek_quorum=peek_quorum
    )
    music = build_music(music_config=config, seed=13, audit=True)
    sim = music.sim
    log = []
    for replica in music.replicas:
        spy_on_head_reads(replica, log)
    sites = music.profile.site_names
    clients = [music.client(site) for site in sites]
    stalled = {}

    def stalling_holder():
        ref = yield from clients[0].create_lock_ref("k")
        granted = yield from clients[0].acquire_lock_blocking("k", ref)
        assert granted
        yield from clients[0].critical_put("k", ref, 0)
        stalled["ref"] = ref  # ...and never releases

    def contender(index):
        while "ref" not in stalled:
            yield sim.timeout(5.0)
        if index == 1:
            yield from music.replica_at(sites[1]).forced_release("k", stalled["ref"])
        cs = yield from clients[index].critical_section("k", timeout_ms=120_000.0)
        value = yield from cs.get()
        yield from cs.put(value + 1)
        yield from cs.exit()

    procs = [sim.process(stalling_holder())]
    procs += [sim.process(contender(index)) for index in (1, 2)]
    for proc in procs:
        sim.run_until_complete(proc, limit=1e9)

    assert music.auditor.clean, music.auditor.render_report()
    assert len(log) > 10
    for rows, decoded in log:
        assert decoded == reference_head(rows)
    # The run crossed a forced release, so the marker was really there
    # to decode — under exactly the flags that write it, its epoch and
    # its ref together.
    forced_on = fast_locks or read_leases
    assert any(epoch is not None for _, (_, epoch, _, _) in log) == forced_on
    assert all((epoch is None) == (forced is None) for _, (_, epoch, forced, _) in log)


# -- criticalDelete is criticalPut of None ----------------------------------


def test_critical_delete_is_a_critical_put_of_none_under_its_own_name():
    music = build_music(seed=2, audit=True, obs=True)
    client = music.client("Ohio")
    replica = music.replica_at("Ohio")

    def scenario():
        ref = yield from client.create_lock_ref("k")
        yield from client.acquire_lock_blocking("k", ref)
        yield from client.critical_put("k", ref, "v")
        deleted = yield from replica.critical_delete("k", ref)
        value = yield from client.critical_get("k", ref)
        yield from client.release_lock("k", ref)
        return deleted, value

    deleted, value = run(music.sim, scenario())
    assert value is None
    ops = [span.name for span in music.obs.tracer.spans]
    assert ops.count("music.criticalDelete") == 1 and ops.count("music.criticalPut") == 1
    puts = [e for e in music.auditor.events if e.kind == "critical_put"]
    assert [e.fields["value"] for e in puts] == ["v", None]
    # The delete reports the stamp it was acknowledged under.
    assert deleted == puts[1].stamp
    assert music.auditor.clean, music.auditor.render_report()


# -- a dead lockRef leaves nothing behind -----------------------------------


def preempted_holder(music, key="k"):
    """Ohio is granted ``key``; Oregon queues up behind it and then
    forcibly releases it.  Returns (holder client, dead ref, contender
    client, contender ref) once the preemption is visible at Ohio."""
    holder = music.client("Ohio")
    contender = music.client("Oregon")
    ref = yield from holder.create_lock_ref(key)
    granted = yield from holder.acquire_lock_blocking(key, ref)
    assert granted
    next_ref = yield from contender.create_lock_ref(key)
    yield from music.replica_at("Oregon").forced_release(key, ref)
    yield music.sim.timeout(500.0)
    return holder, ref, contender, next_ref


def test_late_release_of_a_preempted_lockref_drops_its_bookkeeping():
    music = build_music(seed=4)
    ohio = music.replica_at("Ohio")

    def rounds():
        for _ in range(5):
            holder, ref, contender, next_ref = yield from preempted_holder(music)
            assert ("k", ref) in ohio._leases
            # The late release learns the lockRef is dead (a successor
            # is queued, so the local head is already past it).
            yield from holder.release_lock("k", ref)
            granted = yield from contender.acquire_lock_blocking("k", next_ref)
            assert granted
            yield from contender.release_lock("k", next_ref)

    run(music.sim, rounds())
    assert [len(replica._leases) for replica in music.replicas] == [0, 0, 0]


def test_guard_rejection_of_a_preempted_lockref_drops_its_bookkeeping():
    music = build_music(seed=4)
    ohio = music.replica_at("Ohio")

    def scenario():
        holder, ref, _contender, _next_ref = yield from preempted_holder(music)
        with pytest.raises(NotLockHolder):
            yield from holder.critical_put("k", ref, "too late")

    run(music.sim, scenario())
    assert len(ohio._leases) == 0
