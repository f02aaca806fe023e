"""The early grant read (DESIGN.md §8): on the hot path, a mint whose promise rows show no queued ref below its own reads the
data partition in its accept round (the key's lock and data partitions
share their replicas), and returns at its commit's local ack.  The grant
takes that read if its proving head read shows the same forced epoch
and no hand-off row that lets it skip the flag read; the read's value
is what the section's first get serves.  These tests check where the
read sits in a trace, when it is not taken, why it rides the accept
round and not the promise, and that nothing a replica keeps for it, or
for the serve, outlives the section.
"""

import pytest

from repro import MusicConfig, build_music
from repro.core.unlocked import DATA_TABLE
from repro.obs import extract_critpaths
from repro.obs.critpath import ROOT_SPAN
from repro.store.replica import StorageReplica

from tests.core.test_handoff import assert_clean, hits, section
from tests.helpers import run


def kept(music, key="k"):
    """The replicas that still keep an early read or a mirror entry for ``key``."""
    return [
        replica.node_id for replica in music.replicas
        if key in replica._early_reads or key in replica.mirror._entries
    ]


def test_the_flag_read_rides_the_accept_round_and_serves_the_get():
    """Traced, the read is no span of its own: each ``paxos_propose``
    reply carries the data rows, the mint's commit ends at the local
    ack, the critical path bills no flag read, and the get is a local
    read."""
    music = build_music(obs=True, audit=True)
    client = music.client("Oregon")
    tracer = music.obs.tracer
    accepts = []
    music.network.add_tap(
        lambda message: accepts.append(message.body)
        if isinstance(message.body, dict) and "accepted" in message.body else None
    )

    def traced():
        with tracer.span(ROOT_SPAN, node=client.client_id, site=client.site):
            return (yield from section(client, "get", "A"))

    assert run(music.sim, traced()) == [None]
    assert len(accepts) == 3 and all("rows" in accept for accept in accepts)
    (commit,) = [span for span in tracer.spans if span.name == "paxos.commit"]
    assert commit.end_ms - commit.start_ms < 2.0
    (path,) = extract_critpaths(tracer.spans)
    assert abs(path.attributed_ms - path.duration_ms) < 1e-9
    assert "acquire.flag_read" not in path.phase_totals()
    assert hits(music, "grant") == 1
    assert_clean(music)


@pytest.mark.parametrize("read_leases", [False, True], ids=["leases-off", "leases-on"])
def test_no_read_is_taken_behind_a_queued_ref_and_one_taken_is_kept_until_the_release(read_leases):
    """A mint queued behind a holder reads nothing in its accept round,
    and an uncontended mint keeps its read until its release — even at a
    replica whose grant will find the hand-off row and not take it —
    whether or not read leases are on; the polling protocol never
    asks."""
    music = build_music(audit=True, read_leases=read_leases)
    ohio, oregon = music.client("Ohio"), music.client("Oregon")
    started = []
    for replica in music.replicas:
        table, hook = replica.lock_store.on_head
        replica.lock_store.on_head = (
            table, lambda key, ref, *read, hook=hook: (started.append(ref), hook(key, ref, *read))
        )

    def scenario():
        cs = yield from ohio.critical_section("k")
        ref = yield from oregon.create_lock_ref("k")
        yield from cs.exit()
        assert (yield from oregon.acquire_lock_blocking("k", ref))
        yield from oregon.release_lock("k", ref)
        return cs.lock_ref

    first = run(music.sim, scenario())
    assert started == [first]
    # Ohio's mint heads its decided queue: its read is kept until the
    # release, though the hand-off row names the ref below it.
    ref = run(music.sim, ohio.create_lock_ref("k"))
    assert started == [first, ref] and kept(music) == [music.replica_at("Ohio").node_id]
    run(music.sim, ohio.release_lock("k", ref))
    assert kept(music) == []
    other = build_music(music_config=MusicConfig(fast_locks=False, read_leases=read_leases))
    assert all(replica.lock_store.on_head is None for replica in other.replicas)
    assert_clean(music)


def test_nothing_kept_outlives_the_sections_release():
    music = build_music(audit=True)
    client = music.client("Ohio")

    def scenario():
        cs = yield from client.critical_section("k")
        assert kept(music) == [music.replica_at("Ohio").node_id]
        yield from cs.get()
        yield from cs.exit()

    run(music.sim, scenario())
    assert kept(music) == []
    assert_clean(music)


def holders(music, key):
    """``(replica, owner, attribute)`` of every dict attribute of a
    replica, its lock store, its mirror or its push channel holding
    ``key``, alone or in a tuple."""
    return [
        (replica.node_id, type(owner).__name__, name)
        for replica in music.replicas
        for owner in (replica, replica.lock_store, replica.mirror, replica.push)
        for name, value in vars(owner).items()
        if isinstance(value, dict)
        and any(held == key or isinstance(held, tuple) and key in held for held in value)
    ]


@pytest.mark.parametrize("read_leases", [False, True], ids=["leases-off", "leases-on"])
def test_nothing_kept_outlives_every_section_on_a_key(read_leases):
    """Three sites' clients each run a section on each of 30 fresh keys,
    in rotated orders, so most keys see their sections contended: once
    they have all ended, no replica keeps anything per key."""
    music = build_music(audit=True, read_leases=read_leases)
    keys = [f"fresh-{index}" for index in range(30)]
    done = []

    def worker(client, offset):
        for key in keys[offset:] + keys[:offset]:
            yield from section(client, "get", client.client_id, "get", key=key)
            done.append(key)

    for offset, site in enumerate(music.profile.site_names[:3]):
        music.sim.process(worker(music.client(site), 10 * offset))
    music.sim.run(until=music.sim.now + 600_000.0)
    assert len(done) == 3 * len(keys)
    assert {key: holders(music, key) for key in keys if holders(music, key)} == {}
    assert_clean(music)


def test_nothing_kept_outlives_the_sections_preemption():
    """Preempted by another replica: its release push, which names the
    successor, reaches the holder's replica; preempted here: the
    preemption drops it itself."""
    music = build_music(audit=True)
    ohio, oregon = music.client("Ohio"), music.client("Oregon")
    there = music.replica_at("Oregon")

    def elsewhere():
        cs = yield from ohio.critical_section("k")
        assert kept(music) == [music.replica_at("Ohio").node_id]
        waiter = yield from oregon.create_lock_ref("k")
        yield from there.forced_release("k", cs.lock_ref)
        yield music.sim.timeout(200.0)
        assert kept(music) == []
        assert (yield from oregon.acquire_lock_blocking("k", waiter))
        yield from oregon.release_lock("k", waiter)

    def here():
        cs = yield from ohio.critical_section("k")
        assert kept(music) == [music.replica_at("Ohio").node_id]
        yield from music.replica_at("Ohio").forced_release("k", cs.lock_ref)
        assert kept(music) == []

    run(music.sim, elsewhere())
    run(music.sim, here())
    assert kept(music) == []
    assert_clean(music)


@pytest.mark.parametrize("read_leases", [False, True], ids=["leases-off", "leases-on"])
def test_nothing_kept_outlives_a_preemption_elsewhere_with_nobody_waiting(read_leases):
    """Preempted by another replica with no waiter behind it, the section
    names no successor: the forced dequeue's push names the preempted
    ref, so the replica that granted it drops its entry."""
    music = build_music(audit=True, read_leases=read_leases)
    ohio = music.client("Ohio")
    there = music.replica_at("Oregon")

    def scenario():
        cs = yield from ohio.critical_section("k")
        yield from cs.get()
        assert kept(music) == [music.replica_at("Ohio").node_id]
        yield music.sim.timeout(200.0)
        yield from there.forced_release("k", cs.lock_ref)
        yield music.sim.timeout(200.0)

    run(music.sim, scenario())
    assert kept(music) == []
    assert_clean(music)


def test_nothing_kept_outlives_a_failover_acquire_at_another_replica():
    """The mint's replica started the read; the grant, the ops and the
    release all ran at another replica, whose release push drops it."""
    music = build_music(audit=True)
    client = music.client("Ohio")
    home, other = music.replica_at("Ohio"), music.replica_at("Oregon")

    def scenario():
        ref = yield from client.create_lock_ref("k")
        assert list(home._early_reads) == ["k"]
        while not (yield from other.acquire_lock("k", ref)):
            yield music.sim.timeout(5.0)
        ok, value, _ = yield from other.critical_get("k", ref)
        assert ok and value is None
        yield from other.critical_put("k", ref, "A")
        yield from other.release_lock("k", ref)
        yield music.sim.timeout(200.0)

    run(music.sim, scenario())
    assert kept(music) == []
    assert hits(music, "grant") == 1  # Oregon read at its own grant
    assert_clean(music)


def _put_missed_by_the_promises():
    """The interleaving that rules out reading the data rows with the
    promises, built with two faults.  Holder H at N.California puts
    "NEW": its own store replica p is unreachable for the instant the
    put arrives (so the put's quorum is Ohio's r and Oregon's), and the
    mint of Ohio's client prepares just before the put reaches r.  H's
    replica releases it handing nothing on, so the grant takes the
    mint's read, not the hand-off row.  The link from Ohio's MUSIC
    replica to p is slowed, so p answers the prepare only after H's
    release tombstone reached it.
    The promises {r, p} show no queued ref, and neither holds the put;
    the accepts, which follow every promise, come after the put was
    applied at r.  Returns the deployment and what the mint's first get
    read."""
    music = build_music(audit=True)
    network, sim = music.network, music.sim
    ohio, ncal = music.client("Ohio"), music.client("N.California")
    here, holder = music.replica_at("Ohio"), music.replica_at("N.California")
    (p,) = [node for node in here.coordinator.replicas("k") if network.site_of(node) == holder.site]
    read = []

    def contender():
        yield sim.timeout(24.0)  # the prepare reaches r before the put does
        slowed = network.profile.one_way("Ohio", "N.California") + 10.0
        network._endpoints[here.node_id].one_way[p] = slowed
        ref = yield from ohio.create_lock_ref("k")
        assert (yield from ohio.acquire_lock_blocking("k", ref))
        read.append((yield from ohio.critical_get("k", ref)))
        yield from ohio.release_lock("k", ref)

    armed, started = [], []

    def at_the_put(message):
        if armed and message.kind == "store_write" and (message.src, message.dst) == (
            holder.node_id, p,
        ):
            armed.clear()
            network.fail_node(p)
            sim.call_at(sim.now + 0.15, lambda: network.recover_node(p))
            started.append(sim.process(contender(), name="contender"))

    network.add_tap(at_the_put)

    def scenario():
        yield from section(ncal, "OLD")
        cs = yield from ncal.critical_section("k")
        # H's mint returned at its local commit: let that commit reach r,
        # or the contender's guard read there misses it and the mint's
        # retry prepares after the put has landed.
        yield sim.timeout(300.0)
        armed.append(True)
        yield from cs.put("NEW")
        yield from holder.release_lock("k", cs.lock_ref)
        yield sim.timeout(2_000.0)

    run(sim, scenario())
    assert [process.ok for process in started] == [True]
    return music, read


def test_the_accept_round_read_sees_a_put_the_promises_missed():
    music, read = _put_missed_by_the_promises()
    assert read == ["NEW"] and hits(music, "grant") == 1
    assert_clean(music)


def test_a_grant_read_taken_from_the_promises_misses_an_acknowledged_put(monkeypatch):
    """The mutant: each acceptor answers its accept with the data rows as
    they stood at its promise.  The section's get serves the value the
    put replaced, and the audit's LatestState fires."""
    promised = StorageReplica._promised
    at_promise = {}

    def keeping(self, promise):
        partition = promise[0][1]["partition"]
        at_promise[self.node_id, partition] = self.engine.read(DATA_TABLE, partition)
        promised(self, promise)

    def answering(self, served):
        rows, tombstones = at_promise[self.node_id, served[1]["partition"]]
        self._answer((served, {"accepted": True, "rows": rows, "tombstones": tombstones}, 64))

    monkeypatch.setattr(StorageReplica, "_promised", keeping)
    monkeypatch.setattr(StorageReplica, "_accepted", answering)
    music, read = _put_missed_by_the_promises()
    assert read == ["OLD"]
    assert "LatestState" in music.auditor.violation_counts, music.auditor.render_report()
