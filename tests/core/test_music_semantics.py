"""Failure-free ECF semantics: Listing 1, exclusivity, fairness, costs."""

from repro.core import build_music
from repro.errors import NotLockHolder


def test_listing_1_increment():
    """The canonical usage: lock, get, increment, put, release."""
    music = build_music()
    client = music.client("Ohio")

    def task():
        lock_ref = yield from client.create_lock_ref("counter")
        granted = yield from client.acquire_lock_blocking("counter", lock_ref)
        assert granted
        value = yield from client.critical_get("counter", lock_ref)
        new_value = (value or 0) + 1
        yield from client.critical_put("counter", lock_ref, new_value)
        yield from client.release_lock("counter", lock_ref)
        return new_value

    assert music.sim.run_until_complete(music.sim.process(task())) == 1


def test_critical_section_helper_round_trips():
    music = build_music()
    client = music.client("Ohio")

    def task():
        for _ in range(3):
            cs = yield from client.critical_section("k")
            value = yield from cs.get()
            yield from cs.put((value or 0) + 1)
            yield from cs.exit()
        cs = yield from client.critical_section("k")
        final = yield from cs.get()
        yield from cs.exit()
        return final

    assert music.sim.run_until_complete(music.sim.process(task())) == 3


def test_latest_state_across_sites():
    """A lockholder at another site reads the previous holder's write."""
    music = build_music()
    writer = music.client("Ohio")
    reader = music.client("Oregon")

    def task():
        cs = yield from writer.critical_section("k")
        yield from cs.put({"state": "written-in-ohio"})
        yield from cs.exit()

        cs = yield from reader.critical_section("k")
        value = yield from cs.get()
        yield from cs.exit()
        return value

    value = music.sim.run_until_complete(music.sim.process(task()))
    assert value == {"state": "written-in-ohio"}


def test_lock_granted_in_fifo_order():
    """Locks are granted fairly: in createLockRef order."""
    music = build_music()
    grant_order = []

    def contender(site, tag):
        client = music.client(site)
        cs = yield from client.critical_section("hot")
        grant_order.append(tag)
        yield music.sim.timeout(50.0)  # hold briefly
        yield from cs.exit()

    sim = music.sim
    # Stagger createLockRef calls so the queue order is deterministic.
    procs = []

    def launcher():
        for index, site in enumerate(["Ohio", "N.California", "Oregon"]):
            procs.append(sim.process(contender(site, index)))
            yield sim.timeout(400.0)  # > one LWT, so enqueue order is fixed

    sim.process(launcher())
    sim.run()
    assert grant_order == [0, 1, 2]


def test_exclusivity_two_clients_never_hold_simultaneously():
    music = build_music()
    holding = {"count": 0, "max": 0, "sections": 0}

    def contender(site):
        client = music.client(site)
        for _ in range(2):
            cs = yield from client.critical_section("mutex")
            holding["count"] += 1
            holding["max"] = max(holding["max"], holding["count"])
            holding["sections"] += 1
            yield music.sim.timeout(100.0)
            holding["count"] -= 1
            yield from cs.exit()

    procs = [music.sim.process(contender(s)) for s in ("Ohio", "N.California", "Oregon")]
    for proc in procs:
        music.sim.run_until_complete(proc, limit=1e8)
    assert holding["sections"] == 6
    assert holding["max"] == 1


def test_sequential_counter_with_contention():
    """Increments under the lock from 3 sites: no lost updates."""
    music = build_music()

    def incrementer(site, rounds):
        client = music.client(site)
        for _ in range(rounds):
            cs = yield from client.critical_section("ctr")
            value = yield from cs.get()
            yield from cs.put((value or 0) + 1)
            yield from cs.exit()

    procs = [
        music.sim.process(incrementer(site, 2))
        for site in ("Ohio", "N.California", "Oregon")
    ]
    for proc in procs:
        music.sim.run_until_complete(proc, limit=1e8)

    client = music.client("Ohio")

    def check():
        cs = yield from client.critical_section("ctr")
        value = yield from cs.get()
        yield from cs.exit()
        return value

    assert music.sim.run_until_complete(music.sim.process(check())) == 6


def test_non_holder_critical_put_rejected_after_release():
    """A lockRef that was dequeued gets youAreNoLongerLockHolder once the
    replica's queue shows its successor.  B's grant can come before
    Ohio's replica applies B's mint; until then the guard says retry
    ("local store not yet updated") and writes nothing."""
    music = build_music()
    client_a = music.client("Ohio")
    client_b = music.client("Oregon")
    replica = music.replica_at("Ohio")

    def task():
        ref_a = yield from client_a.create_lock_ref("k")
        yield from client_a.acquire_lock_blocking("k", ref_a)
        yield from client_a.critical_put("k", ref_a, "A")
        yield from client_a.release_lock("k", ref_a)
        # B takes the lock next.
        ref_b = yield from client_b.create_lock_ref("k")
        yield from client_b.acquire_lock_blocking("k", ref_b)
        # A's stale ref, before Ohio shows B's ref: retry, nothing written.
        assert (yield from replica.lock_store.peek("k")) is None
        assert (yield from replica.critical_put("k", ref_a, "stale write")) is None
        assert (yield from replica.quorum_get("k"))[0] == "A"
        while (yield from replica.lock_store.peek("k")) is None:
            yield music.sim.timeout(10.0)
        assert (yield from replica.lock_store.peek("k")).lock_ref == ref_b
        # Now it must be rejected at the replica.
        try:
            yield from replica.critical_put("k", ref_a, "stale write")
        except NotLockHolder:
            return "rejected"
        return "accepted"

    assert music.sim.run_until_complete(music.sim.process(task())) == "rejected"


def test_acquire_lock_returns_false_while_not_first():
    music = build_music()
    client_a = music.client("Ohio")
    client_b = music.client("Oregon")

    def task():
        ref_a = yield from client_a.create_lock_ref("k")
        yield from client_a.acquire_lock_blocking("k", ref_a)
        ref_b = yield from client_b.create_lock_ref("k")
        granted = yield from client_b.acquire_lock("k", ref_b)
        assert granted is False
        yield from client_a.release_lock("k", ref_a)
        granted = yield from client_b.acquire_lock_blocking("k", ref_b)
        return granted

    assert music.sim.run_until_complete(music.sim.process(task())) is True


def test_unlocked_put_get_and_critical_value_dominates():
    """Section VI extras: unlocked put/get work, and any CS write
    overrides an unlocked write regardless of wall-clock order."""
    music = build_music()
    client = music.client("Ohio")

    def task():
        yield from client.put("k", "unlocked-v1")
        yield music.sim.timeout(50.0)
        first = yield from client.get("k")
        cs = yield from client.critical_section("k")
        yield from cs.put("locked-v2")
        yield from cs.exit()
        # A *later* unlocked put must still lose to the CS write.
        yield from client.put("k", "unlocked-v3")
        yield music.sim.timeout(200.0)
        cs = yield from client.critical_section("k")
        final = yield from cs.get()
        yield from cs.exit()
        return first, final

    first, final = music.sim.run_until_complete(music.sim.process(task()))
    assert first == "unlocked-v1"
    assert final == "locked-v2"


def test_get_all_keys_lists_data_keys():
    music = build_music()
    client = music.client("Ohio")

    def task():
        yield from client.put("job-1", {"s": 1})
        yield from client.put("job-2", {"s": 2})
        yield music.sim.timeout(50.0)
        keys = yield from client.get_all_keys()
        return keys

    assert music.sim.run_until_complete(music.sim.process(task())) == ["job-1", "job-2"]


def test_acquire_peek_is_local_and_cheap():
    """The peek path of acquireLock must not cross the WAN (Fig 5b 'L')."""
    music = build_music()
    client_a = music.client("Ohio")
    client_b = music.client("Oregon")
    timings = []

    def task():
        ref_a = yield from client_a.create_lock_ref("k")
        yield from client_a.acquire_lock_blocking("k", ref_a)
        ref_b = yield from client_b.create_lock_ref("k")
        yield music.sim.timeout(200.0)  # let the enqueue reach Oregon
        start = music.sim.now
        granted = yield from music.replica_at("Oregon").acquire_lock("k", ref_b)
        timings.append(music.sim.now - start)
        assert granted is False
        yield from client_a.release_lock("k", ref_a)

    music.sim.run_until_complete(music.sim.process(task()))
    assert timings[0] < 2.0  # local peek, not a WAN quorum


def test_lock_queues_are_per_key_independent():
    music = build_music()
    done = []

    def worker(site, key):
        client = music.client(site)
        cs = yield from client.critical_section(key)
        yield music.sim.timeout(500.0)
        yield from cs.exit()
        done.append((key, music.sim.now))

    procs = [
        music.sim.process(worker("Ohio", "key-a")),
        music.sim.process(worker("Oregon", "key-b")),
    ]
    for proc in procs:
        music.sim.run_until_complete(proc, limit=1e7)
    # Both finish in parallel (within ~1 CS time), not serialized.
    times = [t for _k, t in done]
    assert abs(times[0] - times[1]) < 500.0
