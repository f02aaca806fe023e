"""Tests for multi-key critical sections (Section III-A extension)."""

import pytest

from repro.core import build_music
from repro.core.multikey import enter_multi
from repro.core.replica import DATA_TABLE
from repro.store.types import Update


def run(music, generator, limit=1e9):
    return music.sim.run_until_complete(music.sim.process(generator), limit=limit)


def test_multi_key_read_write_round_trip():
    music = build_music()
    client = music.client("Ohio")

    def task():
        cs = yield from enter_multi(client, ["acct-a", "acct-b"])
        values = yield from cs.get_all()
        assert values == {"acct-a": None, "acct-b": None}
        yield from cs.put_all({"acct-a": 100, "acct-b": 200})
        values = yield from cs.get_all()
        yield from cs.exit()
        return values

    assert run(music, task()) == {"acct-a": 100, "acct-b": 200}


def test_a_held_refs_recheck_is_the_head_check_alone():
    """Each key's grant is re-checked as later keys are taken (six
    re-checks for three keys).  A re-check at the replica that granted
    the ref is its head read alone: no quorum read of the data
    partition, no startTime rewrite.  The three first grants take the
    reads their uncontended mints' accept rounds carried."""
    music = build_music()
    client = music.client("Ohio")
    kinds, entering = [], [True]

    def tap(message):
        body = message.body
        if not entering:
            return
        if message.kind == "store_read" and body["table"] == DATA_TABLE:
            kinds.append("data read")
        elif message.kind == "store_write" and any(
            "startTime" in update.columns for update in body["updates"]
            if isinstance(update, Update)
        ):
            kinds.append("startTime write")

    music.network.add_tap(tap)

    def task():
        cs = yield from enter_multi(client, ["a", "b", "c"])
        entering.clear()
        yield from cs.exit()

    run(music, task())
    assert kinds == ["startTime write"] * 3 * 3   # one per grant, to each replica


def test_locks_acquired_in_lexicographic_order():
    music = build_music()
    client = music.client("Ohio")
    order = []
    original = client.create_lock_ref

    def spying_create(key):
        order.append(key)
        result = yield from original(key)
        return result

    client.create_lock_ref = spying_create

    def task():
        cs = yield from enter_multi(client, ["zebra", "alpha", "mid"])
        yield from cs.exit()

    run(music, task())
    assert order == ["alpha", "mid", "zebra"]


def test_duplicate_keys_deduplicated():
    music = build_music()
    client = music.client("Ohio")

    def task():
        cs = yield from enter_multi(client, ["k", "k", "k"])
        keys = cs.keys
        yield from cs.exit()
        return keys

    assert run(music, task()) == ["k"]


def test_empty_key_set_rejected():
    music = build_music()
    client = music.client("Ohio")

    def task():
        yield from enter_multi(client, [])

    with pytest.raises(ValueError):
        run(music, task())


def test_no_deadlock_on_opposite_orders():
    """Two clients locking {a, b} given in opposite orders: lexicographic
    acquisition means both eventually complete (no circular wait)."""
    music = build_music()
    completed = []

    def worker(site, keys, tag):
        client = music.client(site)
        cs = yield from enter_multi(client, keys, timeout_ms=120_000.0)
        yield music.sim.timeout(200.0)
        total = yield from cs.get_all()
        yield from cs.put_all({k: tag for k in total})
        yield from cs.exit()
        completed.append(tag)

    procs = [
        music.sim.process(worker("Ohio", ["a", "b"], "first")),
        music.sim.process(worker("Oregon", ["b", "a"], "second")),
    ]
    for proc in procs:
        music.sim.run_until_complete(proc, limit=1e8)
    assert sorted(completed) == ["first", "second"]


def test_multi_key_exclusivity_transfers_atomically():
    """A transfer between two accounts is never observed half-done."""
    music = build_music()
    anomalies = []

    def transferrer(site, rounds):
        client = music.client(site)
        for _ in range(rounds):
            cs = yield from enter_multi(client, ["acct-a", "acct-b"],
                                        timeout_ms=1e7)
            values = yield from cs.get_all()
            a = values["acct-a"] if values["acct-a"] is not None else 500
            b = values["acct-b"] if values["acct-b"] is not None else 500
            if a + b != 1000:
                anomalies.append((a, b))
            yield from cs.put_all({"acct-a": a - 10, "acct-b": b + 10})
            yield from cs.exit()

    procs = [
        music.sim.process(transferrer("Ohio", 2)),
        music.sim.process(transferrer("Oregon", 2)),
    ]
    for proc in procs:
        music.sim.run_until_complete(proc, limit=1e9)
    assert anomalies == []

    def check():
        client = music.client("N.California")
        cs = yield from enter_multi(client, ["acct-a", "acct-b"], timeout_ms=1e7)
        values = yield from cs.get_all()
        yield from cs.exit()
        return values

    values = run(music, check())
    assert values["acct-a"] + values["acct-b"] == 1000
    assert values["acct-a"] == 500 - 40


def test_retries_overlapping_clients_both_complete():
    """Regression for ``enter_multi(..., retries=N)``: two clients
    repeatedly colliding on overlapping key sets desynchronise via the
    jittered exponential backoff and both complete, with fresh lockRefs
    minted on every restart."""
    music = build_music(seed=13)
    sim = music.sim
    completed = []
    minted = {"first": [], "second": []}

    def worker(site, keys, tag, rounds):
        client = music.client(site)
        for _ in range(rounds):
            cs = yield from enter_multi(
                client, keys, timeout_ms=300_000.0, retries=8,
                on_ref=lambda key, ref: minted[tag].append((key, ref)),
            )
            yield sim.timeout(150.0)
            values = yield from cs.get_all()
            yield from cs.put_all({k: (values[k] or 0) + 1 for k in values})
            yield from cs.exit()
        completed.append(tag)

    procs = [
        sim.process(worker("Ohio", ["ra", "rb"], "first", 3)),
        sim.process(worker("Oregon", ["rb", "rc"], "second", 3)),
    ]
    for proc in procs:
        sim.run_until_complete(proc, limit=1e9)
    assert sorted(completed) == ["first", "second"]
    # on_ref saw every minted lockRef, in lexicographic key order per
    # attempt, and refs on the shared key are all distinct.
    shared_refs = [ref for tag in minted for key, ref in minted[tag]
                   if key == "rb"]
    assert len(shared_refs) == len(set(shared_refs)) >= 6

    def read_back():
        client = music.client("N.California")
        cs = yield from enter_multi(client, ["ra", "rb", "rc"],
                                    timeout_ms=300_000.0)
        values = yield from cs.get_all()
        yield from cs.exit()
        return values

    values = run(music, read_back())
    # Every round incremented each of the worker's keys exactly once.
    assert values == {"ra": 3, "rb": 6, "rc": 3}


def test_retries_zero_means_single_attempt():
    """``retries=0`` is one attempt: the transactional discipline where
    the caller owns the retry loop."""
    music = build_music()
    client = music.client("Ohio")

    def task():
        cs = yield from enter_multi(client, ["solo"], retries=0)
        yield from cs.exit()
        return "ok"

    assert run(music, task()) == "ok"


def test_unknown_key_access_rejected():
    music = build_music()
    client = music.client("Ohio")

    def task():
        cs = yield from enter_multi(client, ["a"])
        try:
            yield from cs.get("b")
        except KeyError:
            return "rejected"
        finally:
            yield from cs.exit()
        return "allowed"

    assert run(music, task()) == "rejected"
