"""Live bootstrap/decommission, handover atomicity, and the
lock-rows-stay-with-data safety property (ECF across topology changes)."""

import pytest

from repro.core import build_music
from repro.lockstore import LOCK_TABLE
from repro.store import Consistency

# A partition whose owner set changes in ALL three sites when one node
# joins per site (verified by test_probe_key_moves_everywhere below):
# with every pre-change owner replaced, no retained replica can mask
# state that a broken handover failed to move.
FULL_MOVE_KEY = "k6"
JOINERS = [
    ("store-0-1", "Ohio"),
    ("store-1-1", "N.California"),
    ("store-2-1", "Oregon"),
]


def make_elastic(seed=5, **kwargs):
    return build_music(elastic=True, audit=True, seed=seed, **kwargs)


def run(music, generator, limit=600_000.0):
    return music.sim.run_until_complete(music.sim.process(generator), limit=limit)


def test_probe_key_moves_everywhere():
    music = make_elastic()
    ring = music.store.ring
    before = ring.replicas_for(FULL_MOVE_KEY, 3)
    for node_id, site in JOINERS:
        ring.add_node(node_id, site)
    after = ring.replicas_for(FULL_MOVE_KEY, 3)
    assert set(before).isdisjoint(after)


def test_bootstrap_streams_data_atomically_and_cleans_up():
    music = make_elastic()
    sim = music.sim
    topo = music.topology
    coord = music.store.coordinator_for(topo.node)
    moves = []
    topo.on_stream(lambda key, old, new: moves.append((key, old, new)))

    def write_all():
        for i in range(20):
            yield from coord.put("t", f"k{i}", "r", {"v": i}, (float(i + 1), "w"))

    run(music, write_all())

    done = topo.bootstrap("store-0-1", "Ohio")
    sim.run_until_complete(done, limit=600_000.0)
    assert not music.store.ring.in_transition
    assert len(music.store.ring.nodes) == 4
    assert moves, "a 20-partition keyspace should have moved something"

    for key, old, new in moves:
        gainers = [n for n in new if n not in old]
        losers = [n for n in old if n not in new]
        for gainer in gainers:
            view = music.store.by_id[gainer].engine.partition_view("t", key)
            assert view, f"{gainer} should hold {key} after handover"
        for loser in losers:
            view = music.store.by_id[loser].engine.partition_view("t", key)
            assert not view, f"{loser} should have cleaned up {key}"

    def read_all():
        values = {}
        for i in range(20):
            rows = yield from coord.get(
                "t", f"k{i}", consistency=Consistency.QUORUM
            )
            values[f"k{i}"] = rows["r"].visible_values()["v"]
        return values

    values = run(music, read_all())
    assert values == {f"k{i}": i for i in range(20)}
    assert music.auditor.clean, music.auditor.render_report()


def test_decommission_moves_data_back():
    music = make_elastic()
    sim = music.sim
    topo = music.topology
    coord = music.store.coordinator_for(topo.node)

    def write_all():
        for i in range(12):
            yield from coord.put("t", f"k{i}", "r", {"v": i}, (float(i + 1), "w"))

    run(music, write_all())
    sim.run_until_complete(topo.bootstrap("store-0-1", "Ohio"), limit=600_000.0)
    sim.run_until_complete(topo.decommission("store-0-1"), limit=600_000.0)

    assert sorted(music.store.ring.nodes) == ["store-0-0", "store-1-0", "store-2-0"]
    assert "store-0-1" not in music.store.by_id
    assert "store-0-1" not in music.topology.gossipers

    def read_all():
        values = {}
        for i in range(12):
            rows = yield from coord.get(
                "t", f"k{i}", consistency=Consistency.QUORUM
            )
            values[f"k{i}"] = rows["r"].visible_values()["v"]
        return values

    assert run(music, read_all()) == {f"k{i}": i for i in range(12)}
    assert music.auditor.clean, music.auditor.render_report()


def test_handover_carries_lock_rows_and_guard_state():
    """After a full move of a key, the new owners hold the lock table's
    guard/queue rows and lockRef minting continues the old sequence."""
    music = make_elastic()
    sim = music.sim
    client = music.client("Ohio")

    def before():
        ref_a = yield from client.create_lock_ref(FULL_MOVE_KEY)
        yield from client.acquire_lock_blocking(FULL_MOVE_KEY, ref_a)
        yield from client.critical_put(FULL_MOVE_KEY, ref_a, {"v": "held"})
        yield from client.release_lock(FULL_MOVE_KEY, ref_a)
        ref_x = yield from client.create_lock_ref(FULL_MOVE_KEY)
        yield from client.acquire_lock_blocking(FULL_MOVE_KEY, ref_x)
        return ref_a, ref_x

    ref_a, ref_x = run(music, before())
    assert (ref_a, ref_x) == (1, 2)

    done = music.topology.bootstrap_many(JOINERS)
    sim.run_until_complete(done, limit=600_000.0)

    new_owners = music.store.ring.replicas_for(FULL_MOVE_KEY, 3)
    for node_id in new_owners:
        view = music.store.by_id[node_id].engine.partition_view(
            LOCK_TABLE, FULL_MOVE_KEY
        )
        assert view, f"{node_id} should hold the lock rows of {FULL_MOVE_KEY}"

    def after():
        ref_y = yield from client.create_lock_ref(FULL_MOVE_KEY)
        return ref_y

    # The guard row moved: the sequence continues, no lockRef is re-minted.
    assert run(music, after()) == 3
    assert music.auditor.clean, music.auditor.render_report()


def test_handover_without_lock_rows_breaks_exclusivity():
    """The deliberate mutation: stream data rows but not the lock
    guard/queue rows.

    With every pre-move owner of the key replaced in one transition, the
    new owner set has no guard/queue state, so a later client re-mints
    lockRef 1 and is granted while lockRef 2 still holds the lock — the
    auditor must flag the exclusivity violation online."""
    music = make_elastic()
    merge = music.topology._merge_collected

    def merge_without_lock_rows(replies):
        entries, paxos = merge(replies)
        entries.pop(LOCK_TABLE, None)
        paxos.pop(LOCK_TABLE, None)
        return entries, paxos

    music.topology._merge_collected = merge_without_lock_rows
    sim = music.sim
    client = music.client("Ohio")

    def before():
        ref_a = yield from client.create_lock_ref(FULL_MOVE_KEY)
        yield from client.acquire_lock_blocking(FULL_MOVE_KEY, ref_a)
        yield from client.critical_put(FULL_MOVE_KEY, ref_a, {"v": "held"})
        yield from client.release_lock(FULL_MOVE_KEY, ref_a)
        ref_x = yield from client.create_lock_ref(FULL_MOVE_KEY)
        yield from client.acquire_lock_blocking(FULL_MOVE_KEY, ref_x)
        return ref_x

    assert run(music, before()) == 2  # lockRef 2 holds the lock

    done = music.topology.bootstrap_many(JOINERS)
    sim.run_until_complete(done, limit=600_000.0)

    def after():
        ref_y = yield from client.create_lock_ref(FULL_MOVE_KEY)
        granted = yield from client.acquire_lock_blocking(
            FULL_MOVE_KEY, ref_y, timeout_ms=30_000.0
        )
        return ref_y, granted

    ref_y, granted = run(music, after())
    assert ref_y == 1  # the guard was lost: the sequence restarted
    assert granted  # ...and the duplicate ref was granted immediately
    assert not music.auditor.clean
    assert "Exclusivity" in music.auditor.violation_counts, (
        music.auditor.render_report()
    )


def test_elasticity_disabled_keeps_timings_identical():
    """The whole topology plane must be invisible when elastic=False:
    same seed, same workload, bit-identical completion times."""

    def timeline(elastic):
        music = build_music(seed=3, elastic=elastic)
        client = music.client("Ohio")
        stamps = []

        def work():
            for i in range(5):
                key = f"k{i % 2}"
                ref = yield from client.create_lock_ref(key)
                yield from client.acquire_lock_blocking(key, ref)
                yield from client.critical_put(key, ref, {"v": i})
                yield from client.release_lock(key, ref)
                stamps.append(music.sim.now)

        music.sim.run_until_complete(music.sim.process(work()), limit=600_000.0)
        return stamps

    assert timeline(False) == timeline(True)


def test_bootstrap_rejects_duplicate_node():
    music = make_elastic()
    with pytest.raises(ValueError):
        music.sim.run_until_complete(
            music.topology.bootstrap("store-0-0", "Ohio"), limit=10_000.0
        )
