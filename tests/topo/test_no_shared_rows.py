"""No storage engine stores a row object that another engine stores.

Rows move between replicas uncopied: a bundle (the anti-entropy round,
range handover) carries the sender's stored, frozen rows, and one
handover bundle goes to every gaining node.  What keeps engines apart
is ``StorageEngine._merge``, which stores a copy of any row it was
handed and never the row itself.  These tests hold that invariant after
each path that moves rows: a direct ``merge_rows``, a partition
handover and an anti-entropy round (run by ``repair_pair``)."""

from repro.sim import Simulator
from repro.storage import StorageEngine
from repro.store.types import DeleteRow, Update

from tests.topo.test_elastic import FULL_MOVE_KEY, JOINERS, make_elastic, run
from tests.topo.test_repair import setup_diverged


def stored_rows(engine):
    """Every row object the engine holds: memtable and segments."""
    for tables in [engine.memtable] + [segment.tables for segment in engine.segments]:
        for partitions in tables.values():
            for rows in partitions.values():
                yield from rows.values()


def assert_no_shared_rows(engines):
    holder = {}
    for engine in engines:
        for row in stored_rows(engine):
            first = holder.setdefault(id(row), engine.node_id)
            assert first == engine.node_id, (
                f"{engine.node_id} stores a row object that {first} stores: {row}"
            )
    assert holder, "nothing stored: the check checked nothing"


def test_merge_rows_stores_copies_of_the_rows_it_is_handed():
    sim = Simulator()
    source, target = (StorageEngine(sim, node_id=name) for name in ("source", "target"))
    source.commit([Update("t", "p", 1, {"v": "one"}, (1.0, "w")),
                   Update("t", "p", 2, {"v": "two"}, (1.0, "w")),
                   DeleteRow("t", "p", 2, (2.0, "w"))])
    target.commit([Update("t", "p", 1, {"v": "old"}, (0.5, "w"))])
    bundle = dict(source.partition_view("t", "p"))
    sim.run_until_complete(sim.process(target.merge_rows("t", "p", bundle)))
    assert target.partition_view("t", "p")[1].visible_values() == {"v": "one"}
    assert not target.partition_view("t", "p")[2].live
    assert_no_shared_rows([source, target])


def test_a_handover_bundle_is_not_shared_by_its_gainers():
    music = make_elastic()
    client = music.client("Ohio")

    def before():
        ref = yield from client.create_lock_ref(FULL_MOVE_KEY)
        yield from client.acquire_lock_blocking(FULL_MOVE_KEY, ref)
        yield from client.critical_put(FULL_MOVE_KEY, ref, {"v": "held"})
        yield from client.release_lock(FULL_MOVE_KEY, ref)

    run(music, before())
    music.sim.run_until_complete(music.topology.bootstrap_many(JOINERS), limit=600_000.0)
    gainers = music.store.ring.replicas_for(FULL_MOVE_KEY, 3)
    assert {node_id for node_id, _site in JOINERS} == set(gainers)
    assert_no_shared_rows([replica.engine for replica in music.store.replicas])


def test_a_repair_exchange_leaves_both_sides_their_own_rows(monkeypatch):
    music = setup_diverged(monkeypatch)
    music.sim.run_until_complete(
        music.topology.repair_pair("store-0-0", "store-2-0"), limit=600_000.0
    )
    a, b = (music.store.by_id[node_id].engine for node_id in ("store-0-0", "store-2-0"))
    assert a.snapshot()["tables"]["t"] == b.snapshot()["tables"]["t"]
    assert_no_shared_rows([replica.engine for replica in music.store.replicas])
