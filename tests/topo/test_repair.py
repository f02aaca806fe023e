"""Merkle anti-entropy repair over diverged replicas (real engines)."""

import pytest

from repro.net import Node
from repro.store import Consistency, StoreConfig
from repro.store.merkle import MerkleTree

from tests.topo.test_elastic import make_elastic, run


def setup_diverged(monkeypatch, anti_entropy=False):
    """Quorum writes during a partition: Oregon misses an overwrite and
    a delete; meanwhile Oregon takes a ONE-consistency write the other
    two sites miss.  Both directions must converge through one repair.

    Hinted handoff is disabled so the divergence survives the heal —
    this is exactly the down-longer-than-the-hint-window case repair
    exists for."""
    monkeypatch.setattr(StoreConfig, "hinted_handoff_enabled", False)
    music = make_elastic(anti_entropy=anti_entropy)
    sim = music.sim
    topo = music.topology
    coord = music.store.coordinator_for(topo.node)  # topo-0 lives in Ohio
    oregon_host = Node(sim, music.network, "host-or", "Oregon")
    oregon_host.start()
    oregon_coord = music.store.coordinator_for(oregon_host)

    def scenario():
        # Base state everywhere.
        yield from coord.put("t", "k1", "r", {"v": "old"}, (1.0, "w"),
                             consistency=Consistency.ALL)
        yield from coord.put("t", "k2", "r", {"v": "doomed"}, (1.0, "w"),
                            consistency=Consistency.ALL)
        music.network.isolate_site("Oregon")
        # Oregon misses these two (no hints: drop them via short replay
        # horizon is unnecessary — we simply never heal long enough).
        yield from coord.put("t", "k1", "r", {"v": "new"}, (2.0, "w"))
        yield from coord.delete_row("t", "k2", "r", (2.0, "w"))
        # ...and the other sites miss this one.
        yield from oregon_coord.put("t", "k3", "r", {"v": "lonely"},
                                    (2.5, "x"), consistency=Consistency.ONE)
        # Let the replication copies destined for the isolated side
        # actually arrive (and be dropped) before healing, or the heal
        # would just delay the divergence away.
        yield sim.timeout(1_000.0)
        music.network.heal_all()

    run(music, scenario())
    return music


def engine_of(music, node_id):
    return music.store.by_id[node_id].engine


def by_repair_pair(music):
    leaves = music.sim.run_until_complete(
        music.topology.repair_pair("store-0-0", "store-2-0"), limit=600_000.0
    )
    assert leaves > 0
    # Untouched pair member: repair is pairwise, store-1-0 still lacks k3.
    assert not engine_of(music, "store-1-0").partition_view("t", "k3")


def by_background_rounds(music):
    music.sim.run(until=music.sim.now + 30_000.0)
    # Every pair ran rounds: the third replica has the lonely write too.
    row = engine_of(music, "store-1-0").partition_view("t", "k3")["r"]
    assert row.cells["v"].stamp == (2.5, "x")


@pytest.mark.parametrize("anti_entropy, repair", [
    (False, by_repair_pair), (True, by_background_rounds),
], ids=["repair_pair", "background"])
def test_repair_converges_both_directions(monkeypatch, anti_entropy, repair):
    music = setup_diverged(monkeypatch, anti_entropy)
    a = engine_of(music, "store-0-0")
    b = engine_of(music, "store-2-0")

    # Confirmed diverged before repair.
    assert b.partition_view("t", "k1")["r"].visible_values()["v"] == "old"
    assert b.partition_view("t", "k2")["r"].live
    assert not a.partition_view("t", "k3")

    repair(music)

    # Overwrite propagated with its exact stamp (v2s semantics ride on
    # stamps, so byte-for-byte equality matters, not just the value).
    row = b.partition_view("t", "k1")["r"]
    assert row.visible_values()["v"] == "new"
    assert row.cells["v"].stamp == (2.0, "w")

    # The delete won: the tombstone moved, the stale live row did not
    # resurrect the value on the healthy side.
    assert not b.partition_view("t", "k2")["r"].live
    assert b.partition_view("t", "k2")["r"].tombstone == (2.0, "w")
    assert not a.partition_view("t", "k2")["r"].live

    # The lonely Oregon write flowed the other way in the same round.
    assert a.partition_view("t", "k3")["r"].visible_values()["v"] == "lonely"
    assert a.partition_view("t", "k3")["r"].cells["v"].stamp == (2.5, "x")

    assert music.auditor.clean, music.auditor.render_report()


def test_repair_is_idempotent(monkeypatch):
    music = setup_diverged(monkeypatch)
    run_pair = lambda: music.sim.run_until_complete(  # noqa: E731
        music.topology.repair_pair("store-0-0", "store-2-0"), limit=600_000.0
    )
    first = run_pair()
    second = run_pair()
    assert first > 0
    assert second == 0  # trees agree: nothing to stream


def test_converged_engines_hash_identically(monkeypatch):
    music = setup_diverged(monkeypatch)
    music.sim.run_until_complete(
        music.topology.repair_pair("store-0-0", "store-2-0"), limit=600_000.0
    )
    ring = music.store.ring

    def owns_both(pk):
        owners = ring.replicas_for(pk, 3)
        return "store-0-0" in owners and "store-2-0" in owners

    tree_a = MerkleTree.build(engine_of(music, "store-0-0"), owns_both)
    tree_b = MerkleTree.build(engine_of(music, "store-2-0"), owns_both)
    assert tree_a.diff(tree_b) == []
