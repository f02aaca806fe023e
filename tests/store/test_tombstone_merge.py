"""A merged read sees deletes, and repairs the replica that missed one.

A replica's read reply carries its live rows and the tombstone stamp of
each row it has deleted.  The coordinator's merge drops a live row that
another reply's newer tombstone covers, so a QUORUM read that hears
from a replica which missed a delete does not bring the row back; and
it sends that tombstone to each replica that served the row live.
"""

from repro.net import REPLY_KIND
from repro.store import Consistency, StoreConfig, Update

from tests.helpers import make_store, run


def _missed_delete():
    """``r`` written at ALL, then deleted at QUORUM from Oregon while
    Ohio was cut off: Ohio still holds ``r`` live."""
    sim, net, cluster, (ohio_host, oregon_host) = make_store(host_sites=("Ohio", "Oregon"))
    writer = cluster.coordinator_for(ohio_host)
    deleter = cluster.coordinator_for(oregon_host)
    (ohio,) = [replica for replica in cluster.replicas if replica.site == "Ohio"]

    def setup():
        yield from writer.put("t", "p", "r", {"v": 1}, (1.0, "w"), consistency=Consistency.ALL)
        net.isolate_site("Ohio")
        yield from deleter.delete_row("t", "p", "r", (2.0, "w"))
        net.heal_all()

    run(sim, setup())
    assert ohio.local_row("t", "p", "r") is not None
    return sim, cluster, writer, ohio


def _quorum_read(sim, coordinator):
    def read():
        return (yield from coordinator.get("t", "p", consistency=Consistency.QUORUM))

    return run(sim, read())


def test_a_quorum_read_does_not_bring_back_a_row_a_quorum_deleted():
    sim, _cluster, ohio_coordinator, _ohio = _missed_delete()
    # Ohio's quorum is itself and N.California, which has the tombstone.
    assert list(_quorum_read(sim, ohio_coordinator)) == []


def test_the_replica_that_served_the_deleted_row_is_sent_the_tombstone(monkeypatch):
    monkeypatch.setattr(StoreConfig, "hinted_handoff_enabled", False)
    sim, _cluster, ohio_coordinator, ohio = _missed_delete()
    assert list(_quorum_read(sim, ohio_coordinator)) == []
    assert ohio_coordinator.counters["tombstone_repairs"] == 1
    sim.run(until=sim.now + 1_000.0)
    assert ohio.local_row("t", "p", "r") is None
    assert ohio.engine.partition_view("t", "p")["r"].tombstone == (2.0, "w")

    def local_read():
        return (yield from ohio_coordinator.get("t", "p", consistency=Consistency.LOCAL_ONE))

    assert list(run(sim, local_read())) == []
    # In sync now: the next merge drops nothing and sends nothing.
    assert list(_quorum_read(sim, ohio_coordinator)) == []
    assert ohio_coordinator.counters["tombstone_repairs"] == 1


def test_cells_written_after_the_delete_survive_the_merge():
    sim, _cluster, ohio_coordinator, ohio = _missed_delete()
    ohio.apply_update(Update("t", "p", "r", {"late": 3}, (5.0, "w")))
    rows = _quorum_read(sim, ohio_coordinator)
    assert rows["r"].visible_values() == {"late": 3}
    assert ohio_coordinator.counters["tombstone_repairs"] == 0


def test_a_reply_carries_the_tombstones_as_they_were_when_sent():
    sim, cluster, ohio_coordinator, _ohio = _missed_delete()
    replies = []
    cluster.replicas[0].network.add_tap(
        lambda message: replies.append(message.body) if message.kind == REPLY_KIND else None
    )
    _quorum_read(sim, ohio_coordinator)
    sent = [body["tombstones"] for body in replies if "tombstones" in body]
    images = [dict(tombstones) for tombstones in sent]
    assert {"r": (2.0, "w")} in images
    run(sim, ohio_coordinator.delete_row("t", "p", "s", (9.0, "w"), consistency=Consistency.ALL))
    assert [dict(tombstones) for tombstones in sent] == images
    # A single-replica read merges nothing, so its reply carries none.
    del replies[:]
    run(sim, ohio_coordinator.get("t", "p", consistency=Consistency.LOCAL_ONE))
    assert [sorted(body) for body in replies] == [["rows"]]
