"""Integration tests for quorum reads/writes through the coordinator."""

from repro.errors import QuorumUnavailable
from repro.store import Consistency, StoreConfig

from tests.helpers import make_store, run


def put_get_roundtrip(consistency):
    sim, _net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)

    def client():
        yield from coord.put("data", "k1", None, {"value": "hello"}, (1.0, host.node_id),
                             consistency=consistency)
        rows = yield from coord.get("data", "k1", consistency=consistency)
        return rows

    rows = run(sim, client())
    assert rows[None].visible_values()["value"] == "hello"


def test_quorum_roundtrip():
    put_get_roundtrip(Consistency.QUORUM)


def test_all_roundtrip():
    put_get_roundtrip(Consistency.ALL)


def test_get_missing_key_returns_empty():
    sim, _net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)

    def client():
        rows = yield from coord.get("data", "missing")
        return rows

    assert run(sim, client()) == {}


def test_quorum_write_latency_is_one_rtt_to_nearest_remote():
    """On lUs from Ohio, quorum = local + N.California: ~53.79ms + service."""
    sim, _net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)
    done = {}

    def client():
        start = sim.now
        yield from coord.put("data", "k", None, {"value": "x"}, (1.0, "w"))
        done["elapsed"] = sim.now - start

    run(sim, client())
    assert 53.0 < done["elapsed"] < 60.0


def test_eventual_write_latency_is_local():
    sim, _net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)
    done = {}

    def client():
        start = sim.now
        yield from coord.put("data", "k", None, {"value": "x"}, (1.0, "w"),
                             consistency=Consistency.ONE)
        done["elapsed"] = sim.now - start

    run(sim, client())
    assert done["elapsed"] < 2.0  # intra-site only


def test_quorum_read_sees_quorum_write_despite_straggler():
    """R+W quorum intersection: the read merges the newest value."""
    sim, net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)
    # Partition Oregon away so the quorum is exactly {Ohio, N.California}.
    net.isolate_site("Oregon")

    def client():
        yield from coord.put("data", "k", None, {"value": "v2"}, (2.0, "w"))
        rows = yield from coord.get("data", "k", consistency=Consistency.QUORUM)
        return rows

    rows = run(sim, client())
    assert rows[None].visible_values()["value"] == "v2"


def test_write_quorum_unavailable_when_two_sites_down(monkeypatch):
    monkeypatch.setattr(StoreConfig, "rpc_timeout_ms", 300.0)
    sim, net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)
    net.isolate_site("Oregon")
    net.isolate_site("N.California")

    def client():
        try:
            yield from coord.put("data", "k", None, {"value": "x"}, (1.0, "w"))
        except QuorumUnavailable:
            return "nack"
        return "ok"

    assert run(sim, client()) == "nack"


def test_stale_local_replica_catches_up_via_full_replication():
    """Writes go to all replicas; a LOCAL_ONE read at another site sees them."""
    sim, _net, cluster, hosts = make_store(host_sites=("Ohio", "Oregon"))
    writer = cluster.coordinator_for(hosts[0])
    reader = cluster.coordinator_for(hosts[1])

    def client():
        yield from writer.put("data", "k", None, {"value": "fresh"}, (3.0, "w"))
        # Allow propagation to the Oregon replica (write already sent to all).
        yield sim.timeout(100.0)
        rows = yield from reader.get("data", "k", consistency=Consistency.LOCAL_ONE)
        return rows

    rows = run(sim, client())
    assert rows[None].visible_values()["value"] == "fresh"


def test_local_one_reads_do_not_cross_the_wan():
    sim, net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)
    done = {}

    def client():
        start = sim.now
        yield from coord.get("data", "k", consistency=Consistency.LOCAL_ONE)
        done["elapsed"] = sim.now - start

    run(sim, client())
    assert done["elapsed"] < 2.0


def test_delete_row_hides_value():
    sim, _net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)

    def client():
        yield from coord.put("data", "k", None, {"value": "x"}, (1.0, "w"))
        yield from coord.delete_row("data", "k", None, (2.0, "w"))
        rows = yield from coord.get("data", "k")
        return rows

    assert run(sim, client()) == {}


def test_multi_row_partition_reads_all_rows():
    """Lock-table shape: several clustering keys under one partition."""
    sim, _net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)

    def client():
        for lock_ref in (1, 2, 3):
            yield from coord.put("locks", "k", lock_ref, {"holder": f"c{lock_ref}"},
                                 (float(lock_ref), "w"))
        rows = yield from coord.get("locks", "k")
        return rows

    rows = run(sim, client())
    assert sorted(rows) == [1, 2, 3]


def test_single_clustering_read():
    sim, _net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)

    def client():
        yield from coord.put("locks", "k", 1, {"holder": "a"}, (1.0, "w"))
        yield from coord.put("locks", "k", 2, {"holder": "b"}, (2.0, "w"))
        rows = yield from coord.get("locks", "k", clustering=2)
        return rows

    rows = run(sim, client())
    assert list(rows) == [2]


def test_scan_keys_lists_live_partitions():
    sim, _net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)

    def client():
        yield from coord.put("jobs", "job-b", None, {"state": "PENDING"}, (1.0, "w"))
        yield from coord.put("jobs", "job-a", None, {"state": "PENDING"}, (1.0, "w"))
        yield from coord.delete_row("jobs", "job-a", None, (2.0, "w"))
        yield sim.timeout(10.0)
        keys = yield from coord.scan_keys("jobs")
        return keys

    assert run(sim, client()) == ["job-b"]


def test_read_repair_enabled_globally_via_config(monkeypatch):
    monkeypatch.setattr(StoreConfig, "read_repair_enabled", True)
    sim, net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)
    oregon_replica = cluster.replicas_in_site("Oregon")[0]

    def client():
        from repro.store.types import Update

        yield from coord.put("data", "k", None, {"value": "old"}, (1.0, "w"))
        for replica in cluster.replicas_in_site("Ohio") + cluster.replicas_in_site("N.California"):
            replica.apply_update(Update("data", "k", None, {"value": "new"}, (2.0, "w")))
        # A plain quorum read (no explicit read_repair arg) repairs.
        yield from coord.get("data", "k", consistency=Consistency.ALL)
        yield sim.timeout(200.0)
        return oregon_replica.local_row("data", "k", None).visible_values()

    assert run(sim, client())["value"] == "new"


def test_read_repair_pushes_merged_state(monkeypatch):
    from repro.store.types import Update

    monkeypatch.setattr(StoreConfig, "read_repair_enabled", True)
    sim, net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)
    (ohio,) = cluster.replicas_in_site("Ohio")
    (california,) = cluster.replicas_in_site("N.California")
    (oregon,) = cluster.replicas_in_site("Oregon")

    def client():
        # Write lands on all replicas; then two replicas diverge in
        # different columns, so only the merge of both is the latest.
        yield from coord.put("data", "k", None, {"value": "old"}, (1.0, "w"))
        ohio.apply_update(Update("data", "k", None, {"value": "new"}, (2.0, "w")))
        california.apply_update(Update("data", "k", None, {"extra": 7}, (3.0, "w")))
        yield from coord.get("data", "k", consistency=Consistency.ALL)
        yield sim.timeout(200.0)  # let repair writes land
        return [replica.local_row("data", "k", None).visible_values()
                for replica in (ohio, california, oregon)]

    assert run(sim, client()) == [{"value": "new", "extra": 7}] * 3
