"""Tests for replica-local behaviour and anti-entropy convergence."""

import pytest

from repro.store import Consistency, StoreConfig
from repro.store.replica import bundle_bytes
from repro.store.types import Update

from tests.helpers import broken_rpc, make_store, run


def test_replica_local_rows_skips_dead_rows():
    sim, _net, cluster, (host,) = make_store()
    replica = cluster.replicas[0]
    replica.apply_update(Update("t", "p", 1, {"v": "x"}, (1.0, "w")))
    from repro.store.types import DeleteRow

    replica.apply_update(DeleteRow("t", "p", 1, (2.0, "w")))
    assert replica.local_rows("t", "p") == {}
    assert replica.local_row("t", "p", 1) is None


def test_replica_counters_track_operations():
    sim, _net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)

    def client():
        yield from coord.put("t", "k", None, {"v": 1}, (1.0, "w"), consistency=Consistency.ALL)
        yield from coord.get("t", "k", consistency=Consistency.ALL)

    run(sim, client())
    assert sum(r.counters["writes"] for r in cluster.replicas) == 3
    assert sum(r.counters["reads"] for r in cluster.replicas) == 3


def test_anti_entropy_heals_partitioned_replica():
    """A replica cut off during a write converges after the partition heals."""
    sim, net, cluster, (host,) = make_store(anti_entropy=True)
    coord = cluster.coordinator_for(host)
    oregon = cluster.replicas_in_site("Oregon")[0]

    def client():
        net.isolate_site("Oregon")
        yield from coord.put("t", "k", None, {"v": "update"}, (5.0, "w"),
                             consistency=Consistency.QUORUM)
        # Oregon missed the write.
        assert oregon.local_row("t", "k", None) is None
        net.heal_all()
        # Wait several anti-entropy rounds.
        yield sim.timeout(20_000.0)
        row = oregon.local_row("t", "k", None)
        return row

    row = run(sim, client())
    assert row is not None
    assert row.visible_values()["v"] == "update"


def test_anti_entropy_between_agreeing_replicas_moves_no_rows():
    """Replicas that hold the same rows exchange digests only: a round
    sends its tree and gets back an empty answer, never a row."""
    sim, net, cluster, (host,) = make_store(anti_entropy=True)
    coord = cluster.coordinator_for(host)

    def client():
        for index in range(8):
            yield from coord.put("t", f"k{index}", None, {"v": index}, (1.0, "w"),
                                 consistency=Consistency.ALL)
        yield from coord.delete_row("t", "k0", None, (2.0, "w"), consistency=Consistency.ALL)

    run(sim, client())
    rounds, row_bytes = [0], [0]

    def tap(msg):
        if msg.kind.startswith("ae_"):
            rounds[0] += 1
        if isinstance(msg.body, dict) and "entries" in msg.body:
            row_bytes[0] += bundle_bytes(msg.body["entries"])

    net.add_tap(tap)
    sim.run(until=sim.now + 20_000.0)
    assert rounds[0] >= 3 * 10  # three replicas, a round a second each
    assert row_bytes[0] == 0


def test_anti_entropy_spreads_tombstones():
    sim, net, cluster, (host,) = make_store(anti_entropy=True)
    coord = cluster.coordinator_for(host)
    oregon = cluster.replicas_in_site("Oregon")[0]

    def client():
        yield from coord.put("t", "k", None, {"v": "x"}, (1.0, "w"),
                             consistency=Consistency.ALL)
        net.isolate_site("Oregon")
        yield from coord.delete_row("t", "k", None, (2.0, "w"))
        assert oregon.local_row("t", "k", None) is not None  # still sees old value
        net.heal_all()
        yield sim.timeout(20_000.0)
        return oregon.local_row("t", "k", None)

    assert run(sim, client()) is None


def test_anti_entropy_rides_out_a_silent_peer_but_not_a_bug():
    """An unreachable peer is an RpcTimeout the loop retries past; any
    other exception on the exchange path is a bug and fails the run."""
    sim, net, cluster, (host,) = make_store(anti_entropy=True)
    coord = cluster.coordinator_for(host)
    run(sim, coord.put("t", "k", None, {"v": 1}, (1.0, "w"),
                       consistency=Consistency.ALL))
    net.fail_node(cluster.replicas_in_site("Oregon")[0].node_id)
    sim.run(until=sim.now + 20_000.0)

    cluster.replicas_in_site("Ohio")[0].call = broken_rpc
    with pytest.raises(TypeError, match="bug on the RPC path"):
        sim.run(until=sim.now + 20_000.0)


def test_anti_entropy_disabled_leaves_replica_stale(monkeypatch):
    """With both repair mechanisms off, a missed write stays missed."""
    monkeypatch.setattr(StoreConfig, "hinted_handoff_enabled", False)
    sim, net, cluster, (host,) = make_store(anti_entropy=False)
    coord = cluster.coordinator_for(host)
    oregon = cluster.replicas_in_site("Oregon")[0]

    def client():
        net.isolate_site("Oregon")
        yield from coord.put("t", "k", None, {"v": "update"}, (5.0, "w"))
        net.heal_all()
        yield sim.timeout(20_000.0)
        return oregon.local_row("t", "k", None)

    assert run(sim, client()) is None


def test_hinted_handoff_repairs_even_without_anti_entropy(monkeypatch):
    monkeypatch.setattr(StoreConfig, "rpc_timeout_ms", 500.0)
    monkeypatch.setattr(StoreConfig, "hint_replay_interval_ms", 1_000.0)
    sim, net, cluster, (host,) = make_store(anti_entropy=False)
    coord = cluster.coordinator_for(host)
    oregon = cluster.replicas_in_site("Oregon")[0]

    def client():
        net.isolate_site("Oregon")
        yield from coord.put("t", "k", None, {"v": "update"}, (5.0, "w"))
        net.heal_all()
        yield sim.timeout(20_000.0)
        return oregon.local_row("t", "k", None)

    row = run(sim, client())
    assert row is not None and row.visible_values()["v"] == "update"
