"""Integration tests for light-weight transactions (per-partition Paxos)."""

from repro.errors import QuorumUnavailable
from repro.store import Condition, Consistency, StoreConfig
from repro.store.types import DeleteRow, Update

from tests.helpers import make_store, run


def test_cas_applies_when_condition_holds():
    sim, _net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)

    def client():
        result = yield from coord.cas(
            "locks", "k",
            Condition("not_exists", clustering="guard"),
            [Update("locks", "k", "guard", {"value": 1}, (1.0, host.node_id))],
        )
        rows = yield from coord.get("locks", "k")
        return result, rows

    result, rows = run(sim, client())
    assert result.applied
    assert rows["guard"].visible_values()["value"] == 1


def test_cas_rejects_when_condition_fails():
    sim, _net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)

    def client():
        yield from coord.put("locks", "k", "guard", {"value": 5}, (1.0, "w"))
        result = yield from coord.cas(
            "locks", "k",
            Condition("col_eq", "guard", column="value", expected=99),
            [Update("locks", "k", "guard", {"value": 100}, (2.0, host.node_id))],
        )
        rows = yield from coord.get("locks", "k")
        return result, rows

    result, rows = run(sim, client())
    assert not result.applied
    assert result.current["guard"].visible_values()["value"] == 5
    assert rows["guard"].visible_values()["value"] == 5  # unchanged


def test_cas_latency_is_about_four_quorum_round_trips():
    """The LWT cost anchor for Fig. 5b: ~4x the lUs quorum RTT (~220ms)."""
    sim, _net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)
    done = {}

    def client():
        start = sim.now
        yield from coord.cas(
            "locks", "k", Condition("always"),
            [Update("locks", "k", "g", {"v": 1}, (1.0, host.node_id))],
        )
        done["elapsed"] = sim.now - start

    run(sim, client())
    assert 4 * 53.79 * 0.95 < done["elapsed"] < 4 * 53.79 * 1.15


def test_cas_batch_is_atomic():
    """The createLockRef batch: guard increment + queue row, one LWT."""
    sim, _net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)

    def client():
        result = yield from coord.cas(
            "locks", "k",
            Condition("col_eq", "guard", column="value", expected=None),
            [
                Update("locks", "k", "guard", {"value": 1}, (1.0, host.node_id)),
                Update("locks", "k", 1, {"acquired": False}, (1.0, host.node_id)),
            ],
        )
        rows = yield from coord.get("locks", "k")
        return result, rows

    result, rows = run(sim, client())
    assert result.applied
    assert set(rows) == {"guard", 1}


def test_concurrent_cas_increments_serialize():
    """N concurrent conditional increments: exactly N wins, no lost updates."""
    sim, _net, cluster, hosts = make_store(host_sites=("Ohio", "N.California", "Oregon"))
    coords = [cluster.coordinator_for(h) for h in hosts]
    outcome = {"applied": 0}

    def incrementer(coord, tag):
        # Retry the read-increment-cas loop until our increment applies.
        while True:
            rows = yield from coord.get("locks", "ctr", consistency=Consistency.QUORUM)
            current = rows["g"].visible_values()["value"] if "g" in rows else None
            new = (current or 0) + 1
            result = yield from coord.cas(
                "locks", "ctr",
                Condition("col_eq", "g", column="value", expected=current),
                [Update("locks", "ctr", "g", {"value": new},
                        (coord.node.clock.now(), tag))],
            )
            if result.applied:
                outcome["applied"] += 1
                return

    procs = []
    for round_num in range(2):
        for i, coord in enumerate(coords):
            procs.append(sim.process(incrementer(coord, f"c{i}-{round_num}")))
    for proc in procs:
        sim.run_until_complete(proc, limit=600_000)

    def check():
        rows = yield from coords[0].get("locks", "ctr", consistency=Consistency.ALL)
        return rows["g"].visible_values()["value"]

    assert outcome["applied"] == 6
    assert run(sim, check()) == 6


def test_cas_completes_in_progress_proposal_from_dead_coordinator():
    """Paxos recovery: an accepted-but-uncommitted mutation is finished by
    the next coordinator, so the value is not lost."""
    sim, net, cluster, hosts = make_store(host_sites=("Ohio", "N.California"))
    coord_a = cluster.coordinator_for(hosts[0])
    coord_b = cluster.coordinator_for(hosts[1])

    # Drive coordinator A through prepare+propose, then kill it before commit.
    mutation = [Update("locks", "k", "g", {"v": "from-A"}, (5.0, "A"))]

    def doomed():
        try:
            yield from coord_a.cas("locks", "k", Condition("always"), mutation)
        except QuorumUnavailable:
            pass  # the host was crashed mid-transaction

    sim.process(doomed())
    # Propose (round 3) starts after ~prepare (1 RTT) + read (1 RTT) ≈ 108ms;
    # accepts land at replicas ~27-36ms later; commit issues at ~162ms.
    # Crash the host at 170ms: accepts are durable, commit never arrives
    # everywhere... so crash earlier: at 165ms commit messages may be in
    # flight.  To make the test deterministic, crash right after accept
    # replies would have been sent but drop the commit by failing the host.
    sim.run(until=163.0)
    hosts[0].crash()
    sim.run(until=10_000.0)
    # Some replicas may hold an accepted-but-uncommitted proposal now.
    accepted_somewhere = any(
        state.accepted is not None for replica in cluster.replicas
        for state in replica.paxos.values()
    )

    def second():
        result = yield from coord_b.cas(
            "locks", "k", Condition("always"),
            [Update("locks", "k", "g2", {"v": "from-B"}, (6.0, "B"))],
        )
        rows = yield from coord_b.get("locks", "k", consistency=Consistency.QUORUM)
        return result, rows

    result, rows = run(sim, second())
    assert result.applied
    # B's own write landed.
    assert rows["g2"].visible_values()["v"] == "from-B"
    if accepted_somewhere:
        # A's in-progress proposal was completed by B before B's write.
        assert rows["g"].visible_values()["v"] == "from-A"


def test_cas_with_delete_in_mutation():
    sim, _net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)

    def client():
        yield from coord.put("locks", "k", 7, {"holder": "x"}, (1.0, "w"))
        result = yield from coord.cas(
            "locks", "k",
            Condition("exists", clustering=7),
            [DeleteRow("locks", "k", 7, (2.0, host.node_id))],
        )
        rows = yield from coord.get("locks", "k")
        return result, rows

    result, rows = run(sim, client())
    assert result.applied
    assert rows == {}


def test_cas_unavailable_without_quorum(monkeypatch):
    monkeypatch.setattr(StoreConfig, "rpc_timeout_ms", 300.0)
    sim, net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)
    net.isolate_site("N.California")
    net.isolate_site("Oregon")

    def client():
        try:
            yield from coord.cas(
                "locks", "k", Condition("always"),
                [Update("locks", "k", "g", {"v": 1}, (1.0, host.node_id))],
            )
        except QuorumUnavailable:
            return "nack"
        return "ok"

    assert run(sim, client()) == "nack"


def test_cas_succeeds_with_one_site_down(monkeypatch):
    monkeypatch.setattr(StoreConfig, "rpc_timeout_ms", 500.0)
    sim, net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)
    net.isolate_site("Oregon")

    def client():
        result = yield from coord.cas(
            "locks", "k", Condition("always"),
            [Update("locks", "k", "g", {"v": 1}, (1.0, host.node_id))],
        )
        return result

    assert run(sim, client()).applied


def test_paxos_state_isolated_per_partition():
    """Concurrent CAS on different partitions never contend."""
    sim, _net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)
    finished = []

    def client(key):
        result = yield from coord.cas(
            "locks", key, Condition("always"),
            [Update("locks", key, "g", {"v": key}, (1.0, host.node_id))],
        )
        finished.append((key, result.applied, sim.now))

    procs = [sim.process(client(f"k{i}")) for i in range(4)]
    for proc in procs:
        sim.run_until_complete(proc, limit=100_000)
    assert all(applied for _k, applied, _t in finished)
    # No backoff retries: all complete in about one uncontended LWT time.
    assert max(t for _k, _a, t in finished) < 300.0
