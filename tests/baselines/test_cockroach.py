"""Tests for the CockroachDB baseline: Raft ranges, txns, X-B3 CS."""

from repro.baselines.cockroach import (
    CockroachClient,
    CockroachCriticalSection,
    build_cockroach,
    range_of,
)
from repro.errors import NoLeader, TransactionAborted
from repro.net import PROFILE_LUS, Network
from repro.sim import RandomStreams, Simulator


def make_cluster(**kwargs):
    sim = Simulator()
    network = Network(sim, PROFILE_LUS, streams=RandomStreams(5))
    nodes = build_cockroach(sim, network, list(PROFILE_LUS.site_names), **kwargs)
    return sim, network, nodes


def run(sim, generator, limit=1e8):
    return sim.run_until_complete(sim.process(generator), limit=limit)


def test_range_of_is_stable_and_in_range():
    for key in ("a", "b", "key-123"):
        r = range_of(key, 8)
        assert 0 <= r < 8
        assert r == range_of(key, 8)


def test_upsert_and_get_round_trip():
    sim, _net, nodes = make_cluster()
    client = CockroachClient(nodes[0])

    def task():
        yield from client.upsert("k", "value")
        value = yield from client.get("k")
        return value

    assert run(sim, task()) == "value"


def test_upsert_replicates_to_followers():
    sim, _net, nodes = make_cluster()
    client = CockroachClient(nodes[0])

    def task():
        yield from client.upsert("k", "v")
        yield sim.timeout(500.0)

    run(sim, task())
    for node in nodes:
        assert node.committed.get("k") == ("v", 1)


def test_upsert_latency_is_one_consensus_round_trip():
    """From the leaseholder's site: ~1 replication RTT (53.79ms)."""
    sim, _net, nodes = make_cluster()
    client = CockroachClient(nodes[0])

    def task():
        start = sim.now
        yield from client.upsert("k", "v")
        return sim.now - start

    elapsed = run(sim, task())
    assert 50.0 < elapsed < 65.0


def test_transaction_commit_makes_writes_visible():
    sim, _net, nodes = make_cluster()
    client = CockroachClient(nodes[0])

    def task():
        txn = client.begin()
        yield from txn.put("a", 1)
        mine = yield from txn.get("a")  # read-your-writes via the intent
        yield from txn.commit()
        after = yield from client.get("a")
        return mine, after

    assert run(sim, task()) == (1, 1)


def test_uncommitted_intent_blocks_other_readers():
    sim, _net, nodes = make_cluster()
    client_a = CockroachClient(nodes[0])
    client_b = CockroachClient(nodes[1], client_id="b")

    def task():
        txn = client_a.begin()
        yield from txn.put("a", 1)
        try:
            yield from client_b.get("a")
        except TransactionAborted:
            outcome = "conflict"
        else:
            outcome = "read"
        yield from txn.abort()
        after = yield from client_b.get("a")
        return outcome, after

    assert run(sim, task()) == ("conflict", None)


def test_abort_discards_writes():
    sim, _net, nodes = make_cluster()
    client = CockroachClient(nodes[0])

    def task():
        txn = client.begin()
        yield from txn.put("a", "doomed")
        yield from txn.abort()
        value = yield from client.get("a")
        return value

    assert run(sim, task()) is None


def test_write_write_conflict_aborts_second_txn():
    sim, _net, nodes = make_cluster()
    client_a = CockroachClient(nodes[0])
    client_b = CockroachClient(nodes[1], client_id="b")

    def task():
        txn_a = client_a.begin()
        yield from txn_a.put("k", "A")
        txn_b = client_b.begin()
        try:
            yield from txn_b.put("k", "B")
        except TransactionAborted:
            outcome = "aborted"
        else:
            outcome = "ok"
        yield from txn_a.commit()
        return outcome

    assert run(sim, task()) == "aborted"


def test_run_transaction_retries_conflicts():
    sim, _net, nodes = make_cluster()
    client_a = CockroachClient(nodes[0], client_id="a")
    client_b = CockroachClient(nodes[1], client_id="b")

    def body_factory(client, tag):
        def body(txn):
            current = yield from txn.get("ctr")
            yield from txn.put("ctr", (current or 0) + 1)
            return tag

        return body

    def runner(client, tag):
        result = yield from client.run_transaction(body_factory(client, tag))
        return result

    procs = [
        sim.process(runner(client_a, "a")),
        sim.process(runner(client_b, "b")),
    ]
    for proc in procs:
        sim.run_until_complete(proc, limit=1e8)

    def check():
        value = yield from client_a.get("ctr")
        return value

    assert run(sim, check()) == 2


def test_xb3_critical_section_provides_exclusivity():
    sim, _net, nodes = make_cluster()
    holding = {"count": 0, "max": 0, "updates": 0}

    def worker(node, tag):
        client = CockroachClient(node, client_id=tag)
        cs = CockroachCriticalSection(client, "mutex", owner=tag)
        for i in range(2):
            yield from cs._enter()
            holding["count"] += 1
            holding["max"] = max(holding["max"], holding["count"])
            yield from client.upsert("data", f"{tag}-{i}")
            holding["updates"] += 1
            yield sim.timeout(20.0)
            holding["count"] -= 1
            yield from cs._exit()

    procs = [sim.process(worker(node, f"w{i}")) for i, node in enumerate(nodes)]
    for proc in procs:
        sim.run_until_complete(proc, limit=1e9)
    assert holding["updates"] == 6
    assert holding["max"] == 1


def test_xb3_update_costs_about_four_consensus_ops():
    """The X-B4 cost model: one CS update ≈ 4 consensus ops ≈ 4 RTTs."""
    sim, _net, nodes = make_cluster()
    client = CockroachClient(nodes[0])
    cs = CockroachCriticalSection(client, "lock", owner="me")

    def task():
        start = sim.now
        yield from cs.update("data", "v")
        return sim.now - start

    elapsed = run(sim, task())
    assert 4 * 53.79 * 0.9 < elapsed < 4 * 53.79 * 1.3


def test_dead_leaseholder_raises_noleader():
    sim, net, nodes = make_cluster()
    net.fail_node(nodes[0].node_id)  # all leases live at node 0 by default
    client = CockroachClient(nodes[1])

    def task():
        try:
            yield from client.upsert("k", "v")
        except NoLeader:
            return "noleader"
        return "ok"

    assert run(sim, task()) == "noleader"


def test_leaseholders_can_be_spread():
    sim, _net, nodes = make_cluster(leaseholder_site_index=None)
    owners = {nodes[0].leaseholder_of(f"key-{i}") for i in range(40)}
    assert len(owners) == 3
