"""Tests for Raft leader elections in the CockroachDB baseline."""

import pytest

from repro.baselines.cockroach import (
    CockroachClient,
    CockroachConfig,
    build_cockroach,
)
from repro.errors import NoLeader
from repro.net import PROFILE_LUS, Network
from repro.sim import RandomStreams, Simulator

@pytest.fixture(autouse=True)
def short_raft_timers(monkeypatch):
    monkeypatch.setattr(CockroachConfig, "heartbeat_interval_ms", 500.0)
    monkeypatch.setattr(CockroachConfig, "election_timeout_ms", 2_000.0)


def make_cluster(config=None):
    sim = Simulator()
    network = Network(sim, PROFILE_LUS, streams=RandomStreams(5))
    nodes = build_cockroach(sim, network, list(PROFILE_LUS.site_names), config=config)
    return sim, network, nodes


def run(sim, generator, limit=1e9):
    return sim.run_until_complete(sim.process(generator), limit=limit)


def test_leader_failure_elects_new_leader():
    sim, net, nodes = make_cluster()
    client_b = CockroachClient(nodes[1], client_id="b")

    def before():
        yield from CockroachClient(nodes[0]).upsert("k", "pre-crash")

    run(sim, before())
    net.fail_node(nodes[0].node_id)
    # Let the election timeout fire and a new leader emerge.
    sim.run(until=sim.now + 15_000.0, strict=False)
    survivors = nodes[1:]
    assert sum(n.counters["elections_won"] for n in survivors) > 0
    # Every range has a live leader among the survivors.
    for r in range(nodes[0].config.range_count):
        leaders = [n for n in survivors if n.ranges[r].role == "leader"]
        assert len(leaders) == 1

    def after():
        yield from client_b.upsert("k2", "post-crash")
        value = yield from client_b.get("k2")
        old = yield from client_b.get("k")
        return value, old

    value, old = run(sim, after())
    assert value == "post-crash"
    # Committed data survives the leader change (log completeness).
    assert old == "pre-crash"


def test_no_spurious_elections_with_healthy_leader():
    sim, _net, nodes = make_cluster()
    client = CockroachClient(nodes[0])

    def task():
        for index in range(3):
            yield from client.upsert(f"k{index}", index)
            yield sim.timeout(3_000.0)

    run(sim, task())
    assert all(n.counters["elections_won"] == 0 for n in nodes)
    # Initial leaseholder still leads everything.
    assert all(state.role == "leader" for state in nodes[0].ranges.values())


def test_deposed_leader_steps_down_on_higher_term():
    sim, net, nodes = make_cluster()

    def before():
        yield from CockroachClient(nodes[0]).upsert("k", "v1")

    run(sim, before())
    net.fail_node(nodes[0].node_id)
    sim.run(until=sim.now + 15_000.0, strict=False)
    net.recover_node(nodes[0].node_id)
    sim.run(until=sim.now + 10_000.0, strict=False)
    # The old leader rejoined: for each range there is exactly one
    # leader cluster-wide, and terms agree.
    for r in range(nodes[0].config.range_count):
        leaders = [n for n in nodes if n.ranges[r].role == "leader"]
        assert len(leaders) == 1


def test_recovered_follower_catches_up_missed_writes():
    sim, net, nodes = make_cluster()
    client = CockroachClient(nodes[0])
    net.fail_node(nodes[2].node_id)

    def writes():
        for index in range(4):
            yield from client.upsert(f"k{index}", index)

    run(sim, writes())
    net.recover_node(nodes[2].node_id)
    sim.run(until=sim.now + 15_000.0, strict=False)
    for index in range(4):
        assert nodes[2].committed.get(f"k{index}") == (index, 1)


def test_client_follows_leadership_via_redirects():
    """A gateway with a stale leaseholder belief reaches the new leader
    through not_leader redirects."""
    sim, net, nodes = make_cluster()
    net.fail_node(nodes[0].node_id)
    sim.run(until=sim.now + 15_000.0, strict=False)
    # nodes[1]'s *belief* may be stale for some ranges; proposals must
    # still land.
    client = CockroachClient(nodes[1])

    def task():
        for index in range(4):
            yield from client.upsert(f"key-{index}", index)
        values = []
        for index in range(4):
            value = yield from client.get(f"key-{index}")
            values.append(value)
        return values

    assert run(sim, task()) == [0, 1, 2, 3]


def test_elections_can_be_disabled(monkeypatch):
    monkeypatch.setattr(CockroachConfig, "election_timeout_ms", 1_000.0)
    sim, net, nodes = make_cluster(CockroachConfig(elections_enabled=False))
    net.fail_node(nodes[0].node_id)
    sim.run(until=sim.now + 10_000.0, strict=False)
    assert all(n.counters["elections_won"] == 0 for n in nodes)
    client = CockroachClient(nodes[1])

    def task():
        try:
            yield from client.upsert("k", "v")
        except NoLeader:
            return "noleader"
        return "ok"

    assert run(sim, task()) == "noleader"
