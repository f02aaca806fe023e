"""Tests for hinted handoff (coordinator-side write repair)."""

import pytest

from repro.errors import QuorumUnavailable
from repro.store import Consistency, StoreConfig

from tests.helpers import make_store, run


@pytest.fixture(autouse=True)
def hint_timings(monkeypatch):
    """A one-second hint replay and a 500 ms RPC deadline."""
    monkeypatch.setattr(StoreConfig, "hint_replay_interval_ms", 1_000.0)
    monkeypatch.setattr(StoreConfig, "rpc_timeout_ms", 500.0)


def test_hint_stored_for_unreachable_replica_and_replayed():
    sim, net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)
    oregon = cluster.replicas_in_site("Oregon")[0]

    def scenario():
        net.isolate_site("Oregon")
        yield from coord.put("t", "k", None, {"v": "hinted"}, (1.0, "w"),
                             consistency=Consistency.QUORUM)
        # The write succeeded at quorum; the Oregon copy became a hint.
        yield sim.timeout(1_000.0)  # wait out the RPC timeout
        assert coord.pending_hints == 1
        assert oregon.local_row("t", "k", None) is None
        net.heal_all()
        yield sim.timeout(5_000.0)  # a few replay rounds
        return oregon.local_row("t", "k", None)

    row = run(sim, scenario())
    assert row is not None
    assert row.visible_values()["v"] == "hinted"

    def after():
        yield sim.timeout(100.0)
        return coord.pending_hints

    assert run(sim, after()) == 0


def test_a_failed_quorum_write_still_hints_every_unreachable_replica():
    """With both other sites cut off a QUORUM put fails, and the failed
    replies that decided it still become hints: the quorum wait reports
    every failed reply to hinted handoff, the last one included, so both
    replicas get the row once the sites heal."""
    sim, net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)
    others = [cluster.replicas_in_site(site)[0] for site in ("N.California", "Oregon")]

    def scenario():
        net.isolate_site("N.California")
        net.isolate_site("Oregon")
        with pytest.raises(QuorumUnavailable):
            yield from coord.put("t", "k", None, {"v": "hinted"}, (1.0, "w"),
                                 consistency=Consistency.QUORUM)
        hinted = coord.pending_hints
        net.heal_all()
        yield sim.timeout(5_000.0)  # a few replay rounds
        return hinted, [replica.local_row("t", "k", None) for replica in others]

    hinted, rows = run(sim, scenario())
    assert hinted == 2
    assert [row.visible_values()["v"] for row in rows] == ["hinted", "hinted"]
    assert coord.pending_hints == 0


def test_hints_disabled_leaves_replica_stale(monkeypatch):
    monkeypatch.setattr(StoreConfig, "hinted_handoff_enabled", False)
    sim, net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)
    oregon = cluster.replicas_in_site("Oregon")[0]

    def scenario():
        net.isolate_site("Oregon")
        yield from coord.put("t", "k", None, {"v": "lost"}, (1.0, "w"))
        net.heal_all()
        yield sim.timeout(10_000.0)
        return oregon.local_row("t", "k", None), coord.pending_hints

    row, hints = run(sim, scenario())
    assert row is None
    assert hints == 0


def test_hint_replay_is_idempotent_with_newer_data():
    """A hint that arrives after a newer write must not regress it."""
    sim, net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)
    oregon = cluster.replicas_in_site("Oregon")[0]

    def scenario():
        net.isolate_site("Oregon")
        yield from coord.put("t", "k", None, {"v": "old"}, (1.0, "w"))
        yield sim.timeout(1_000.0)
        net.heal_all()
        # A newer write lands everywhere before the hint replays.
        yield from coord.put("t", "k", None, {"v": "new"}, (2.0, "w"),
                             consistency=Consistency.ALL)
        yield sim.timeout(6_000.0)  # hint replays now
        return oregon.local_row("t", "k", None)

    row = run(sim, scenario())
    assert row.visible_values()["v"] == "new"  # LWW kept the newer value


def test_hint_buffer_is_bounded(monkeypatch):
    monkeypatch.setattr(StoreConfig, "max_hints_per_coordinator", 3)
    sim, net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)

    def scenario():
        net.isolate_site("Oregon")
        for index in range(8):
            yield from coord.put("t", f"k{index}", None, {"v": index},
                                 (float(index + 1), "w"))
        yield sim.timeout(1_000.0)
        return coord.pending_hints

    assert run(sim, scenario()) <= 3


def _counter(obs, name, **labels):
    for entry in obs.metrics.snapshot()["counters"]:
        if entry["name"] == name and entry["labels"] == labels:
            return entry["value"]
    return 0


def make_observed_store():
    """``make_store`` whose network carries a live Observability recorder."""
    from repro.net import PAPER_PROFILES, Network, Node
    from repro.obs import Observability
    from repro.sim import RandomStreams, Simulator
    from repro.store import build_cluster

    profile = PAPER_PROFILES["lUs"]
    sim = Simulator()
    streams = RandomStreams(11)
    obs = Observability(sim)
    network = Network(sim, profile, streams=streams, obs=obs)
    config = StoreConfig(replication_factor=3, anti_entropy_enabled=False)
    cluster = build_cluster(
        sim, network, profile, nodes_per_site=1, config=config, streams=streams
    )
    cluster.start()
    host = Node(sim, network, "host-0", "Ohio")
    host.start()
    return sim, network, cluster, host, obs


def test_expired_hint_is_dropped_not_replayed(monkeypatch):
    """A hint older than the TTL window is shed: the replica must be
    healed by anti-entropy, exactly like Cassandra's max_hint_window."""
    monkeypatch.setattr(StoreConfig, "hint_ttl_ms", 3_000.0)
    sim, net, cluster, host, obs = make_observed_store()
    coord = cluster.coordinator_for(host)
    oregon = cluster.replicas_in_site("Oregon")[0]

    def scenario():
        net.isolate_site("Oregon")
        yield from coord.put("t", "k", None, {"v": "late"}, (1.0, "w"))
        # Stay partitioned past the TTL; every replay attempt fails, and
        # once the window lapses the hint is discarded instead of tried.
        yield sim.timeout(20_000.0)
        net.heal_all()
        yield sim.timeout(10_000.0)
        return oregon.local_row("t", "k", None), coord.pending_hints

    row, hints = run(sim, scenario())
    assert row is None  # never delivered
    assert hints == 0  # ...and not queued either: it expired
    assert _counter(obs, "store.hints_queued", node="host-0") == 1
    assert _counter(obs, "store.hints_dropped", node="host-0", reason="expired") == 1
    assert _counter(obs, "store.hints_replayed", node="host-0") == 0


def test_hint_counters_track_queue_and_replay():
    sim, net, cluster, host, obs = make_observed_store()
    coord = cluster.coordinator_for(host)

    def scenario():
        net.isolate_site("Oregon")
        yield from coord.put("t", "k", None, {"v": "x"}, (1.0, "w"))
        yield sim.timeout(1_000.0)
        net.heal_all()
        yield sim.timeout(6_000.0)

    run(sim, scenario())
    assert _counter(obs, "store.hints_queued", node="host-0") == 1
    assert _counter(obs, "store.hints_replayed", node="host-0") == 1
    assert _counter(obs, "store.hints_dropped", node="host-0", reason="expired") == 0


def test_overflow_increments_dropped_counter(monkeypatch):
    monkeypatch.setattr(StoreConfig, "max_hints_per_coordinator", 2)
    sim, net, cluster, host, obs = make_observed_store()
    coord = cluster.coordinator_for(host)

    def scenario():
        net.isolate_site("Oregon")
        for index in range(6):
            yield from coord.put("t", f"k{index}", None, {"v": index},
                                 (float(index + 1), "w"))
        yield sim.timeout(1_000.0)

    run(sim, scenario())
    assert _counter(obs, "store.hints_queued", node="host-0") == 2
    assert (
        _counter(obs, "store.hints_dropped", node="host-0", reason="overflow") == 4
    )
