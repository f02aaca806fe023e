"""Tests for the Zookeeper baseline: znodes, Zab, sessions, lock recipe."""

import pytest

from repro.baselines.zookeeper import (
    BadVersionError,
    NoNodeError,
    NodeExistsError,
    ZkError,
    ZkLock,
    ZkSession,
    ZNodeTree,
    build_zookeeper,
)
from repro.baselines.zookeeper import server as zk_server
from repro.errors import NoLeader
from repro.net import PROFILE_LUS, Network
from repro.sim import RandomStreams, Simulator


class TestZNodeTree:
    def test_create_and_get(self):
        tree = ZNodeTree()
        assert tree.create("/a", b"data") == "/a"
        assert tree.get("/a") == (b"data", 0)

    def test_nested_paths(self):
        tree = ZNodeTree()
        tree.create("/a")
        tree.create("/a/b", b"x")
        assert tree.get("/a/b") == (b"x", 0)
        assert tree.get_children("/a") == ["b"]

    def test_sequential_create_pads_and_increments(self):
        tree = ZNodeTree()
        tree.create("/locks")
        first = tree.create("/locks/lock-", sequential=True)
        second = tree.create("/locks/lock-", sequential=True)
        assert first == "/locks/lock-0000000000"
        assert second == "/locks/lock-0000000001"
        assert sorted([first, second]) == [first, second]

    def test_set_data_bumps_version_and_checks_it(self):
        tree = ZNodeTree()
        tree.create("/a", b"v0")
        assert tree.set_data("/a", b"v1") == 1
        with pytest.raises(BadVersionError):
            tree.set_data("/a", b"v2", expected_version=0)

    def test_delete(self):
        tree = ZNodeTree()
        tree.create("/a")
        tree.delete("/a")
        assert not tree.exists("/a")
        with pytest.raises(NoNodeError):
            tree.delete("/a")

    def test_delete_with_children_rejected(self):
        tree = ZNodeTree()
        tree.create("/a")
        tree.create("/a/b")
        with pytest.raises(ZkError):
            tree.delete("/a")

    def test_duplicate_create_rejected(self):
        tree = ZNodeTree()
        tree.create("/a")
        with pytest.raises(NodeExistsError):
            tree.create("/a")

    def test_missing_node_raises(self):
        tree = ZNodeTree()
        with pytest.raises(NoNodeError):
            tree.get("/missing")

    def test_ephemerals_of_session(self):
        tree = ZNodeTree()
        tree.create("/locks")
        tree.create("/locks/e1", ephemeral_owner=7)
        tree.create("/locks/e2", ephemeral_owner=8)
        assert tree.ephemerals_of(7) == ["/locks/e1"]


def make_ensemble():
    sim = Simulator()
    network = Network(sim, PROFILE_LUS, streams=RandomStreams(3))
    servers = build_zookeeper(sim, network, list(PROFILE_LUS.site_names))
    return sim, network, servers


def run(sim, generator, limit=1e8):
    return sim.run_until_complete(sim.process(generator), limit=limit)


def test_write_replicates_to_all_servers():
    sim, _net, servers = make_ensemble()

    def task():
        session = ZkSession(servers[0])
        yield from session.open()
        yield from session.create("/key", b"value")
        yield sim.timeout(500.0)  # let commits reach all followers
        session.close()

    run(sim, task())
    for server in servers:
        assert server.tree.get("/key") == (b"value", 0)


def test_write_via_follower_forwards_to_leader():
    sim, _net, servers = make_ensemble()
    follower = servers[2]  # Oregon
    assert not follower.is_leader

    def task():
        session = ZkSession(follower)
        yield from session.open()
        start = sim.now
        yield from session.create("/k", b"v")
        elapsed = sim.now - start
        session.close()
        return elapsed

    elapsed = run(sim, task())
    # Forward Oregon->Ohio (~72 RTT) + replication quorum (~54) and back.
    assert 100.0 < elapsed < 200.0


def test_leader_write_latency_is_one_replication_rtt():
    sim, _net, servers = make_ensemble()

    def task():
        session = ZkSession(servers[0])
        yield from session.open()
        start = sim.now
        yield from session.set_data("/", b"")  # root always exists
        elapsed = sim.now - start
        session.close()
        return elapsed

    elapsed = run(sim, task())
    assert 50.0 < elapsed < 65.0


def test_reads_are_local():
    sim, _net, servers = make_ensemble()

    def task():
        session = ZkSession(servers[0])
        yield from session.open()
        yield from session.create("/k", b"v")
        start = sim.now
        yield from session.get_data("/k")
        elapsed = sim.now - start
        session.close()
        return elapsed

    assert run(sim, task()) < 2.0


def test_commits_apply_in_order_despite_concurrency():
    sim, _net, servers = make_ensemble()
    leader = servers[0]

    def writer(session, index):
        yield from session.create(f"/n{index}", str(index).encode())

    def task():
        session = ZkSession(leader)
        yield from session.open()
        procs = [sim.process(writer(session, i)) for i in range(10)]
        for proc in procs:
            yield proc
        yield sim.timeout(1_000.0)
        session.close()

    run(sim, task())
    for server in servers:
        for i in range(10):
            assert server.tree.exists(f"/n{i}")
        assert server.counters["applied"] == leader.counters["applied"]


def test_dead_leader_raises_noleader():
    sim, net, servers = make_ensemble()
    net.fail_node(servers[0].node_id)

    def task():
        session = ZkSession(servers[1])
        try:
            yield from session.open()
        except Exception:
            return "no-session"
        try:
            yield from session.create("/k", b"v")
        except NoLeader:
            return "noleader"
        return "ok"

    assert run(sim, task()) in ("noleader", "no-session")


def test_zk_lock_mutual_exclusion():
    sim, _net, servers = make_ensemble()
    holding = {"count": 0, "max": 0, "grants": 0}

    def contender(server):
        session = ZkSession(server)
        yield from session.open()
        lock = ZkLock(session, "mutex")
        acquired = yield from lock.acquire()
        assert acquired
        holding["count"] += 1
        holding["max"] = max(holding["max"], holding["count"])
        holding["grants"] += 1
        yield sim.timeout(100.0)
        holding["count"] -= 1
        yield from lock.release()
        session.close()

    procs = [sim.process(contender(server)) for server in servers]
    for proc in procs:
        sim.run_until_complete(proc, limit=1e8)
    assert holding["grants"] == 3
    assert holding["max"] == 1


def test_zk_lock_released_by_session_expiry_on_crash(monkeypatch):
    """A crashed holder's ephemeral lock znode is cleaned up, letting the
    next contender in — the ZK analogue of MUSIC's forcedRelease."""
    monkeypatch.setattr(zk_server, "SESSION_TIMEOUT_MS", 3_000.0)
    monkeypatch.setattr(zk_server, "SESSION_SWEEP_INTERVAL_MS", 500.0)
    monkeypatch.setattr(zk_server, "HEARTBEAT_INTERVAL_MS", 500.0)
    sim, _net, servers = make_ensemble()

    def holder():
        session = ZkSession(servers[1])
        yield from session.open()
        lock = ZkLock(session, "mutex")
        yield from lock.acquire()
        session.close()  # crash: heartbeats stop, lock never released

    run(sim, holder())

    def waiter():
        session = ZkSession(servers[2])
        yield from session.open()
        lock = ZkLock(session, "mutex")
        acquired = yield from lock.acquire(timeout_ms=60_000.0)
        session.close()
        return acquired

    assert run(sim, waiter()) is True


def test_commits_apply_in_order_under_jitter():
    """Message reordering (jittered delays) must not reorder applies:
    the zxid buffer holds early arrivals until their predecessors land."""
    sim = Simulator()
    network = Network(sim, PROFILE_LUS, streams=RandomStreams(77),
                      jitter_fraction=0.8)
    servers = build_zookeeper(sim, network, list(PROFILE_LUS.site_names))

    def task():
        session = ZkSession(servers[0])
        yield from session.open()
        procs = [
            sim.process(session.create(f"/j{i}", str(i).encode()))
            for i in range(12)
        ]
        for proc in procs:
            yield proc
        yield sim.timeout(2_000.0)
        session.close()

    run(sim, task())
    for server in servers:
        for i in range(12):
            assert server.tree.exists(f"/j{i}")
        assert server.counters["applied"] == servers[0].counters["applied"]


def test_data_watch_fires_on_set_and_delete():
    sim, _net, servers = make_ensemble()
    fired = []

    def scenario():
        session = ZkSession(servers[0])
        yield from session.open()
        yield from session.create("/w", b"v0")
        watch = servers[0].watch_data("/w")
        yield from session.set_data("/w", b"v1")
        path = yield watch
        fired.append((path, sim.now))
        # One-shot: a new watch is needed for the next change.
        watch2 = servers[0].watch_data("/w")
        yield from session.delete("/w")
        path2 = yield watch2
        fired.append((path2, sim.now))
        session.close()

    run(sim, scenario())
    assert [path for path, _t in fired] == ["/w", "/w"]


def test_child_watch_fires_on_create():
    sim, _net, servers = make_ensemble()

    def scenario():
        session = ZkSession(servers[0])
        yield from session.open()
        yield from session.create("/parent")
        watch = servers[0].watch_children("/parent")
        yield from session.create("/parent/kid")
        path = yield watch
        session.close()
        return path

    assert run(sim, scenario()) == "/parent"


def test_watch_fires_on_follower_when_commit_arrives():
    """Watches observe the local server's view: a follower's watch fires
    once the commit reaches it, not when the leader decides."""
    sim, _net, servers = make_ensemble()
    follower = servers[2]
    times = {}

    def watcher():
        session = ZkSession(servers[0])
        yield from session.open()
        yield from session.create("/w", b"v0")
        yield sim.timeout(500.0)  # let the create reach the follower
        watch = follower.watch_data("/w")
        times["armed"] = sim.now
        yield from session.set_data("/w", b"v1")
        times["leader_done"] = sim.now
        yield watch
        times["fired"] = sim.now
        session.close()

    run(sim, watcher())
    # The follower (Oregon) learns after the leader's quorum commit:
    # one leader->follower hop later.
    assert times["fired"] >= times["leader_done"]


def test_zk_lock_with_watches_mutual_exclusion():
    sim, _net, servers = make_ensemble()
    holding = {"count": 0, "max": 0, "grants": 0}

    def contender(server):
        session = ZkSession(server)
        yield from session.open()
        lock = ZkLock(session, "wmutex", use_watches=True)
        acquired = yield from lock.acquire()
        assert acquired
        holding["count"] += 1
        holding["max"] = max(holding["max"], holding["count"])
        holding["grants"] += 1
        yield sim.timeout(100.0)
        holding["count"] -= 1
        yield from lock.release()
        session.close()

    procs = [sim.process(contender(server)) for server in servers]
    for proc in procs:
        sim.run_until_complete(proc, limit=1e8)
    assert holding["grants"] == 3
    assert holding["max"] == 1


def test_zk_lock_watch_timeout():
    sim, _net, servers = make_ensemble()

    def task():
        session_a = ZkSession(servers[0])
        yield from session_a.open()
        lock_a = ZkLock(session_a, "wm", use_watches=True)
        yield from lock_a.acquire()
        session_b = ZkSession(servers[1])
        yield from session_b.open()
        lock_b = ZkLock(session_b, "wm", use_watches=True)
        acquired = yield from lock_b.acquire(timeout_ms=2_000.0)
        session_a.close()
        session_b.close()
        return acquired

    assert run(sim, task()) is False


def test_zk_lock_timeout_returns_false():
    sim, _net, servers = make_ensemble()

    def task():
        session_a = ZkSession(servers[0])
        yield from session_a.open()
        lock_a = ZkLock(session_a, "m")
        yield from lock_a.acquire()
        session_b = ZkSession(servers[1])
        yield from session_b.open()
        lock_b = ZkLock(session_b, "m")
        acquired = yield from lock_b.acquire(timeout_ms=2_000.0)
        session_a.close()
        session_b.close()
        return acquired

    assert run(sim, task()) is False
