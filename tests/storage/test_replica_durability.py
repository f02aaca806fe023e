"""Cluster-level durability: replica crash/recover under each sync mode,
FaultSchedule restarts, and the paxos_proposes counter regression."""

import pytest

from repro.core import build_music
from repro.faults import FaultSchedule
from repro.obs.metrics import TALLY_NAMES
from repro.storage import StorageEngineConfig
from repro.store import Condition, StoreConfig
from repro.store.types import Update

from tests.helpers import make_store, run


def durable_store(wal_sync="always", **storage_kw):
    config = StoreConfig(
        storage=StorageEngineConfig(wal_sync=wal_sync, **storage_kw)
    )
    return make_store(config=config)


def write(sim, coord, ck, value, ts):
    run(sim, coord.put("t", "p", ck, {"v": value}, (ts, "w")))


def local_visible(replica, ck):
    rows = replica.local_rows("t", "p")
    return rows[ck].visible_values()["v"] if ck in rows and rows[ck].live else None


class TestCrashRecoverRoundTrips:
    def test_always_mode_replica_recovers_every_ack(self):
        sim, _net, cluster, (host,) = durable_store("always")
        coord = cluster.coordinator_for(host)
        write(sim, coord, "a", 1, 1.0)
        victim = cluster.by_id["store-0-0"]
        assert local_visible(victim, "a") == 1
        victim.crash()
        assert victim.failed and victim.engine.crashed
        victim.recover()
        sim.run()
        assert not victim.failed
        assert local_visible(victim, "a") == 1
        assert victim.engine.stats["replays"] == 1
        assert victim.engine.stats["lost_records"] == 0

    def test_periodic_mode_loses_the_unsynced_tail_only(self):
        # The interval must exceed the quorum round trip, or the put's
        # own run window already carries the background sync past "b".
        sim, _net, cluster, (host,) = durable_store(
            "periodic", wal_sync_interval_ms=500.0
        )
        coord = cluster.coordinator_for(host)
        write(sim, coord, "a", 1, 1.0)
        sim.run()  # drain: the background sync makes "a" durable
        write(sim, coord, "b", 2, 2.0)
        victim = cluster.by_id["store-0-0"]
        victim.crash()  # before the next sync interval elapses
        victim.recover()
        sim.run()
        assert local_visible(victim, "a") == 1
        assert local_visible(victim, "b") is None
        assert victim.engine.stats["lost_records"] > 0
        # The quorum still holds the lost write; a quorum read repairs
        # nothing here, it simply doesn't need the victim.
        rows = run(sim, coord.get("t", "p"))
        assert rows["b"].visible_values()["v"] == 2

    def test_off_mode_keeps_only_flushed_segments(self, monkeypatch):
        monkeypatch.setattr(StorageEngineConfig, "memtable_flush_bytes", 1 << 30)
        sim, _net, cluster, (host,) = durable_store("off")
        coord = cluster.coordinator_for(host)
        write(sim, coord, "a", 1, 1.0)
        victim = cluster.by_id["store-0-0"]
        victim.engine.flush()
        write(sim, coord, "b", 2, 2.0)
        victim.crash()
        victim.recover()
        sim.run()
        assert local_visible(victim, "a") == 1  # segment survived
        assert local_visible(victim, "b") is None  # memtable did not

    def test_fail_node_suspends_without_the_state_loss(self):
        sim, net, cluster, (host,) = durable_store("off")
        coord = cluster.coordinator_for(host)
        write(sim, coord, "a", 1, 1.0)
        victim = cluster.by_id["store-0-0"]
        net.fail_node(victim.node_id)
        net.recover_node(victim.node_id)
        sim.run()
        # Suspend/resume, not a crash: nothing lost even with the WAL off.
        assert local_visible(victim, "a") == 1
        assert victim.engine.stats["crashes"] == 0
        assert victim.engine.stats["replays"] == 0

    def test_paxos_acceptor_state_survives_a_replica_restart(self):
        sim, _net, cluster, (host,) = durable_store("always")
        coord = cluster.coordinator_for(host)
        result = run(sim, coord.cas(
            "locks", "k", Condition("always"),
            [Update("locks", "k", "g", {"v": 1}, (1.0, host.node_id))],
        ))
        assert result.applied
        victim = cluster.by_id["store-0-0"]
        before = victim.engine.paxos[("locks", "k")].latest_commit
        assert before is not None
        victim.crash()
        victim.recover()
        sim.run()
        assert victim.engine.paxos[("locks", "k")].latest_commit == before


class TestFaultScheduleRestarts:
    def test_restart_at_crashes_then_replays(self):
        sim, net, cluster, (host,) = durable_store("always")
        coord = cluster.coordinator_for(host)
        write(sim, coord, "a", 1, 1.0)
        victim = cluster.by_id["store-0-0"]
        faults = (FaultSchedule(sim, net, nodes=cluster.by_id)
                  .restart_at(1_000.0, "store-0-0", down_ms=500.0))
        faults.arm()
        sim.run(until=1_100.0)
        assert victim.failed  # down window: crashed, not yet recovering
        sim.run()
        assert not victim.failed
        assert victim.engine.stats["replays"] == 1
        assert local_visible(victim, "a") == 1
        labels = [label for _, label in faults.log]
        assert labels == [
            "restart store-0-0 (crash)", "restart store-0-0 (recover)",
        ]

    def test_restart_at_without_a_registry_raises(self):
        sim, net, _cluster, _hosts = durable_store("always")
        faults = FaultSchedule(sim, net)
        with pytest.raises(KeyError, match="no Node registry"):
            faults.restart_at(10.0, "store-0-0")

    def test_durability_knobs_flip_engine_config_at_fire_time(self):
        sim, net, cluster, _hosts = durable_store("always")
        faults = (FaultSchedule(sim, net, nodes=cluster.by_id)
                  .set_wal_sync_at(10.0, "periodic", interval_ms=25.0)
                  .set_paxos_journal_at(20.0, False, node_id="store-1-0"))
        faults.arm()
        sim.run(until=30.0)
        for replica in cluster.replicas:
            assert replica.engine.config.wal_sync == "periodic"
            assert replica.engine.config.wal_sync_interval_ms == 25.0
        assert not cluster.by_id["store-1-0"].engine.config.journal_paxos
        assert cluster.by_id["store-0-0"].engine.config.journal_paxos

    def test_deployment_fault_schedule_knows_every_node(self):
        music = build_music(seed=3)
        faults = music.fault_schedule()
        faults.restart_at(5_000.0, "store-1-0")  # resolves; no KeyError
        assert "music-0-0" in faults.nodes and "store-2-0" in faults.nodes


class TestCounterSurfacing:
    def test_cas_bumps_paxos_proposes_and_the_obs_counter(self):
        music = build_music(seed=5, obs=True, anti_entropy=True)
        coord = music.store.coordinator_for(music.replicas[0])

        def client():
            yield from coord.put("t", "p", "x", {"v": 0}, (0.5, "w"))
            yield from coord.cas(
                "locks", "k", Condition("always"),
                [Update("locks", "k", "g", {"v": 1}, (1.0, "w"))],
            )

        run(music.sim, client())
        # A write one replica alone holds, for anti-entropy rounds to find.
        music.store.replicas[0].apply_update(Update("t", "q", None, {"v": 1}, (2.0, "w")))
        music.sim.run(until=music.sim.now + 3_000.0)
        proposes = sum(
            replica.counters["paxos_proposes"] for replica in music.store.replicas
        )
        assert proposes >= 2  # accept quorum of 3
        # The metrics are folded from the owners' own tallies: every
        # count of every owner is its metric, node for node.
        metrics = music.obs.metrics
        owners = [("music", r, r.counters) for r in music.replicas]
        for r in music.store.replicas:
            owners += [("store.replica", r, r.counters), ("storage", r.engine, r.engine.stats)]
        for kind, owner, counts in owners:
            for key, name in TALLY_NAMES[kind].items():
                count = counts[key]
                if isinstance(name, tuple):  # one counter per label value
                    name, count = name[0], sum(count.values())
                assert metrics.total(name, node=owner.node_id) == count, name
        for name in TALLY_NAMES["store.replica"].values():
            assert metrics.total(name) > 0, name
        stats = music.network.stats
        assert metrics.total("net.messages") == stats.sent > 0
        assert metrics.total("net.bytes") == stats.bytes_sent
