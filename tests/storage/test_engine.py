"""StorageEngine behaviour: sync modes, flush/compaction, replay."""

from repro.sim import Simulator
from repro.storage import StorageEngine, StorageEngineConfig
from repro.store.types import DeleteRow, Row, Update

from tests.helpers import commit, run


def upd(ck, value, ts=1.0, table="t", pk="p"):
    return Update(table, pk, ck, {"c": value}, (ts, "w"))


def make_engine(sim=None, **config_kw):
    sim = sim or Simulator()
    return sim, StorageEngine(sim, StorageEngineConfig(**config_kw), node_id="n1")


class TestSyncModes:
    def test_always_mode_survives_a_crash(self):
        sim, engine = make_engine(wal_sync="always")
        commit(sim, engine, [upd(1, "a"), upd(2, "b")])
        before = engine.snapshot()
        engine.crash()
        assert engine.memtable == {}
        run(sim, engine.recover())
        assert engine.snapshot() == before

    def test_always_mode_charges_the_fsync_latency(self):
        sim, engine = make_engine(wal_sync="always", fsync_latency_ms=2.5)
        start = sim.now
        commit(sim, engine, [upd(1, "a")])
        assert sim.now == start + 2.5
        # The default zero-latency configuration adds no simulated time.
        sim2, engine2 = make_engine(wal_sync="always")
        commit(sim2, engine2, [upd(1, "a")])
        assert sim2.now == 0.0

    def test_periodic_mode_loses_the_unsynced_tail(self):
        sim, engine = make_engine(wal_sync="periodic", wal_sync_interval_ms=50.0)
        commit(sim, engine, [upd(1, "early")])
        sim.run(until=sim.now + 60.0)  # background sync fires
        commit(sim, engine, [upd(2, "late")])
        engine.crash()  # before the next sync: the tail is lost
        run(sim, engine.recover())
        view = engine.partition_view("t", "p")
        assert 1 in view and 2 not in view

    def test_periodic_sync_daemon_drains_and_exits(self):
        sim, engine = make_engine(wal_sync="periodic", wal_sync_interval_ms=10.0)
        commit(sim, engine, [upd(1, "a")])
        sim.run()  # would never return if the daemon looped forever
        assert engine.wal.unsynced_count == 0
        assert not engine._sync_looping

    def test_off_mode_loses_everything_but_flushed_segments(self, monkeypatch):
        sim, engine = make_engine(wal_sync="off")
        monkeypatch.setattr(StorageEngineConfig, "memtable_flush_bytes", 1 << 30)
        commit(sim, engine, [upd(1, "a")])
        engine.flush()  # durable via the segment
        commit(sim, engine, [upd(2, "b")])
        engine.crash()
        run(sim, engine.recover())
        view = engine.partition_view("t", "p")
        assert 1 in view and 2 not in view


class TestFlushAndCompaction:
    def test_flush_swaps_the_memtable_and_checkpoints_the_log(self, monkeypatch):
        sim, engine = make_engine()
        monkeypatch.setattr(StorageEngineConfig, "memtable_flush_bytes", 1)
        commit(sim, engine, [upd(1, "a")])  # crosses the threshold
        assert engine.memtable == {}
        assert len(engine.segments) == 1
        assert engine.wal.records == []  # data record truncated
        assert 1 in engine.partition_view("t", "p")

    def test_reads_merge_memtable_over_segments(self):
        sim, engine = make_engine()
        commit(sim, engine, [upd(1, "old", ts=1.0), upd(2, "keep", ts=1.0)])
        engine.flush()
        commit(sim, engine, [upd(1, "new", ts=2.0)])
        view = engine.partition_view("t", "p")
        assert view[1].visible_values() == {"c": "new"}
        assert view[2].visible_values() == {"c": "keep"}

    def test_tombstones_in_the_memtable_hide_segment_cells(self):
        sim, engine = make_engine()
        commit(sim, engine, [upd(1, "doomed", ts=1.0)])
        engine.flush()
        commit(sim, engine, [DeleteRow("t", "p", 1, (2.0, "w"))])
        view = engine.partition_view("t", "p")
        assert not view[1].live

    def test_size_tiered_compaction_merges_a_full_tier(self, monkeypatch):
        sim, engine = make_engine()
        monkeypatch.setattr(StorageEngineConfig, "compaction_min_segments", 4)
        monkeypatch.setattr(StorageEngineConfig, "compaction_bytes_per_ms", 1.0)
        for i in range(4):
            commit(sim, engine, [upd(i, f"v{i}")])
            engine.flush()
        before = engine.snapshot()
        assert len(engine.segments) == 4
        sim.run()  # compaction daemon merges then exits
        assert len(engine.segments) == 1
        assert engine.stats["compactions"] == 1
        assert engine.stats["segments_merged"] == 4
        assert engine.snapshot() == before  # compaction changes layout, not data

    def test_crash_abandons_a_mid_merge_compaction(self, monkeypatch):
        sim, engine = make_engine()
        monkeypatch.setattr(StorageEngineConfig, "compaction_min_segments", 2)
        monkeypatch.setattr(StorageEngineConfig, "compaction_bytes_per_ms", 0.001)
        for i in range(2):
            commit(sim, engine, [upd(i, f"v{i}")])
            engine.flush()
        sim.run(until=sim.now + 1.0)  # daemon is mid-merge
        engine.crash()
        run(sim, engine.recover())
        sim.run(until=sim.now + 10.0)
        # The stale merge never swapped in; the segments are intact.
        assert len(engine.segments) == 2
        assert engine.stats["compactions"] == 0


class TestPaxosJournal:
    def test_acceptor_state_survives_a_restart(self):
        sim, engine = make_engine()
        state = engine.paxos_state("t", "p")
        state.promised = (7, "coord")
        state.accepted = ((7, "coord"), [upd(1, "x")])
        commit(sim, engine, [], paxos=(("t", "p"), state))
        engine.crash()
        assert engine.paxos == {}
        run(sim, engine.recover())
        recovered = engine.paxos[("t", "p")]
        assert recovered.promised == (7, "coord")
        assert recovered.accepted == ((7, "coord"), [upd(1, "x")])

    def test_journal_paxos_disabled_forgets_promises(self):
        sim, engine = make_engine(journal_paxos=False)
        state = engine.paxos_state("t", "p")
        state.promised = (7, "coord")
        commit(sim, engine, [], paxos=(("t", "p"), state))
        engine.crash()
        run(sim, engine.recover())
        assert engine.paxos == {}

    def test_latest_commit_reseeds_the_dedup_cache(self):
        sim, engine = make_engine()
        state = engine.paxos_state("t", "p")
        state.latest_commit = (3, "coord")
        commit(sim, engine, [], paxos=(("t", "p"), state))
        engine.crash()
        run(sim, engine.recover())
        assert engine.paxos[("t", "p")].committed_ballots == {(3, "coord")}


class TestRecovery:
    def test_replay_charges_time_proportional_to_bytes(self, monkeypatch):
        sim, engine = make_engine()
        monkeypatch.setattr(StorageEngineConfig, "replay_bytes_per_ms", 100.0)
        commit(sim, engine, [upd(1, "x" * 68)])  # size_bytes = 100
        engine.crash()
        start = sim.now
        run(sim, engine.recover())
        assert sim.now - start == engine.stats["last_replay_ms"]
        assert engine.stats["last_replay_ms"] == engine.stats["last_replay_bytes"] / 100.0
        assert engine.stats["last_replay_records"] == 1
        assert engine.stats["replays"] == 1

    def test_crashed_engine_refuses_writes(self):
        sim, engine = make_engine()
        engine.crash()
        commit(sim, engine, [upd(1, "ghost")])
        run(sim, engine.recover())
        assert engine.partition_view("t", "p") == {}

    def test_merge_rows_round_trips_through_the_journal(self):
        sim, engine = make_engine()
        row = Row()
        row.apply_cell("c", "ae-value", (5.0, "peer"))
        run(sim, engine.merge_rows("t", "p", {9: row}))
        engine.crash()
        run(sim, engine.recover())
        assert engine.partition_view("t", "p")[9].visible_values() == {"c": "ae-value"}

    def test_same_operations_two_engines_identical_state(self, monkeypatch):
        monkeypatch.setattr(StorageEngineConfig, "memtable_flush_bytes", 120)

        def drive(seed_sim):
            sim, engine = make_engine(sim=seed_sim)
            for i in range(10):
                commit(sim, engine, [upd(i, f"v{i}", ts=float(i))])
            state = engine.paxos_state("t", "p")
            state.latest_commit = (5, "c")
            commit(sim, engine, [], paxos=(("t", "p"), state))
            engine.crash()
            run(sim, engine.recover())
            return engine, sim.now

        engine_a, now_a = drive(Simulator())
        engine_b, now_b = drive(Simulator())
        assert engine_a.snapshot() == engine_b.snapshot()
        assert now_a == now_b
        assert engine_a.stats == engine_b.stats
