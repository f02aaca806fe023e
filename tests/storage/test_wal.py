"""Unit tests of the commit log: watermarks, crash loss, checkpointing."""

import io
import json

import pytest

from repro.sim import Simulator
from repro.storage import CommitLog, StorageEngine, StorageEngineConfig, dump_wal_jsonl
from repro.store.types import Update

from tests.helpers import commit


def upd(n, value="v"):
    return Update("t", "p", n, {"c": value}, (float(n), "w"))


class TestAppendAndSync:
    def test_lsns_are_dense_and_monotonic(self):
        log = CommitLog()
        records = [log.append("update", upd(i), 10) for i in range(5)]
        assert [r.lsn for r in records] == [1, 2, 3, 4, 5]
        assert log.last_lsn == 5
        assert log.appended_records == 5
        assert log.appended_bytes == 50

    def test_sync_moves_the_watermark_and_returns_new_bytes(self):
        log = CommitLog()
        log.append("update", upd(1), 10)
        log.append("update", upd(2), 30)
        assert log.unsynced_count == 2
        assert log.unsynced_bytes == 40
        assert log.sync() == 40
        assert log.synced_lsn == 2
        assert log.unsynced_count == 0
        # A second sync with nothing new is a zero-byte no-op.
        assert log.sync() == 0
        assert log.syncs == 2

    def test_drop_unsynced_loses_exactly_the_tail(self):
        log = CommitLog()
        log.append("update", upd(1), 10)
        log.sync()
        survivor_lsn = log.last_lsn
        log.append("update", upd(2), 10)
        log.append("update", upd(3), 10)
        lost = log.drop_unsynced()
        assert [r.lsn for r in lost] == [2, 3]
        assert [r.lsn for r in log.records] == [survivor_lsn]
        # The lost LSNs are never reused.
        assert log.append("update", upd(4), 10).lsn == 4


class TestCheckpointing:
    def test_truncate_drops_covered_data_records(self):
        log = CommitLog()
        for i in range(4):
            log.append("update", upd(i), 10)
        log.sync()
        dropped = log.truncate_through(3)
        assert dropped == 3
        assert [r.lsn for r in log.records] == [4]
        assert log.checkpoint_lsn == 3

    def test_truncate_compacts_paxos_snapshots_to_newest_per_key(self):
        log = CommitLog()
        log.append("paxos", (("t", "a"), (1, "x"), None, None), 48)
        log.append("paxos", (("t", "a"), (2, "x"), None, None), 48)
        log.append("paxos", (("t", "b"), (1, "y"), None, None), 48)
        log.append("update", upd(1), 10)
        log.sync()
        log.truncate_through(log.last_lsn)
        # The data record is gone; each key keeps its newest snapshot.
        kept = [(r.kind, r.payload[0], r.lsn) for r in log.records]
        assert kept == [("paxos", ("t", "a"), 2), ("paxos", ("t", "b"), 3)]

    def test_truncate_makes_covered_unsynced_records_durable(self):
        # A flush folds even unsynced data into a durable segment, so
        # those records must leave the crash-loss set.
        log = CommitLog()
        log.append("update", upd(1), 10)
        assert log.unsynced_count == 1
        log.truncate_through(log.last_lsn)
        assert log.unsynced_count == 0
        assert log.drop_unsynced() == []


class TestJsonlDump:
    def test_dump_renders_header_and_durability_flags(self):
        sim = Simulator()
        engine = StorageEngine(sim, StorageEngineConfig(wal_sync="off"), node_id="n1")
        commit(sim, engine, [upd(1)])
        engine.config.wal_sync = "always"
        commit(sim, engine, [upd(2)])
        buffer = io.StringIO()
        count = dump_wal_jsonl(engine, buffer)
        lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert count == 2
        assert lines[0]["wal_header"]["node"] == "n1"
        assert [entry["durable"] for entry in lines[1:]] == [True, True]

    def test_validate_rejects_unknown_sync_mode(self):
        with pytest.raises(ValueError):
            StorageEngineConfig(wal_sync="sometimes").validate()
