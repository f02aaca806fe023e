"""Crash and recovery: the volatile column is lost, the durable one replayed.

``crash()`` discards the memtable, the acceptor state, the unsynced
commit-log tail and the background daemons; ``recover()`` replays the
durable commit log in LSN order, charging ``bytes / replay_bytes_per_ms``
on the simulated clock and reporting replay time/bytes in ``stats``
(which ``repro.obs`` folds into its metrics) and a ``storage.recover``
span.  Replay is deterministic: the same durable prefix always rebuilds
bit-identical state, and paxos snapshots are last-writer-wins, so
replaying a prefix twice is a no-op.
"""

from __future__ import annotations

from typing import Any, Generator

from .wal import PaxosState

__all__ = ["Recovery"]


class Recovery:
    """The crash and recovery of :class:`~repro.storage.StorageEngine`."""

    def crash(self) -> None:
        """Lose the volatile column: memtable, acceptor state, unsynced
        WAL tail, and any in-flight background sync/compaction work."""
        self._epoch += 1
        self._sync_looping = False
        self._compacting = False
        self._pending_lsns.clear()
        lost = self.wal.drop_unsynced()
        self.memtable = {}
        self._live, self._live_bytes, self._tombstones = {}, {}, {}
        self.memtable_bytes = 0
        self.paxos = {}
        self.crashed = True
        self.stats["crashes"] += 1
        self.stats["lost_records"] += len(lost)
        self.stats["lost_bytes"] += sum(record.size_bytes for record in lost)

    def recover(self) -> Generator[Any, Any, None]:
        """Replay the durable commit log in LSN order.

        Charges ``replayed_bytes / replay_bytes_per_ms`` on the sim
        clock before any record is applied (the node stays unreachable
        throughout — Node.recover rejoins the network only after this
        generator finishes), and reports the replay in ``stats`` and a
        ``storage.recover`` span.
        """
        records = list(self.wal.records)
        replay_bytes = sum(record.size_bytes for record in records)
        rate = self.config.replay_bytes_per_ms
        replay_ms = replay_bytes / rate if rate > 0 else 0.0
        with self.obs.tracer.span("storage.recover", node=self.node_id) as span:
            if replay_ms > 0:
                yield self.sim.timeout(replay_ms)
            self.crashed = False
            for record in records:
                self._replay(record)
            span.set(
                replayed_records=len(records),
                replayed_bytes=replay_bytes,
                replay_ms=replay_ms,
            )
        self.stats["replays"] += 1
        self.stats["replayed_bytes"] += replay_bytes
        self.stats["last_replay_ms"] = replay_ms
        self.stats["last_replay_bytes"] = replay_bytes
        self.stats["last_replay_records"] = len(records)

    def _replay(self, record: Any) -> None:
        if record.kind in ("update", "delete"):
            self._apply(record.payload, record.size_bytes)
        elif record.kind == "rows":
            table, partition_key, rows = record.payload
            self._merge(table, partition_key, rows, record.size_bytes)
        elif record.kind == "drop":
            self._drop(record.payload)
        elif record.kind == "paxos":
            key, *image = record.payload
            state = self.paxos[key] = PaxosState().join(*image)
            if state.latest_commit is not None:
                # The full committed-ballot set is a dedup cache, not
                # state; re-delivered commits re-apply idempotently (LWW).
                state.committed_ballots = {state.latest_commit}
        else:  # pragma: no cover - appends validate kinds
            raise ValueError(f"unknown WAL record kind {record.kind!r}")
