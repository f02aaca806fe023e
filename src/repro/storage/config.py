"""Durability knobs of the per-replica storage engine.

The defaults are calibrated to be *invisible*: ``wal_sync="always"``
with a zero fsync latency gives every acknowledged write Cassandra's
``commitlog_sync: batch`` durability without adding a single simulated
millisecond, so existing experiments keep their exact timings (the
0.15 ms ``write_service_ms`` of :class:`~repro.store.config.StoreConfig`
already accounts for the commit-log append CPU).  Experiments that want
to *measure* durability trade-offs turn the knobs:

- ``wal_sync="always"`` + ``fsync_latency_ms`` — group commit: one
  charged fsync per journaled batch before the write is acknowledged
  (Cassandra batch mode);
- ``wal_sync="periodic"`` — a background sync every
  ``wal_sync_interval_ms``; a crash loses the unsynced tail (Cassandra's
  default periodic mode);
- ``wal_sync="off"`` — nothing is ever synced; only flushed segments
  survive a crash (memory-table-only operation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

__all__ = ["StorageEngineConfig", "WAL_SYNC_MODES"]

WAL_SYNC_MODES = ("always", "periodic", "off")


@dataclass
class StorageEngineConfig:
    """Tunables for one replica's commit log / memtable / segment stack
    (its ``ClassVar`` sizes and rates are set by no deployment, so they
    are not fields)."""

    # Commit-log sync mode: "always" | "periodic" | "off".
    wal_sync: str = "always"
    # Period of the background fsync when ``wal_sync="periodic"``.
    wal_sync_interval_ms: float = 50.0
    # Simulated latency of one fsync, charged on the sim clock before a
    # journaled batch is acknowledged (only in "always" mode; periodic
    # syncs happen in the background and charge nothing to the writer).
    fsync_latency_ms: float = 0.0

    # Journal Paxos acceptor state (promised / accepted / latest commit)
    # alongside data mutations.  Cassandra persists LWT Paxos state in a
    # system table for exactly this reason; turning this off makes
    # restarts forget promises and accepted proposals — a deliberate
    # safety mutation the ECF auditor must catch.
    journal_paxos: bool = True

    # Memtable flush threshold: when the (modelled) memtable size crosses
    # this, it is swapped into an immutable segment and the commit log is
    # checkpointed.  Large by default so short runs never flush.
    memtable_flush_bytes: ClassVar[int] = 4 * 1024 * 1024

    # Size-tiered compaction (Cassandra STCS): merge a size tier once it
    # holds this many segments; tiers are log_{tier_factor}(size) buckets.
    compaction_min_segments: ClassVar[int] = 4
    compaction_tier_factor: ClassVar[float] = 4.0
    # Background merge throughput; the merge occupies this much simulated
    # time but no node CPU (Cassandra throttles compaction off the
    # request path).
    compaction_bytes_per_ms: ClassVar[float] = 64.0 * 1024.0

    # Recovery replay throughput: bytes of durable commit log replayed
    # per simulated millisecond (~128 MB/s of sequential log reads).
    replay_bytes_per_ms: ClassVar[float] = 128.0 * 1024.0

    def validate(self) -> None:
        if self.wal_sync not in WAL_SYNC_MODES:
            raise ValueError(
                f"wal_sync must be one of {WAL_SYNC_MODES}, got {self.wal_sync!r}"
            )
