"""The commit log: an append-only journal with an explicit durable prefix.

Every state mutation a replica acknowledges is first appended here as a
:class:`WalRecord`.  A record becomes *durable* only when an fsync
(:meth:`CommitLog.sync`) moves the synced watermark past it; a crash
(:meth:`CommitLog.drop_unsynced`) discards the volatile tail, which is
exactly the data-loss window the ``wal_sync`` modes trade against write
latency.  A memtable flush checkpoints the log
(:meth:`CommitLog.truncate_through`): data records covered by the
flushed segment are dropped, while Paxos acceptor records — which live
only in the log, like Cassandra's ``system.paxos`` table — are compacted
to the newest snapshot per partition instead of being dropped.

Record kinds:

- ``update`` / ``delete`` — one :class:`~repro.store.types.Update` or
  :class:`~repro.store.types.DeleteRow` (a replicated write or the data
  half of a committed LWT);
- ``rows``   — an anti-entropy merge batch ``(table, partition, rows)``;
- ``paxos``  — a full :class:`PaxosState` snapshot
  ``(key, promised, accepted, latest_commit, latest_mutation)``; snapshots are
  last-writer-wins on replay, which makes the log trivially idempotent
  and order-preserving for acceptor state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

__all__ = ["WalRecord", "CommitLog", "PaxosState", "dump_wal_jsonl"]

# Ballot / Mutation are structural (tuples / lists of Update objects);
# importing them from repro.store here would be circular, since
# repro.store.replica builds on this package.
Ballot = Tuple[int, str]


@dataclass(slots=True)
class WalRecord:
    """One journaled mutation; ``lsn`` is the append order (1-based)."""

    lsn: int
    kind: str  # "update" | "delete" | "rows" | "paxos"
    payload: Any
    size_bytes: int


class CommitLog:
    """An append-only log with a synced watermark and checkpointing."""

    def __init__(self) -> None:
        self.records: List[WalRecord] = []
        self._unsynced: List[WalRecord] = []
        self._unsynced_bytes = 0
        self._next_lsn = 1
        self.synced_lsn = 0
        self.checkpoint_lsn = 0
        self.appended_records = 0
        self.appended_bytes = 0
        self.synced_bytes = 0
        self.syncs = 0

    # -- append / sync -------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        return self._next_lsn - 1

    def append(self, kind: str, payload: Any, size_bytes: int) -> WalRecord:
        record = WalRecord(self._next_lsn, kind, payload, size_bytes)
        self._next_lsn += 1
        self.records.append(record)
        self._unsynced.append(record)
        self._unsynced_bytes += size_bytes
        self.appended_records += 1
        self.appended_bytes += size_bytes
        return record

    @property
    def unsynced_count(self) -> int:
        return len(self._unsynced)

    @property
    def unsynced_bytes(self) -> int:
        return self._unsynced_bytes

    def sync(self) -> int:
        """fsync: everything appended so far becomes durable.

        Returns the number of bytes newly made durable.
        """
        newly_synced = self._unsynced_bytes
        self.synced_lsn = self._next_lsn - 1
        self.synced_bytes += newly_synced
        self.syncs += 1
        self._unsynced = []
        self._unsynced_bytes = 0
        return newly_synced

    # -- crash / checkpoint --------------------------------------------------

    def drop_unsynced(self) -> List[WalRecord]:
        """Crash: the volatile tail beyond the synced watermark is lost."""
        lost = self._unsynced
        if lost:
            lost_ids = {id(record) for record in lost}
            self.records = [r for r in self.records if id(r) not in lost_ids]
            self._unsynced = []
            self._unsynced_bytes = 0
        return lost

    def truncate_through(self, lsn: int) -> int:
        """Checkpoint after a memtable flush.

        Data records with ``record.lsn <= lsn`` are covered by the
        flushed (durable) segment and dropped.  Paxos snapshots are not
        in any segment, so for each partition the newest snapshot at or
        below the checkpoint survives, compacted in place.  Returns the
        number of records dropped.
        """
        newest_paxos: dict = {}
        for record in self.records:
            if record.lsn <= lsn and record.kind == "paxos":
                newest_paxos[record.payload[0]] = record  # lsn order: last wins
        keep_ids = {id(record) for record in newest_paxos.values()}
        kept: List[WalRecord] = []
        dropped = 0
        for record in self.records:
            if record.lsn > lsn or id(record) in keep_ids:
                kept.append(record)
            else:
                dropped += 1
        self.records = kept
        # Records folded into the segment are durable via the segment
        # now, whether or not their log bytes had been synced.
        kept_set = {id(record) for record in kept}
        self._unsynced = [r for r in self._unsynced if id(r) in kept_set]
        self._unsynced_bytes = sum(record.size_bytes for record in self._unsynced)
        self.checkpoint_lsn = max(self.checkpoint_lsn, lsn)
        return dropped


@dataclass
class PaxosState:
    """Single-decree Paxos acceptor state for one (table, partition).

    This is the state Cassandra persists in its ``system.paxos`` table;
    journaling it through the commit log (``journal_paxos=True``) is
    what makes LWT promises and accepted proposals survive a restart.
    """

    promised: Optional[Ballot] = None
    accepted: Optional[Tuple[Ballot, list]] = None
    committed_ballots: set = field(default_factory=set)
    # The newest ballot this replica has committed, and its mutation;
    # reported in prepare replies so coordinators can discard obsolete
    # in-progress proposals and repair a promiser that missed the commit
    # (Cassandra's most-recent-commit).
    latest_commit: Optional[Ballot] = None
    latest_mutation: Optional[list] = None

    def join(
        self, promised: Any, accepted: Any, latest_commit: Any, latest_mutation: Any = None,
    ) -> "PaxosState":
        """Fold another acceptor's image of this partition in: keep the
        newest of each field, ours on a tie.  Returns ``self``."""
        if promised is not None and (self.promised is None or promised > self.promised):
            self.promised = promised
        if accepted is not None and (self.accepted is None or accepted[0] > self.accepted[0]):
            self.accepted = accepted
        latest = self.latest_commit
        if latest_commit is not None and (latest is None or latest_commit > latest):
            self.latest_commit, self.latest_mutation = latest_commit, latest_mutation
        return self


def dump_wal_jsonl(engine: Any, path_or_file: Any) -> int:
    """Dump an engine's commit log as JSONL (one record per line).

    CI uploads these alongside the audit JSONL when a crash/recovery run
    fails, so the exact durable prefix a replica would replay can be
    inspected offline.  Returns the number of records written.
    """
    log = engine.wal

    def _write(handle: Any) -> int:
        count = 0
        header = {
            "node": getattr(engine, "node_id", "?"),
            "synced_lsn": log.synced_lsn,
            "checkpoint_lsn": log.checkpoint_lsn,
            "syncs": log.syncs,
            "segments": len(getattr(engine, "segments", ())),
        }
        handle.write(json.dumps({"wal_header": header}) + "\n")
        for record in log.records:
            handle.write(json.dumps({
                "lsn": record.lsn,
                "kind": record.kind,
                "size_bytes": record.size_bytes,
                "durable": record.lsn <= log.synced_lsn,
                "payload": repr(record.payload),
            }) + "\n")
            count += 1
        return count

    if hasattr(path_or_file, "write"):
        return _write(path_or_file)
    with open(path_or_file, "w", encoding="utf-8") as handle:
        return _write(handle)
