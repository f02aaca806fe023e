"""The per-replica durable storage engine (Cassandra's write path).

The engine owns everything a :class:`~repro.store.replica.StorageReplica`
used to keep in bare dicts, split along the volatile/durable line the
paper's Section III crash model requires:

========================  =======================================
volatile (lost on crash)  memtable, Paxos acceptor dict, the
                          unsynced commit-log tail, background
                          sync/compaction daemons
durable (survives)        the synced commit-log prefix, flushed
                          segments
========================  =======================================

Write path (one journaled batch = one group commit)::

    commit log append  →  fsync per wal_sync mode  →  memtable apply
                                                   →  flush at threshold
                                                   →  size-tiered compaction

``crash()`` discards the volatile column; ``recover()`` replays the
durable commit log in LSN order, charging ``bytes / replay_bytes_per_ms``
on the simulated clock and reporting replay time/bytes in ``stats``
(which ``repro.obs`` folds into its metrics) and a ``storage.recover``
span.  Replay is
deterministic: the same durable prefix always rebuilds bit-identical
state, and paxos snapshots are last-writer-wins so replaying a prefix
twice is a no-op.

The engine deliberately spawns **no perpetual processes**: the periodic
WAL sync and the compactor are demand-driven daemons that exit once
their queue drains, so simulations that run the event heap dry still
terminate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Callable, Dict, Generator, List, Mapping, Optional, Tuple

from ..obs import NULL_OBS
from .config import StorageEngineConfig
from .segment import Segment, size_tier
from .wal import CommitLog

__all__ = ["StorageEngine", "PaxosState", "merge_into"]

# Ballot / Mutation are structural (tuples / lists of Update objects);
# importing them from repro.store here would be circular, since
# repro.store.replica builds on this module.
Ballot = Tuple[int, str]

# The live rows of a partition that has none (one shared, read-only view).
_NO_ROWS: Mapping[Any, Any] = MappingProxyType({})

# repro.store.types.Row, bound by the first engine (repro.store imports this module).
_Row: Any = None


def _rows_size_bytes(rows: Dict[Any, Any]) -> int:
    from ..store.types import payload_size  # see _Row
    total = 32
    for row in rows.values():
        total += 16
        for cell in row.cells.values():
            total += payload_size(cell.value) + 16
    return total


def _row_count(tables: Dict[str, Dict[str, Dict[Any, Any]]]) -> int:
    return sum(
        len(rows) for partitions in tables.values() for rows in partitions.values()
    )


def merge_into(target: Dict[Any, Any], rows: Mapping[Any, Any]) -> None:
    """Fold ``rows`` into ``target`` (clustering -> Row) by last-write-wins,
    the one rule that combines copies of a partition.  No row changes: a
    row only one side has is taken as it is, one both have is
    :meth:`Row.merged` (``target``'s own when ``rows`` adds nothing)."""
    for clustering, row in rows.items():
        known = target.get(clustering)
        target[clustering] = row if known is None else known.merged(row).freeze()


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
    # The newest ballot this replica has committed; reported in prepare
    # replies so coordinators can discard obsolete in-progress proposals
    # (mirrors Cassandra's most-recent-commit tracking).
    latest_commit: Optional[Ballot] = None

    def join(self, promised: Any, accepted: Any, latest_commit: Any) -> "PaxosState":
        """Fold another acceptor's image of this partition in: keep the
        newest of each field, ours on a tie.  Returns ``self``."""
        if promised is not None and (self.promised is None or promised > self.promised):
            self.promised = promised
        if accepted is not None and (self.accepted is None or accepted[0] > self.accepted[0]):
            self.accepted = accepted
        latest = self.latest_commit
        if latest_commit is not None and (latest is None or latest_commit > latest):
            self.latest_commit = latest_commit
        return self


class StorageEngine:
    """Commit log + memtable + immutable segments for one replica."""

    def __init__(
        self,
        sim: Any,
        config: Optional[StorageEngineConfig] = None,
        node_id: str = "storage",
        obs: Any = NULL_OBS,
    ) -> None:
        self.sim = sim
        # Private copy: per-node durability knobs (FaultSchedule's
        # set_wal_sync_at, mutation tests) must not leak across replicas
        # sharing one StoreConfig.
        self.config = replace(config) if config is not None else StorageEngineConfig()
        self.config.validate()
        self.node_id = node_id
        self.obs = obs
        global _Row
        if _Row is None:
            from ..store.types import Row as _Row
        self.wal = CommitLog()
        # memtable[table][partition_key][clustering] -> Row.  Stored rows
        # are frozen: a write puts a modified copy in the old row's place
        # (see _store), so readers can be handed the rows themselves.
        self.memtable: Dict[str, Dict[str, Dict[Any, Any]]] = {}
        self.memtable_bytes = 0
        # The live-row index: for each memtable partition, the rows for
        # which ``row.live`` holds, in partition order.  Kept in step
        # with the memtable by _store/_drop/flush/crash and read only
        # through live_rows(); a lock partition is mostly tombstones of
        # released lockRefs, and queue reads must not pay for them.
        # Each entry is published read-only and never changed after:
        # _store builds the next version in a copy, so a view handed out
        # stays the image of the moment it was read, and one object
        # stands for one version of the partition.
        self._live: Dict[Tuple[str, str], Mapping[Any, Any]] = {}
        # Beside it, each partition's live_bytes(), dropped wherever the
        # index changes.
        self._live_bytes: Dict[Tuple[str, str], int] = {}
        self.segments: List[Segment] = []
        self.paxos: Dict[Tuple[str, str], PaxosState] = {}
        self.crashed = False
        self._next_segment_id = 1
        # Bumped on every crash; stale daemons and mid-merge compactions
        # observe the mismatch and abandon their work.
        self._epoch = 0
        self._sync_looping = False
        self._compacting = False
        # LSNs journaled but not yet applied (a batch waiting out its
        # fsync); a flush may not checkpoint past the oldest of these.
        self._pending_lsns: set = set()
        self.stats: Dict[str, Any] = {
            "fsyncs": 0,
            "synced_bytes": 0,
            "flushes": 0,
            "compactions": 0,
            "segments_merged": 0,
            "crashes": 0,
            "lost_records": 0,
            "lost_bytes": 0,
            "replays": 0,
            "replayed_bytes": 0,
            "last_replay_ms": 0.0,
            "last_replay_bytes": 0,
            "last_replay_records": 0,
        }
        obs.tally("storage", self, node=node_id)

    # -- write path ----------------------------------------------------------

    def commit(
        self,
        updates: List[Any],
        paxos: Optional[Tuple[Tuple[str, str], PaxosState]] = None,
        then: Optional[Callable[[Any], None]] = None,
        arg: Any = None,
    ) -> Tuple[Any, ...]:
        """Journal and apply one batch (group commit: one fsync), then
        run ``then(arg)``; returns what a process caller yields from.

        ``updates`` is a list of Update/DeleteRow; ``paxos`` optionally
        piggybacks an acceptor-state snapshot on the same fsync.  The
        memtable apply happens only after the batch is durable per the
        sync mode, so an acknowledged write is never lost under
        ``wal_sync="always"``.  Under the default sync point (``"always"``,
        no fsync latency) the batch is synced and applied in this call;
        any other goes through :meth:`_durably`.  A crashed engine
        journals nothing and continues at once."""
        if self.crashed:
            updates, paxos = (), None
        wal, config = self.wal, self.config
        # Each update is sized once: its record carries the size to the apply.
        records = []
        for update in updates:
            records.append(wal.append(update.wal_kind, update, update.size_bytes()))
        lsn = records[0].lsn if records else None
        if paxos is not None and config.journal_paxos:
            key, state = paxos
            size = 48
            if state.accepted is not None:
                for update in state.accepted[1]:
                    size += update.size_bytes()
            image = (key, state.promised, state.accepted, state.latest_commit)
            record = wal.append("paxos", image, size)
            lsn = lsn or record.lsn  # LSNs start at 1
        if lsn is not None:
            if config.wal_sync != "always" or config.fsync_latency_ms > 0.0:
                return self._durably(lsn, self._applied, (records, then, arg))
            self.stats["synced_bytes"] += wal.sync()  # _fsync, inline
            self.stats["fsyncs"] += 1
        self._applied((records, then, arg))
        return ()

    def _applied(self, batch: Tuple[List[Any], Any, Any]) -> None:
        """Apply a journaled batch's update records, then run ``then(arg)``."""
        records, then, arg = batch
        for record in records:
            self._apply(record.payload, record.size_bytes)
        if records and self.memtable_bytes >= self.config.memtable_flush_bytes:
            self.flush()
        if then is not None:
            then(arg)

    def merge_rows(
        self, table: str, partition_key: str, rows: Dict[Any, Any]
    ) -> Generator[Any, Any, None]:
        """Journal and apply an anti-entropy merge batch."""
        if self.crashed or not rows:
            return
        size = _rows_size_bytes(rows)
        record = self.wal.append("rows", (table, partition_key, rows), size)
        yield from self._durably(record.lsn, self._merged, (table, partition_key, rows, size))

    def _merged(self, merge: Tuple[str, str, Dict[Any, Any], int]) -> None:
        self._merge(*merge)
        if self.memtable_bytes >= self.config.memtable_flush_bytes:
            self.flush()

    def drop_partition(
        self, partition_key: str, tables: Optional[List[str]] = None
    ) -> Generator[Any, Any, None]:
        """Journal and apply the removal of a partition's local copy.

        Used by topology cleanup after a range moves to another node
        (Cassandra's ``nodetool cleanup``): the rows, including
        tombstones, and the partition's Paxos acceptor state are removed
        from the memtable, every segment, and the acceptor dict.  The
        drop is a WAL record, so a crash replay reconstructs the same
        post-cleanup state (records before the drop are re-dropped).
        """
        if self.crashed:
            return
        drop = (partition_key, tables)
        yield from self._durably(self.wal.append("drop", drop, 24).lsn, self._drop, drop)

    def _drop(self, drop: Tuple[str, Optional[List[str]]]) -> None:
        partition_key, tables = drop
        for table, partitions in self.memtable.items():
            if tables is None or table in tables:
                partitions.pop(partition_key, None)
                self._live.pop((table, partition_key), None)
        self._live_bytes.clear()
        for segment in self.segments:
            for table, partitions in segment.tables.items():
                if tables is None or table in tables:
                    partitions.pop(partition_key, None)
        for key in list(self.paxos):
            table, pk = key
            if pk == partition_key and (tables is None or table in tables):
                del self.paxos[key]

    def paxos_state(self, table: str, partition_key: str) -> PaxosState:
        key = (table, partition_key)
        return self.paxos.get(key) or self.paxos.setdefault(key, PaxosState())

    def _apply(self, update: Any, size: int) -> None:
        """Apply one Update or DeleteRow of ``size`` bytes to the memtable."""
        table, partition_key = update.table, update.partition
        # No throwaway dict: `or` builds one only when none (or an emptied one) is stored.
        partitions = self.memtable.get(table) or self.memtable.setdefault(table, {})
        partition = partitions.get(partition_key) or partitions.setdefault(partition_key, {})
        old = partition.get(update.clustering)
        row = _Row() if old is None else old.copy()
        if update.wal_kind == "update":
            for column, value in update.columns.items():
                row.apply_cell(column, value, update.stamp, update.op_id)
        else:
            row.delete(update.stamp)
        self._store(table, partition_key, partition, update.clustering, old, row)
        self.memtable_bytes += size

    def _merge(
        self, table: str, partition_key: str, rows: Dict[Any, Any], size: int
    ) -> None:
        partition = self.memtable.setdefault(table, {}).setdefault(partition_key, {})
        for clustering, theirs in rows.items():
            old = partition.get(clustering)
            row = theirs.copy() if old is None else old.merged(theirs)
            if row is not old:
                self._store(table, partition_key, partition, clustering, old, row)
        self.memtable_bytes += size

    def _store(
        self,
        table: str,
        partition_key: str,
        partition: Dict[Any, Any],
        clustering: Any,
        old: Any,
        row: Any,
    ) -> None:
        """Put ``row`` where ``old`` was (None: append) and publish the
        partition's next live-row index version."""
        row._frozen = True  # Row.freeze, inline
        partition[clustering] = row
        key = (table, partition_key)
        # Dropped even when the index stays: a segment's live row may
        # have died under this one.
        self._live_bytes.pop(key, None)
        current = self._live.get(key, _NO_ROWS)
        if not row.live:
            if clustering not in current:
                return  # a dead row stayed dead: same version
            live = current.copy()  # the dict's own copy: dict(view) is 5x slower
            del live[clustering]
        elif old is None or clustering in current:
            live = current.copy()
            live[clustering] = row  # appended, or replaced where it stood
        else:
            # A deleted row was written again: it re-enters at its
            # partition position, not at the end.
            live = {c: r for c, r in partition.items() if r.live}
        self._live[key] = MappingProxyType(live)

    # -- fsync ---------------------------------------------------------------

    def _durably(
        self, lsn: Optional[int], apply: Callable[[Any], None], arg: Any
    ) -> Tuple[Any, ...]:
        """Run ``apply(arg)`` once the records from ``lsn`` on are durable
        per ``wal_sync``: now, returning ``()``, unless ``"always"`` has an
        fsync latency to wait out — then when it ends (not at all if the
        engine crashed meanwhile), returning ``(event,)``: what a process
        caller yields from."""
        if lsn is not None:
            mode = self.config.wal_sync
            if mode == "always":
                latency = self.config.fsync_latency_ms
                if latency > 0.0:
                    synced = self.sim.event()
                    self._pending_lsns.add(lsn)
                    self.sim.schedule(latency, self._fsynced, (lsn, apply, arg, synced))
                    return (synced,)
                self._fsync()
            elif mode == "periodic":
                self._ensure_sync_loop()
            elif mode != "off":
                raise ValueError(f"unknown wal_sync mode {mode!r}")
        apply(arg)
        return ()

    def _fsynced(self, pending: Tuple[int, Callable[[Any], None], Any, Any]) -> None:
        lsn, apply, arg, synced = pending
        self._pending_lsns.discard(lsn)
        if not self.crashed:  # else lost with the unsynced tail
            self._fsync()
            apply(arg)
        synced.succeed()

    def _fsync(self) -> None:
        self.stats["synced_bytes"] += self.wal.sync()
        self.stats["fsyncs"] += 1

    def _ensure_sync_loop(self) -> None:
        if self._sync_looping or self.crashed:
            return
        self._sync_looping = True
        self.sim.process(
            self._sync_loop(self._epoch), name=f"walsync:{self.node_id}"
        )

    def _sync_loop(self, epoch: int) -> Generator[Any, Any, None]:
        # Demand-driven daemon: syncs every interval while there is an
        # unsynced tail, then exits (so idle sims drain their heaps).
        while not self.crashed and self._epoch == epoch:
            yield self.sim.timeout(self.config.wal_sync_interval_ms)
            if self.crashed or self._epoch != epoch:
                return
            if self.wal.unsynced_count:
                self._fsync()
            if not self.wal.unsynced_count:
                break
        if self._epoch == epoch:
            self._sync_looping = False

    # -- flush & compaction --------------------------------------------------

    def flush(self) -> Optional[Segment]:
        """Swap the memtable into an immutable segment; checkpoint the log.

        The swap is atomic with respect to the event loop (a real flush
        streams asynchronously; readers keep seeing the union either
        way).  The commit log is truncated through the highest LSN the
        segment covers, except batches still waiting out their fsync.
        """
        if not self.memtable:
            return None
        barrier = self.wal.last_lsn
        if self._pending_lsns:
            barrier = min(barrier, min(self._pending_lsns) - 1)
        segment = Segment(
            segment_id=self._next_segment_id,
            tables=self.memtable,
            size_bytes=max(self.memtable_bytes, 1),
            row_count=_row_count(self.memtable),
            created_at=self.sim.now,
            max_lsn=barrier,
        )
        self._next_segment_id += 1
        self.segments.append(segment)
        self.memtable = {}
        self._live = {}
        self._live_bytes = {}
        self.memtable_bytes = 0
        self.wal.truncate_through(segment.max_lsn)
        self.stats["flushes"] += 1
        self._ensure_compaction()
        return segment

    def _pick_tier(self) -> Optional[List[Segment]]:
        if len(self.segments) < self.config.compaction_min_segments:
            return None
        tiers: Dict[int, List[Segment]] = {}
        for segment in self.segments:
            tier = size_tier(segment.size_bytes, self.config.compaction_tier_factor)
            tiers.setdefault(tier, []).append(segment)
        for tier in sorted(tiers):
            group = tiers[tier]
            if len(group) >= self.config.compaction_min_segments:
                return sorted(group, key=lambda s: s.segment_id)
        return None

    def _ensure_compaction(self) -> None:
        if self._compacting or self.crashed or self._pick_tier() is None:
            return
        self._compacting = True
        self.sim.process(
            self._compaction_loop(self._epoch), name=f"compact:{self.node_id}"
        )

    def _compaction_loop(self, epoch: int) -> Generator[Any, Any, None]:
        while not self.crashed and self._epoch == epoch:
            group = self._pick_tier()
            if group is None:
                break
            rate = self.config.compaction_bytes_per_ms
            duration = sum(s.size_bytes for s in group) / rate if rate > 0 else 0.0
            if duration > 0:
                yield self.sim.timeout(duration)
            if self.crashed or self._epoch != epoch:
                return  # the half-written output of a crashed merge is garbage
            self._merge_segments(group)
        if self._epoch == epoch:
            self._compacting = False

    def _merge_segments(self, group: List[Segment]) -> None:
        merged_tables: Dict[str, Dict[str, Dict[Any, Any]]] = {}
        for segment in group:
            for table, partitions in segment.tables.items():
                for partition_key, rows in partitions.items():
                    merge_into(
                        merged_tables.setdefault(table, {}).setdefault(
                            partition_key, {}
                        ),
                        rows,
                    )
        merged = Segment(
            segment_id=self._next_segment_id,
            tables=merged_tables,
            size_bytes=sum(s.size_bytes for s in group),
            row_count=_row_count(merged_tables),
            created_at=self.sim.now,
            max_lsn=max(s.max_lsn for s in group),
        )
        self._next_segment_id += 1
        group_ids = {id(segment) for segment in group}
        self.segments = [s for s in self.segments if id(s) not in group_ids]
        self.segments.append(merged)
        self.stats["compactions"] += 1
        self.stats["segments_merged"] += len(group)

    # -- read path -----------------------------------------------------------

    def partition_view(self, table: str, partition_key: str) -> Dict[Any, Any]:
        """Merged rows of one partition (tombstones included).

        Read-only, and so are its rows: with no segments this is the
        memtable partition itself; with segments it is a fresh dict
        whose rows are stored ones wherever one source had the row.
        """
        mem = self.memtable.get(table, {}).get(partition_key)
        if not self.segments:
            return mem if mem is not None else {}
        merged: Dict[Any, Any] = {}
        for segment in self.segments:
            rows = segment.tables.get(table, {}).get(partition_key)
            if rows:
                merge_into(merged, rows)
        if mem:
            merge_into(merged, mem)
        return merged

    def live_rows(self, table: str, partition_key: str) -> Mapping[Any, Any]:
        """The rows of one partition for which ``row.live`` holds, in
        ``partition_view`` order, without visiting the dead ones.

        A read-only view, like the rows in it, that no later write
        changes: anyone may hold it.  Served from the index — the same
        object until the partition's live rows change — unless a segment
        holds part of the partition, whose merged view then has to be
        built and filtered.
        """
        for segment in self.segments:
            if partition_key in segment.tables.get(table, ()):
                view = self.partition_view(table, partition_key)
                return MappingProxyType({c: row for c, row in view.items() if row.live})
        return self._live.get((table, partition_key), _NO_ROWS)

    def live_bytes(self, table: str, partition_key: str) -> int:
        """``sum(row.payload_bytes() for row in live_rows(...).values())``,
        memoised until the partition's live rows change."""
        key = (table, partition_key)
        total = self._live_bytes.get(key)
        if total is None:
            total = 0
            for row in self.live_rows(table, partition_key).values():
                total += row.payload_bytes()
            self._live_bytes[key] = total
        return total

    def partition_keys(self) -> List[Tuple[str, str]]:
        """All (table, partition) pairs, memtable insertion order first
        (so the anti-entropy cursor walks the same sequence it did when
        the memtable was the only storage), then segment-only ones."""
        seen = set()
        out: List[Tuple[str, str]] = []
        for table, partitions in self.memtable.items():
            for partition_key in partitions:
                seen.add((table, partition_key))
                out.append((table, partition_key))
        for segment in self.segments:
            for table, partitions in segment.tables.items():
                for partition_key in partitions:
                    if (table, partition_key) not in seen:
                        seen.add((table, partition_key))
                        out.append((table, partition_key))
        return out

    def table_partition_keys(self, table: str) -> List[str]:
        return [pk for t, pk in self.partition_keys() if t == table]

    # -- crash / recovery ----------------------------------------------------

    def crash(self) -> None:
        """Lose the volatile column: memtable, acceptor state, unsynced
        WAL tail, and any in-flight background sync/compaction work."""
        self._epoch += 1
        self._sync_looping = False
        self._compacting = False
        self._pending_lsns.clear()
        lost = self.wal.drop_unsynced()
        self.memtable = {}
        self._live = {}
        self._live_bytes = {}
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

    # -- introspection -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A canonical, comparison-friendly image of the merged store.

        Used by the determinism acceptance tests: two runs with the same
        seed must produce equal snapshots after recovery.  The
        ``committed_ballots`` dedup cache is deliberately excluded — it
        is reconstructed conservatively on replay and is not data.
        """
        tables: Dict[str, Any] = {}
        for table, partition_key in sorted(self.partition_keys()):
            view = self.partition_view(table, partition_key)
            rows = {}
            for clustering in sorted(view, key=repr):
                row = view[clustering]
                rows[repr(clustering)] = {
                    "cells": {
                        column: (repr(cell.value), cell.stamp, cell.op_id)
                        for column, cell in sorted(row.cells.items())
                    },
                    "tombstone": row.tombstone,
                }
            if rows:
                tables.setdefault(table, {})[partition_key] = rows
        paxos = {}
        for key in sorted(self.paxos, key=repr):
            state = self.paxos[key]
            paxos[repr(key)] = (
                state.promised,
                repr(state.accepted),
                state.latest_commit,
            )
        return {"tables": tables, "paxos": paxos}
