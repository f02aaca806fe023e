"""LSM flush and size-tiered compaction.

A flush swaps the memtable into an immutable :class:`Segment` and
checkpoints the commit log; a compactor merges a tier of similar-sized
segments into one.  The compactor, like the periodic sync, is a
demand-driven daemon that exits once no tier is full, and a crash
abandons a merge in flight (its half-written output is garbage).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from .segment import Segment, merge_into, size_tier

__all__ = ["Lsm"]


def _row_count(tables: Dict[str, Dict[str, Dict[Any, Any]]]) -> int:
    return sum(
        len(rows) for partitions in tables.values() for rows in partitions.values()
    )


class Lsm:
    """The flush and compaction of :class:`~repro.storage.StorageEngine`."""

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
        self._live, self._live_bytes, self._tombstones = {}, {}, {}
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
