"""Immutable on-disk segments (the engine's SSTables).

A :class:`Segment` is a memtable frozen at flush time: the engine takes
ownership of the whole ``tables`` dict, and nothing mutates its rows
afterwards — they are frozen ``Row`` objects; reads and compaction fold
them with the non-mutating ``Row.merged``, and compaction builds a
brand-new merged segment before atomically swapping it in.  Segments
are durable by construction (a real flush fsyncs the SSTable before the
commit log is truncated), which is why data can survive a crash even
under ``wal_sync="off"`` once it has been flushed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping

__all__ = ["Segment", "merge_into", "size_tier"]


@dataclass
class Segment:
    """One immutable segment: ``tables[table][partition][clustering] -> Row``."""

    segment_id: int
    tables: Dict[str, Dict[str, Dict[Any, Any]]]
    size_bytes: int
    row_count: int
    created_at: float
    # The highest commit-log LSN folded into this segment; the flush
    # checkpoints the log through this point.
    max_lsn: int


def size_tier(size_bytes: int, tier_factor: float) -> int:
    """The size-tiered-compaction bucket of a segment.

    Tier ``t`` holds segments of size in ``[factor^t, factor^(t+1))``;
    computed with an integer loop so it is exact and deterministic.
    """
    tier = 0
    size = float(max(size_bytes, 1))
    while size >= tier_factor and tier < 64:
        size /= tier_factor
        tier += 1
    return tier


def merge_into(target: Dict[Any, Any], rows: Mapping[Any, Any]) -> None:
    """Fold ``rows`` into ``target`` (clustering -> Row) by last-write-wins,
    the one rule that combines copies of a partition.  No row changes: a
    row only one side has is taken as it is, one both have is
    :meth:`Row.merged` (``target``'s own when ``rows`` adds nothing)."""
    for clustering, row in rows.items():
        known = target.get(clustering)
        target[clustering] = row if known is None else known.merged(row).freeze()
