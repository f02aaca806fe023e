"""The data table's layout and Section VI's unlocked operations.

A key's data partition holds two rows: its value, and its synchFlag.
:class:`UnlockedOps` is the part of :class:`~repro.core.replica.MusicReplica`
that needs no lock — the "Additional Functions" of Section VI, with no
ECF guarantees — mixed in over the replica's coordinator, clock, config,
counters and read cache.
"""

from __future__ import annotations

from typing import Any, Generator, Mapping, Optional, Tuple

from ..leases import CachedRead
from ..store import Consistency, Stamp
from .timestamps import UNLOCKED_LOCK_REF, VectorTimestamp, v2s

__all__ = ["DATA_TABLE", "SYNCH_ROW", "VALUE_ROW", "UnlockedOps", "cell_of"]

DATA_TABLE = "music_data"
# Clustering keys inside a key's data-table partition: the value row and
# the synchFlag row are separate rows so the flag's quorum read stays
# small regardless of the value size (the paper stores them as separate
# columns; separate rows give the same cost split in our store model).
VALUE_ROW = None
SYNCH_ROW = "__synch__"


def cell_of(
    rows: Mapping, clustering: Any = VALUE_ROW, column: str = "value"
) -> Tuple[Any, Optional[Stamp]]:
    """``(value, stamp)`` of one cell of a data-partition read — by
    default the key's value; ``(None, None)`` if never written or
    deleted."""
    row = rows.get(clustering)
    cell = None if row is None else row.visible_cell(column)
    if cell is None:
        return None, None
    return cell.value, cell.stamp


class UnlockedOps:
    """Section VI's operations outside critical sections."""

    def put(self, key: str, value: Any) -> Generator[Any, Any, None]:
        """Eventual write with no ECF guarantees (stamped below any CS write)."""
        now = self.clock.now()
        if now >= self.config.period_ms:
            raise OverflowError(
                "unlocked put past T would break v2s ordering; raise period_ms"
            )
        stamp = (v2s(VectorTimestamp(UNLOCKED_LOCK_REF, now), self.config.period_ms),
                 self.node_id)
        yield from self.coordinator.put(
            DATA_TABLE, key, VALUE_ROW, {"value": value}, stamp,
            consistency=Consistency.ONE,
        )

    def get(self, key: str) -> Generator[Any, Any, Any]:
        """Eventual read (possibly stale) with no ECF guarantees."""
        rows = yield from self.coordinator.get(
            DATA_TABLE, key, clustering=VALUE_ROW, consistency=Consistency.ONE
        )
        return cell_of(rows)[0]

    def quorum_get(
        self, key: str
    ) -> Generator[Any, Any, Tuple[Any, Optional[Stamp]]]:
        """Quorum read of ``(value, stamp)`` with no lock guard: the
        optimistic transaction engines' read, which needs the version
        stamp to validate against at commit but holds no lock."""
        rows = yield from self.coordinator.get(
            DATA_TABLE, key, clustering=VALUE_ROW, consistency=Consistency.QUORUM
        )
        return cell_of(rows)

    def quorum_put(
        self, key: str, value: Any, stamp: Stamp
    ) -> Generator[Any, Any, Stamp]:
        """Quorum write under a caller-supplied stamp, no lock guard;
        returns the stamp once acknowledged.  The transaction engines
        install validated writes under the stamps they mint through it."""
        yield from self.coordinator.put(
            DATA_TABLE, key, VALUE_ROW, {"value": value}, stamp,
            consistency=Consistency.QUORUM,
        )
        return stamp

    def get_bounded(
        self, key: str, staleness_ms: float
    ) -> Generator[Any, Any, CachedRead]:
        """Bounded-staleness read (``read_leases`` tier, Section VI++): a
        hit within the bound is served from this replica's read cache, a
        miss reads through the nearest replica and fills it.  Push grants
        invalidate it (``MusicReplica._invalidate_reads``), so a cached
        value lives at most the push latency past the section that
        overwrote it."""
        entry = self.read_cache.lookup(key, self.sim.now, staleness_ms)
        if entry is not None:
            self.counters["cache_hits"] += 1
            return CachedRead(entry.value, entry.stamp, entry.fetched_ms,
                              hit=True, node=self.node_id)
        self.counters["cache_misses"] += 1
        rows = yield from self.coordinator.get(
            DATA_TABLE, key, clustering=VALUE_ROW, consistency=Consistency.ONE
        )
        value, stamp = cell_of(rows)
        fetched = self.sim.now
        self.read_cache.fill(key, value, stamp, fetched)
        return CachedRead(value, stamp, fetched, hit=False, node=self.node_id)

    def get_all_keys(self, table: Optional[str] = None) -> Generator[Any, Any, list]:
        """All keys of the data table (eventual; used by job schedulers)."""
        return self.coordinator.scan_keys(table or DATA_TABLE)
