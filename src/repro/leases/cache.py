"""The per-replica bounded-staleness read cache (DESIGN.md §8).

Entries are v2s-stamped ``(value, stamp, fetched_ms)`` triples filled by
read-through misses and critical-write write-throughs.  A hit is legal
iff the entry's age is within the caller's ``staleness_ms`` bound;
invalidation piggybacks on push grants (every release/forcedRelease of a
key drops its entry everywhere the push reaches), so a cached value can
only outlive the critical section that wrote it by the push latency —
and never past the staleness bound either way.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional, Tuple

__all__ = ["CachedRead", "ReadCache"]

Stamp = Tuple[float, str]


@dataclass
class CachedRead:
    """One bounded-staleness read as served by a replica."""

    value: Any
    stamp: Optional[Stamp]
    fetched_ms: Optional[float]  # None when served from the session watermark
    hit: bool
    node: Optional[str] = None


class _Entry:
    __slots__ = ("value", "stamp", "fetched_ms")

    def __init__(self, value: Any, stamp: Optional[Stamp], fetched_ms: float) -> None:
        self.value = value
        self.stamp = stamp
        self.fetched_ms = fetched_ms


class ReadCache:
    """An LRU of v2s-stamped read results, bounded by ``capacity``."""

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()

    def lookup(self, key: str, now_ms: float,
               staleness_ms: float) -> Optional[_Entry]:
        """The key's entry iff it is within the staleness bound."""
        entry = self._entries.get(key)
        if entry is None or now_ms - entry.fetched_ms > staleness_ms:
            return None
        self._entries.move_to_end(key)
        return entry

    def fill(self, key: str, value: Any, stamp: Optional[Stamp],
             now_ms: float) -> _Entry:
        """Record a fetched value; a stamped entry never goes backwards
        (an eventual read from a lagging store replica refreshes the age
        but cannot displace a newer cached value)."""
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = _Entry(value, stamp, now_ms)
        else:
            if entry.stamp is None or stamp is None or stamp > entry.stamp:
                entry.value = value
                entry.stamp = stamp
            entry.fetched_ms = now_ms
            self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return entry

    def invalidate(self, key: str) -> bool:
        return self._entries.pop(key, None) is not None

    def __len__(self) -> int:
        return len(self._entries)
