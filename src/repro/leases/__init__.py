"""Read scale-out leases (DESIGN.md §8).

Two read paths layered under the MUSIC client/replica stack; the lease
tier and the cache are default-off and bit-identical when disabled:

- :class:`Mirror` / :class:`LeaseManager` — local *critical* reads: the
  lockholder's replica serves ``critical_get`` from its mirror while the
  entry's evidence holds — a lease window provably inside the ECF window
  (the lease tier), or the hand-off until the section's first write;
- :class:`ReadCache` — *non-critical* bounded-staleness reads backing
  ``client.get(key, staleness_ms=...)``, with v2s-stamped entries,
  read-through fill, and invalidation piggybacked on push grants.

This package deliberately depends on nothing in :mod:`repro.core` (the
replica imports it, not the other way around).
"""

from .cache import CachedRead, ReadCache
from .manager import NULL_LEASES, LeaseManager, Mirror

__all__ = ["NULL_LEASES", "CachedRead", "LeaseManager", "Mirror", "ReadCache"]
