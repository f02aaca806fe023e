"""Read scale-out leases (DESIGN.md §8).

Two read paths layered under the MUSIC client/replica stack, both
default-off and bit-identical when disabled:

- :class:`LeaseManager` — leaseholder *critical* reads: the current
  lockholder's replica serves ``critical_get`` from a local write-through
  mirror while its lease is provably inside the ECF window;
- :class:`ReadCache` — *non-critical* bounded-staleness reads backing
  ``client.get(key, staleness_ms=...)``, with v2s-stamped entries,
  read-through fill, and invalidation piggybacked on push grants.

This package deliberately depends on nothing in :mod:`repro.core` (the
replica imports it, not the other way around).
"""

from .cache import CachedRead, ReadCache
from .manager import NULL_LEASES, LeaseManager

__all__ = ["NULL_LEASES", "CachedRead", "LeaseManager", "ReadCache"]
