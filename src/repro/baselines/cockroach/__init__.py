"""CockroachDB baseline: Raft ranges, leaseholders, transactions."""

from .raft import CockroachConfig, build_cockroach, range_of
from .txn import CockroachClient, CockroachCriticalSection

__all__ = [
    "CockroachClient",
    "CockroachConfig",
    "CockroachCriticalSection",
    "build_cockroach",
    "range_of",
]
