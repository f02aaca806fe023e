"""repro.storage — a per-replica durable storage engine.

Models Cassandra's write path (commit log → memtable → immutable
segments with size-tiered compaction) so that crash faults actually
lose the state they should: :class:`StorageEngine` splits a replica's
state into a volatile column that ``crash()`` discards and a durable
column that ``recover()`` deterministically replays, with the fsync
cost of each ``wal_sync`` mode charged on the simulated clock.

:class:`~repro.store.replica.StorageReplica` (and, through it, the
MUSIC lock store's guard/queue partitions and LWT Paxos acceptor
state) is built on this engine.  :func:`merge_into` is the one
last-write-wins rule by which any two copies of a partition combine.
"""

from .config import StorageEngineConfig
from .engine import PaxosState, StorageEngine, merge_into
from .wal import CommitLog, dump_wal_jsonl

__all__ = [
    "CommitLog",
    "PaxosState",
    "StorageEngine",
    "StorageEngineConfig",
    "dump_wal_jsonl",
    "merge_into",
]
