"""Store configuration: service times and protocol knobs.

The CPU service times below are the calibration constants that map
simulated protocol work onto the paper's absolute magnitudes.  They were fitted to
two anchors from Section VIII (3 nodes x 8 cores, lUs profile):

- ``CassaEV`` (an eventually-consistent local write) peaks near 41K op/s,
  implying roughly 0.6 core-ms of total cluster CPU per write; and
- a full MUSIC critical section of size 1 peaks near 885 op/s, implying
  roughly 27 core-ms per critical section, dominated by its two LWTs
  (Cassandra LWTs persist Paxos state, hence the much higher per-phase
  cost than a plain write).

Latency behaviour (Fig. 5) is governed by message round trips, not by
these constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from ..net import DEFAULT_RPC_TIMEOUT_MS
from ..storage import StorageEngineConfig

__all__ = ["StoreConfig"]


@dataclass
class StoreConfig:
    """Tunables for the replicated store (its ``ClassVar`` calibration
    constants, timings and switches are set by no deployment, so they
    are not fields)."""

    # Replication factor; by default one replica of each key per site.
    replication_factor: int = 3

    # Per-replica durable storage engine (commit log / memtable /
    # segments).  Each replica takes a private copy, so fault schedules
    # can flip one node's sync mode without affecting its peers.  The
    # defaults (wal_sync="always", zero fsync latency) keep existing
    # timings bit-identical: write_service_ms below already prices the
    # commit-log append.
    storage: StorageEngineConfig = field(default_factory=StorageEngineConfig)

    # CPU service times (milliseconds of one core).
    coordinator_service_ms: ClassVar[float] = 0.10  # request parsing/routing per op
    read_service_ms: ClassVar[float] = 0.15  # memtable read at a replica
    write_service_ms: ClassVar[float] = 0.15  # memtable write + commitlog append
    paxos_phase_service_ms: ClassVar[float] = 1.05  # per LWT phase at a replica
    # Extra CPU per byte of value, modelling serialization/copy costs
    # (~2 copies at roughly 2 GB/s).
    per_byte_service_ms: ClassVar[float] = 1.0e-6

    # RPC deadline for replica requests (tests shorten it).
    rpc_timeout_ms: ClassVar[float] = DEFAULT_RPC_TIMEOUT_MS

    # LWT (Paxos) contention handling.
    cas_max_attempts: ClassVar[int] = 20
    cas_backoff_base_ms: ClassVar[float] = 10.0
    cas_backoff_jitter_ms: ClassVar[float] = 40.0

    # Anti-entropy: period between digest exchanges per replica (the
    # loop jitters each period to avoid lockstep).
    anti_entropy_interval_ms: ClassVar[float] = 1_000.0
    anti_entropy_enabled: bool = True

    # Read repair: push the merged result of every quorum read back to
    # the replicas that replied (async).  Off by default so message
    # counts in the cost figures stay exactly the protocol's own.
    read_repair_enabled: ClassVar[bool] = False

    # Hinted handoff: a coordinator that cannot reach a replica keeps the
    # write as a hint and replays it periodically until delivered.  The
    # queue is bounded two ways, as in Cassandra: a size cap (hints are
    # shed, not queued, once it is full) and a TTL (max_hint_window_in_ms)
    # after which a stored hint is discarded instead of replayed — a
    # replica that was down longer than the TTL must be healed by
    # anti-entropy repair, not by hints.
    hinted_handoff_enabled: ClassVar[bool] = True
    hint_replay_interval_ms: ClassVar[float] = 5_000.0
    max_hints_per_coordinator: ClassVar[int] = 10_000
    hint_ttl_ms: ClassVar[float] = 3_600_000.0

    # Virtual nodes per physical node on the hash ring.
    ring_vnodes: ClassVar[int] = 16

    def value_service_ms(self, size_bytes: int) -> float:
        """CPU time attributable to the payload size of one replica op."""
        return self.per_byte_service_ms * size_bytes
