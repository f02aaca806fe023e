"""Elastic-membership configuration knobs."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TopoConfig"]


@dataclass
class TopoConfig:
    """Tunables for gossip, range streaming, and anti-entropy repair."""

    # Gossip: one round per interval per node (with +/-10% jitter so
    # members do not run in lockstep), contacting ``gossip_fanout``
    # random live peers per round.
    gossip_interval_ms: float = 1_000.0
    gossip_fanout: int = 1

    # Phi-accrual suspicion (Hayashibara et al., the detector Cassandra
    # uses for membership): a peer whose heartbeat silence exceeds
    # ``phi_threshold`` is a suspect.  ``phi_window`` is the number of
    # recent heartbeat inter-arrival intervals kept per peer.
    phi_threshold: float = 8.0
    phi_window: int = 8

    # Range streaming during bootstrap/decommission: how long to wait
    # before retrying a failed collect/handover, and how many times.
    # The defaults ride out a crashed-and-recovering endpoint (two
    # minutes of retries) rather than aborting the topology change.
    handover_retry_ms: float = 1_000.0
    handover_max_retries: int = 120

    # Merkle anti-entropy: tree depth (2**depth leaves per tree).
    repair_depth: int = 6

    # RPC deadline for topology-plane requests (collect, handover,
    # merkle exchange, cleanup).
    rpc_timeout_ms: float = 4_000.0

    # Drop the source's local copy of a partition once it has been
    # handed to its new owners (Cassandra's ``nodetool cleanup``).
    cleanup_after_move: bool = True
