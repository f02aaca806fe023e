"""Elastic-membership configuration knobs."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TopoConfig"]


@dataclass
class TopoConfig:
    """The two elastic-membership tunables a caller sets; the rest are
    constants beside their one use (``gossip.py``, ``elastic.py``)."""

    # Phi-accrual suspicion (Hayashibara et al., the detector Cassandra
    # uses for membership): a peer whose heartbeat silence exceeds
    # ``phi_threshold`` is a suspect.
    phi_threshold: float = 8.0

    # RPC deadline for topology-plane requests (collect, handover,
    # merkle exchange, cleanup).
    rpc_timeout_ms: float = 4_000.0
