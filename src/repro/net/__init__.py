"""WAN model: topology/latency profiles, transport, nodes, RPC, quorums."""

from .network import DEFAULT_BANDWIDTH_BYTES_PER_MS, Message, Network, NetworkStats
from .node import DEFAULT_RPC_TIMEOUT_MS, Node
from .quorum import await_quorum, quorum_of, quorum_size
from .topology import (
    LOCAL_RTT_MS,
    PAPER_PROFILES,
    PROFILE_L1,
    PROFILE_LUS,
    PROFILE_LUSEU,
    LatencyProfile,
    Site,
)

__all__ = [
    "DEFAULT_BANDWIDTH_BYTES_PER_MS",
    "DEFAULT_RPC_TIMEOUT_MS",
    "LOCAL_RTT_MS",
    "LatencyProfile",
    "Message",
    "Network",
    "NetworkStats",
    "Node",
    "PAPER_PROFILES",
    "PROFILE_L1",
    "PROFILE_LUS",
    "PROFILE_LUSEU",
    "Site",
    "await_quorum",
    "quorum_of",
    "quorum_size",
]
