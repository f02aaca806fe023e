"""WAN model: topology/latency profiles, transport, nodes, RPC, quorums."""

from .network import Message, Network, Transport
from .node import DEFAULT_RPC_TIMEOUT_MS, REPLY_KIND, Node
from .quorum import quorum_size
from .topology import (
    LOCAL_RTT_MS,
    PAPER_PROFILES,
    PROFILE_L1,
    PROFILE_LUS,
    PROFILE_LUSEU,
    LatencyProfile,
)

__all__ = [
    "DEFAULT_RPC_TIMEOUT_MS",
    "LOCAL_RTT_MS",
    "LatencyProfile",
    "Message",
    "Network",
    "Node",
    "PAPER_PROFILES",
    "PROFILE_L1",
    "PROFILE_LUS",
    "PROFILE_LUSEU",
    "REPLY_KIND",
    "Transport",
    "quorum_size",
]
