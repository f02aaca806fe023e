"""Cassandra-like replicated store: quorum ops, LWTs, sharding, anti-entropy."""

from .cluster import StoreCluster, build_cluster, site_layout
from .config import StoreConfig
from .coordinator import CasResult, StoreCoordinator
from .replica import PaxosState, StorageReplica
from .ring import HashRing
from .types import (
    Ballot,
    Cell,
    Condition,
    Consistency,
    DeleteRow,
    Mutation,
    Partition,
    Row,
    Stamp,
    Update,
    payload_size,
)

__all__ = [
    "Ballot",
    "CasResult",
    "Cell",
    "Condition",
    "Consistency",
    "DeleteRow",
    "HashRing",
    "Mutation",
    "Partition",
    "PaxosState",
    "Row",
    "Stamp",
    "StorageReplica",
    "StoreCluster",
    "StoreConfig",
    "StoreCoordinator",
    "Update",
    "build_cluster",
    "site_layout",
    "payload_size",
]
