"""Cassandra-like replicated store: quorum ops, LWTs, sharding, anti-entropy."""

from .cluster import StoreCluster, build_cluster, site_layout
from .config import StoreConfig
from .coordinator import StoreCoordinator
from .replica import StorageReplica
from .ring import HashRing
from .types import (
    Cell,
    Condition,
    Consistency,
    DeleteRow,
    Row,
    Stamp,
    Update,
    payload_size,
)

__all__ = [
    "Cell",
    "Condition",
    "Consistency",
    "DeleteRow",
    "HashRing",
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
