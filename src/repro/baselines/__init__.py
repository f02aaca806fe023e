"""Baselines the paper evaluates against: MSCP, Zookeeper, CockroachDB."""

from .cockroach import (
    CockroachClient,
    CockroachConfig,
    CockroachCriticalSection,
    build_cockroach,
)
from .mscp import MscpReplica, build_mscp
from .zookeeper import ZkLock, ZkSession, build_zookeeper

__all__ = [
    "CockroachClient",
    "CockroachConfig",
    "CockroachCriticalSection",
    "MscpReplica",
    "ZkLock",
    "ZkSession",
    "build_cockroach",
    "build_mscp",
    "build_zookeeper",
]
