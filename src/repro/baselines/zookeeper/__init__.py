"""Zookeeper baseline: Zab broadcast, znode tree, sessions, lock recipe."""

from .lock_recipe import ZkLock
from .server import ZkSession, build_zookeeper
from .znode import BadVersionError, NodeExistsError, NoNodeError, ZkError, ZNodeTree

__all__ = [
    "BadVersionError",
    "NoNodeError",
    "NodeExistsError",
    "ZNodeTree",
    "ZkError",
    "ZkLock",
    "ZkSession",
    "build_zookeeper",
]
