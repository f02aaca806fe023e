"""Merkle trees over partition contents: the digests of anti-entropy.

Cassandra's repair builds, per replica pair, a hash tree over the token
range both endpoints replicate; only the token ranges under differing
leaves are streamed.  This module reproduces that shape at whole-
partition granularity for :meth:`StorageReplica.repair
<repro.store.replica.StorageReplica.repair>`: the 64-bit token space is
split into ``2**DEPTH`` equal leaves, each leaf holding the XOR of the
*partition hashes* that fall into it, each of those a digest of the XOR
of its rows' digests.  XOR makes both independent of enumeration order
(memtable vs segments, one replica's row order vs another's), and the
row digest covers every LWW-relevant fact — clustering key, cell
values, write stamps, op ids, and the tombstone (:meth:`Row.digest
<repro.store.types.Row.digest>`, cached on the frozen row) — so two
replicas hash equal iff an LWW merge would be a no-op in both
directions, and a divergence in nothing but a deletion stamp is still
found.
"""

from __future__ import annotations

from typing import Any, Callable, List, Mapping, Optional

from .types import digest64

__all__ = ["DEPTH", "MerkleTree", "leaf_index", "partition_hash"]

# The tree depth: 2**DEPTH leaves per tree.
DEPTH = 6


def leaf_index(partition_key: str) -> int:
    """The leaf a partition falls into: the top ``DEPTH`` token bits."""
    return digest64(partition_key) >> (64 - DEPTH)


def partition_hash(table: str, partition_key: str, view: Mapping[Any, Any]) -> int:
    """A canonical 64-bit digest of one partition's full LWW state."""
    rows = 0
    for clustering, row in view.items():
        rows ^= row.digest(clustering)
    return digest64(repr((table, partition_key, rows)))


class MerkleTree:
    """A fixed-depth hash tree: ``2**DEPTH`` leaves of XORed partitions."""

    __slots__ = ("leaves",)

    def __init__(self, leaves: Optional[List[int]] = None) -> None:
        self.leaves = leaves if leaves is not None else [0] * (1 << DEPTH)
        if len(self.leaves) != (1 << DEPTH):
            raise ValueError("leaf count must be 2**DEPTH")

    @classmethod
    def build(cls, engine: Any, owns: Callable[[str], bool]) -> "MerkleTree":
        """Hash the storage engine's partitions that ``owns`` admits."""
        tree = cls()
        for table, partition_key in engine.partition_keys():  # each pair once
            if owns(partition_key):
                tree.add(table, partition_key, engine.partition_view(table, partition_key))
        return tree

    def add(self, table: str, partition_key: str, view: Mapping[Any, Any]) -> None:
        self.leaves[leaf_index(partition_key)] ^= partition_hash(table, partition_key, view)

    def diff(self, other: "MerkleTree") -> List[int]:
        """Leaf indices whose hashes differ."""
        return [
            index
            for index, (mine, theirs) in enumerate(zip(self.leaves, other.leaves))
            if mine != theirs
        ]

    def size_bytes(self) -> int:
        """Wire size of :meth:`payload`: 8 bytes per leaf."""
        return 8 * len(self.leaves)

    def payload(self) -> List[int]:
        return list(self.leaves)

    @classmethod
    def from_payload(cls, payload: List[int]) -> "MerkleTree":
        return cls(list(payload))
