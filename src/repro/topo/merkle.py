"""Merkle trees over partition contents for anti-entropy repair.

Cassandra's repair builds, per table and replica pair, a hash tree over
the token range both endpoints replicate; only the token ranges under
differing leaves are streamed.  This module reproduces that shape at
whole-partition granularity: the 64-bit token space is split into
``2**depth`` equal leaves, each leaf holding the XOR of the *partition
hashes* that fall into it.  XOR makes the leaf independent of partition
enumeration order (memtable vs segments), and the partition hash covers
every LWW-relevant fact — cell values, write stamps, op ids, and row
tombstones — so two replicas hash equal iff an LWW merge would be a
no-op in both directions, and a divergence in nothing but a deletion
stamp is still found.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, Optional

__all__ = ["MerkleTree", "leaf_index", "partition_hash"]


def _hash64(data: str) -> int:
    return int.from_bytes(hashlib.md5(data.encode()).digest()[:8], "big")


def leaf_index(partition_key: str, depth: int) -> int:
    """The leaf a partition falls into: the top ``depth`` token bits."""
    return _hash64(partition_key) >> (64 - depth)


def partition_hash(table: str, partition_key: str, view: Dict[Any, Any]) -> int:
    """A canonical 64-bit digest of one partition's full LWW state."""
    rows = []
    for clustering in sorted(view, key=repr):
        row = view[clustering]
        cells = tuple(
            (column, repr(cell.value), cell.stamp, cell.op_id)
            for column, cell in sorted(row.cells.items())
        )
        rows.append((repr(clustering), row.tombstone, cells))
    return _hash64(repr((table, partition_key, tuple(rows))))


class MerkleTree:
    """A fixed-depth hash tree: ``2**depth`` leaves of XORed partitions."""

    __slots__ = ("depth", "leaves")

    def __init__(self, depth: int, leaves: Optional[List[int]] = None) -> None:
        self.depth = depth
        self.leaves = leaves if leaves is not None else [0] * (1 << depth)
        if len(self.leaves) != (1 << depth):
            raise ValueError("leaf count must be 2**depth")

    @classmethod
    def build(
        cls,
        engine: Any,
        depth: int,
        owns: Optional[Callable[[str], bool]] = None,
    ) -> "MerkleTree":
        """Hash a storage engine's partitions (optionally filtered)."""
        tree = cls(depth)
        for table, partition_key in engine.partition_keys():  # each pair once
            if owns is not None and not owns(partition_key):
                continue
            view = engine.partition_view(table, partition_key)
            tree.add(table, partition_key, view)
        return tree

    def add(self, table: str, partition_key: str, view: Dict[Any, Any]) -> None:
        self.leaves[leaf_index(partition_key, self.depth)] ^= partition_hash(
            table, partition_key, view
        )

    def root(self) -> int:
        value = 0
        for leaf in self.leaves:
            value ^= leaf
        return value

    def diff(self, other: "MerkleTree") -> List[int]:
        """Leaf indices whose hashes differ, found by binary descent.

        The descent mirrors the real protocol's range narrowing: equal
        internal nodes prune their whole subtree without touching the
        leaves below.
        """
        if other.depth != self.depth:
            raise ValueError("cannot diff trees of different depths")

        def xor_range(leaves: List[int], lo: int, hi: int) -> int:
            value = 0
            for index in range(lo, hi):
                value ^= leaves[index]
            return value

        differing: List[int] = []

        def descend(lo: int, hi: int) -> None:
            if xor_range(self.leaves, lo, hi) == xor_range(other.leaves, lo, hi):
                # Identical subtree... unless two differences cancelled
                # under XOR; verify leaf-wise only for small ranges.
                if hi - lo == 1 or self.leaves[lo:hi] == other.leaves[lo:hi]:
                    return
            if hi - lo == 1:
                differing.append(lo)
                return
            mid = (lo + hi) // 2
            descend(lo, mid)
            descend(mid, hi)

        descend(0, len(self.leaves))
        return differing

    def size_bytes(self) -> int:
        """Wire size of the serialized tree: 8 bytes per node."""
        return 8 * (2 * len(self.leaves) - 1)

    def payload(self) -> Dict[str, Any]:
        return {"depth": self.depth, "leaves": list(self.leaves)}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "MerkleTree":
        return cls(payload["depth"], list(payload["leaves"]))
