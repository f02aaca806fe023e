"""Unit tests for the anti-entropy Merkle trees."""

from repro.store.merkle import DEPTH, MerkleTree, leaf_index, partition_hash
from repro.store.types import Row


def row(value, stamp, op_id=""):
    r = Row()
    r.apply_cell("v", value, stamp, op_id)
    return r


def view(**rows):
    return dict(rows)


def test_equal_content_hashes_equal():
    a = MerkleTree()
    b = MerkleTree()
    for key in ["k1", "k2", "k3"]:
        a.add("t", key, {"r": row(1, (5.0, "w"))})
        b.add("t", key, {"r": row(1, (5.0, "w"))})
    assert a.diff(b) == []


def test_add_order_is_irrelevant():
    """XOR leaves: memtable-first vs segment-first enumeration must not
    change the tree (the engines enumerate in different orders)."""
    a = MerkleTree()
    b = MerkleTree()
    parts = [("t", f"k{i}", {"r": row(i, (float(i), "w"))}) for i in range(10)]
    for table, key, v in parts:
        a.add(table, key, v)
    for table, key, v in reversed(parts):
        b.add(table, key, v)
    assert a.diff(b) == []


def test_value_divergence_is_localised():
    a = MerkleTree()
    b = MerkleTree()
    for key in [f"k{i}" for i in range(20)]:
        a.add("t", key, {"r": row(0, (1.0, "w"))})
        value = 99 if key == "k7" else 0
        b.add("t", key, {"r": row(value, (1.0, "w"))})
    assert a.diff(b) == [leaf_index("k7")]


def test_stamp_only_divergence_detected():
    """Same value, different write stamp: still a divergence (v2s stamps
    carry lock-order semantics and must converge exactly)."""
    a = MerkleTree()
    b = MerkleTree()
    a.add("t", "k", {"r": row("same", (1.0, "w"))})
    b.add("t", "k", {"r": row("same", (2.0, "w"))})
    assert a.diff(b) == [leaf_index("k")]


def test_tombstone_divergence_detected():
    live = row("x", (1.0, "w"))
    deleted = row("x", (1.0, "w"))
    deleted.delete((2.0, "w"))
    a = MerkleTree()
    b = MerkleTree()
    a.add("t", "k", {"r": live})
    b.add("t", "k", {"r": deleted})
    assert a.diff(b) == [leaf_index("k")]
    assert partition_hash("t", "k", {"r": live}) != partition_hash(
        "t", "k", {"r": deleted}
    )


def test_payload_roundtrip_and_size():
    tree = MerkleTree()
    tree.add("t", "k", {"r": row(1, (1.0, "w"))})
    clone = MerkleTree.from_payload(tree.payload())
    assert clone.diff(tree) == []
    assert tree.size_bytes() == 8 * len(tree.payload()) == 8 * 2**DEPTH


def test_a_row_digest_follows_the_row_until_it_is_frozen():
    """A row that can still change digests afresh; a frozen one keeps
    its digest, under the clustering key it was stored at."""
    r = row("x", (1.0, "w"))
    first = r.digest("r")
    r.apply_cell("v", "y", (2.0, "w"))
    second = r.digest("r")
    assert second != first
    r.delete((3.0, "w"))
    third = r.freeze().digest("r")
    assert third not in (first, second)
    assert r.digest("r") == r.copy().digest("r") == third
    assert r.digest("s") != third and r.digest("r") == third


def test_rows_swapped_between_clustering_keys_are_a_divergence():
    one, two = row(1, (1.0, "w")), row(2, (1.0, "w"))
    assert partition_hash("t", "k", {"a": one, "b": two}) != partition_hash(
        "t", "k", {"a": two, "b": one}
    )
