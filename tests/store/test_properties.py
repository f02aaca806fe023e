"""Property-based tests on store data structures (hypothesis)."""

import copy

from hypothesis import given, settings, strategies as st

from repro.store import HashRing, Row
from repro.store.types import Cell, _survives

# Strategies ------------------------------------------------------------------

stamps = st.tuples(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    st.sampled_from(["w1", "w2", "w3"]),
)

cell_ops = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(["x", "y"]),
              st.integers(min_value=0, max_value=100), stamps),
    st.tuples(st.just("delete"), stamps),
)


def apply_ops(row: Row, ops) -> Row:
    for op in ops:
        if op[0] == "put":
            _kind, column, value, stamp = op
            row.apply_cell(column, value, stamp)
        else:
            _kind, stamp = op
            row.delete(stamp)
    return row


class TestLwwTieBreak:
    """``_survives`` skips the two ``repr`` calls when both sides hold
    the same object; it must still be the one-line last-write-wins rule."""

    values = st.one_of(
        st.none(), st.integers(-3, 3), st.text(max_size=3),
        st.lists(st.integers(0, 2), max_size=2),
        st.dictionaries(st.sampled_from(["a", "b"]), st.integers(0, 2), max_size=2),
    )

    @staticmethod
    def reference(cell, stamp, value):
        return cell.stamp > stamp or (
            cell.stamp == stamp and repr(cell.value) >= repr(value)
        )

    @given(stored=values, incoming=values, mine=stamps, theirs=stamps,
           how=st.sampled_from(["identical", "equal-but-distinct", "as-drawn"]),
           tie=st.booleans())
    def test_matches_the_reference_rule(self, stored, incoming, mine, theirs, how, tie):
        if how == "identical":
            incoming = stored
        elif how == "equal-but-distinct":
            incoming = copy.deepcopy(stored)
        if tie:
            theirs = mine
        cell = Cell(stored, mine)
        expected = self.reference(cell, theirs, incoming)
        assert _survives(cell, theirs, incoming) == expected
        if tie and how != "as-drawn":
            assert _survives(cell, theirs, incoming)  # a value ties with itself


class TestRowMergeIsACrdt:
    """Row merge must behave like a state-based CRDT: any replica order
    and grouping of the same writes converges to the same state —
    that is what lets anti-entropy run in arbitrary directions."""

    @given(ops=st.lists(cell_ops, max_size=12))
    def test_order_independence(self, ops):
        forward = apply_ops(Row(), ops)
        backward = apply_ops(Row(), list(reversed(ops)))
        assert forward.visible_cells().keys() == backward.visible_cells().keys()
        for column, cell in forward.visible_cells().items():
            assert backward.visible_cells()[column].stamp == cell.stamp

    @given(left=st.lists(cell_ops, max_size=8), right=st.lists(cell_ops, max_size=8))
    def test_merge_commutative(self, left, right):
        row_a = apply_ops(Row(), left)
        row_b = apply_ops(Row(), right)
        ab = row_a.copy()
        ab.merge_from(row_b)
        ba = row_b.copy()
        ba.merge_from(row_a)
        assert ab.visible_values() == ba.visible_values()
        assert ab.tombstone == ba.tombstone

    @given(ops=st.lists(cell_ops, max_size=10))
    def test_merge_idempotent(self, ops):
        row = apply_ops(Row(), ops)
        once = row.copy()
        once.merge_from(row)
        assert once.visible_values() == row.visible_values()
        assert once.tombstone == row.tombstone

    @given(a=st.lists(cell_ops, max_size=6), b=st.lists(cell_ops, max_size=6),
           c=st.lists(cell_ops, max_size=6))
    def test_merge_associative(self, a, b, c):
        rows = [apply_ops(Row(), ops) for ops in (a, b, c)]
        left = rows[0].copy()
        left.merge_from(rows[1])
        left.merge_from(rows[2])
        bc = rows[1].copy()
        bc.merge_from(rows[2])
        right = rows[0].copy()
        right.merge_from(bc)
        assert left.visible_values() == right.visible_values()
        assert left.tombstone == right.tombstone

    @given(ops=st.lists(cell_ops, max_size=10), stamp=stamps)
    def test_higher_stamp_always_wins(self, ops, stamp):
        row = apply_ops(Row(), ops)
        existing = row.cells.get("x")
        if existing is not None and stamp > existing.stamp:
            row.apply_cell("x", "winner", stamp)
            assert row.cells["x"].value == "winner"


class TestRingProperties:
    @given(
        keys=st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=40),
        nodes_per_site=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_placement_always_one_per_site(self, keys, nodes_per_site):
        ring = HashRing(vnodes=8)
        sites = ["s1", "s2", "s3"]
        for site_index, site in enumerate(sites):
            for slot in range(nodes_per_site):
                ring.add_node(f"n-{site_index}-{slot}", site)
        for key in keys:
            replicas = ring.replicas_for(key, 3)
            assert len(replicas) == 3
            assert {ring.site_of(r) for r in replicas} == set(sites)

    @given(key=st.text(min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_removal_only_moves_affected_replicas(self, key):
        ring = HashRing(vnodes=8)
        for site_index in range(3):
            for slot in range(2):
                ring.add_node(f"n-{site_index}-{slot}", f"s{site_index}")
        before = ring.replicas_for(key, 3)
        victim = "n-0-0"
        ring.remove_node(victim)
        after = ring.replicas_for(key, 3)
        # Replicas in sites other than the victim's must be unchanged.
        before_others = [r for r in before if not r.startswith("n-0")]
        after_others = [r for r in after if not r.startswith("n-0")]
        assert before_others == after_others
