"""Unit tests for the store data model (rows, cells, conditions)."""

from repro.store import Condition, Row, payload_size
from repro.store.types import Update, DeleteRow


def stamp(ts, writer="w"):
    return (ts, writer)


class TestRowLastWriteWins:
    def test_newer_write_wins(self):
        row = Row()
        assert row.apply_cell("v", "old", stamp(1.0))
        assert row.apply_cell("v", "new", stamp(2.0))
        assert row.visible_values() == {"v": "new"}

    def test_older_write_ignored(self):
        row = Row()
        row.apply_cell("v", "new", stamp(2.0))
        assert not row.apply_cell("v", "old", stamp(1.0))
        assert row.visible_values() == {"v": "new"}

    def test_equal_stamp_breaks_ties_by_value(self):
        """Exact stamp ties resolve by value comparison (Cassandra's
        rule), keeping the merge order-independent."""
        row = Row()
        row.apply_cell("v", "bbb", stamp(1.0))
        assert not row.apply_cell("v", "aaa", stamp(1.0))  # smaller value loses
        assert row.visible_values() == {"v": "bbb"}
        assert row.apply_cell("v", "ccc", stamp(1.0))  # larger value wins
        assert row.visible_values() == {"v": "ccc"}
        # Identical value re-application is a no-op.
        assert not row.apply_cell("v", "ccc", stamp(1.0))

    def test_writer_breaks_scalar_ties(self):
        row = Row()
        row.apply_cell("v", "a", (1.0, "writer-a"))
        assert row.apply_cell("v", "b", (1.0, "writer-b"))
        assert row.visible_values() == {"v": "b"}

    def test_independent_columns(self):
        row = Row()
        row.apply_cell("x", 1, stamp(5.0))
        row.apply_cell("y", 2, stamp(1.0))
        # An old write to y does not disturb x.
        row.apply_cell("y", 3, stamp(2.0))
        assert row.visible_values() == {"x": 1, "y": 3}


class TestTombstones:
    def test_delete_hides_older_cells(self):
        row = Row()
        row.apply_cell("v", "data", stamp(1.0))
        row.delete(stamp(2.0))
        assert not row.live
        assert row.visible_values() == {}

    def test_newer_write_resurrects_row(self):
        row = Row()
        row.apply_cell("v", "data", stamp(1.0))
        row.delete(stamp(2.0))
        row.apply_cell("v", "reborn", stamp(3.0))
        assert row.live
        assert row.visible_values() == {"v": "reborn"}

    def test_late_delete_does_not_regress(self):
        row = Row()
        row.delete(stamp(5.0))
        row.delete(stamp(2.0))  # older delete must not lower the tombstone
        row.apply_cell("v", "x", stamp(3.0))
        assert not row.live

    def test_merge_from_combines_views(self):
        ours = Row()
        ours.apply_cell("x", 1, stamp(1.0))
        theirs = Row()
        theirs.apply_cell("x", 2, stamp(2.0))
        theirs.apply_cell("y", 9, stamp(1.0))
        ours.merge_from(theirs)
        assert ours.visible_values() == {"x": 2, "y": 9}

    def test_merge_propagates_tombstone(self):
        ours = Row()
        ours.apply_cell("v", 1, stamp(1.0))
        theirs = Row()
        theirs.delete(stamp(2.0))
        ours.merge_from(theirs)
        assert not ours.live

    def test_copy_is_deep_for_cells(self):
        row = Row()
        row.apply_cell("v", 1, stamp(1.0))
        clone = row.copy()
        clone.apply_cell("v", 2, stamp(2.0))
        assert row.visible_values() == {"v": 1}


class TestConditions:
    def make_partition(self):
        row = Row()
        row.apply_cell("guard", 7, stamp(1.0))
        return {"g": row}

    def test_always(self):
        assert Condition("always").evaluate({})

    def test_not_exists(self):
        partition = self.make_partition()
        assert Condition("not_exists", clustering="missing").evaluate(partition)
        assert not Condition("not_exists", clustering="g").evaluate(partition)

    def test_exists(self):
        partition = self.make_partition()
        assert Condition("exists", clustering="g").evaluate(partition)
        assert not Condition("exists", clustering="missing").evaluate(partition)

    def test_deleted_row_counts_as_not_exists(self):
        partition = self.make_partition()
        partition["g"].delete(stamp(9.0))
        assert Condition("not_exists", clustering="g").evaluate(partition)

    def test_col_eq(self):
        partition = self.make_partition()
        assert Condition("col_eq", "g", column="guard", expected=7).evaluate(partition)
        assert not Condition("col_eq", "g", column="guard", expected=8).evaluate(partition)

    def test_col_eq_missing_row_matches_none(self):
        assert Condition("col_eq", "nope", column="guard", expected=None).evaluate({})
        assert not Condition("col_eq", "nope", column="guard", expected=1).evaluate({})

    def test_col_eq_missing_column_matches_none(self):
        partition = self.make_partition()
        assert Condition("col_eq", "g", column="other", expected=None).evaluate(partition)

    def test_unknown_kind_raises(self):
        import pytest

        with pytest.raises(ValueError):
            Condition("wat").evaluate({})


class TestSizes:
    def test_payload_size_bytes_and_strings(self):
        assert payload_size(b"x" * 100) == 100
        assert payload_size("abc") == 3

    def test_payload_size_scalars(self):
        assert payload_size(None) == 1
        assert payload_size(True) == 1
        assert payload_size(42) == 8
        assert payload_size(3.14) == 8

    def test_payload_size_containers(self):
        assert payload_size({"k": "vv"}) == 1 + 2 + 8
        assert payload_size([1, 2]) == 8 + 8 + 8

    def test_update_and_delete_sizes(self):
        update = Update("t", "p", None, {"v": b"x" * 1000}, stamp(1.0))
        assert update.size_bytes() >= 1000
        assert DeleteRow("t", "p", None, stamp(1.0)).size_bytes() > 0
