"""The engine's live-row index equals the filtered partition, always.

``StorageEngine.live_rows`` answers "the rows of this partition for
which ``row.live`` holds" from an index kept beside the memtable, so a
read does not walk the tombstones a lock partition accumulates.  The
property: after any interleaving of the operations that change stored
rows, the answer is exactly what filtering ``partition_view`` gives —
same keys, same rows, *same iteration order* (replies are built by
iterating it, and reply order feeds merge order feeds timings) — and
``live_bytes``, the whole-partition reply size memoised beside it, is
the summed ``payload_bytes()`` of those rows.

The index is published copy-on-write: every view ``live_rows`` ever
returned still shows what it showed then, and a partition nobody wrote
is answered with the very same view object — which is what lets a
reader keep a decode of it (``LockStore.head``).
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Simulator
from repro.storage import StorageEngine, StorageEngineConfig
from repro.store.types import DeleteRow, Row, Update

from tests.helpers import commit, run

PARTITIONS = ("p", "q")

clusterings = st.integers(min_value=0, max_value=4)
stamps = st.integers(min_value=0, max_value=6)
partitions = st.sampled_from(PARTITIONS)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("update"), partitions, clusterings,
                  st.sampled_from(["c1", "c2"]), stamps),
        st.tuples(st.just("delete"), partitions, clusterings, stamps),
        # An anti-entropy merge of a peer's view of one row: some cells,
        # maybe a tombstone (a dead peer row can kill a live local one).
        st.tuples(st.just("merge"), partitions, clusterings, stamps,
                  st.one_of(st.none(), stamps)),
        st.tuples(st.just("flush")),
        st.tuples(st.just("compact")),
        st.tuples(st.just("restart")),
        st.tuples(st.just("drop"), partitions),
    ),
    min_size=1,
    max_size=40,
)


@contextmanager
def make_engine(flush_bytes=1 << 30):
    """A fresh engine that flushes its memtable at ``flush_bytes`` and
    compacts two segments, while the block runs (a per-example patch:
    hypothesis cannot take the function-scoped ``monkeypatch`` fixture)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StorageEngineConfig, "memtable_flush_bytes", flush_bytes)
        patch.setattr(StorageEngineConfig, "compaction_min_segments", 2)
        sim = Simulator()
        yield sim, StorageEngine(sim, StorageEngineConfig(wal_sync="always"), node_id="idx")


def apply_op(sim, engine, index, op):
    kind = op[0]
    if kind == "update":
        _, pk, ck, column, ts = op
        stamp = (float(ts), f"w{index}")
        commit(sim, engine, [Update("t", pk, ck, {column: index}, stamp)])
    elif kind == "delete":
        _, pk, ck, ts = op
        commit(sim, engine, [DeleteRow("t", pk, ck, (float(ts), f"w{index}"))])
    elif kind == "merge":
        _, pk, ck, ts, tombstone = op
        theirs = Row()
        theirs.apply_cell("c1", f"peer{index}", (float(ts), "peer"))
        if tombstone is not None:
            theirs.delete((float(tombstone), "peer"))
        run(sim, engine.merge_rows("t", pk, {ck: theirs}))
    elif kind == "flush":
        engine.flush()
    elif kind == "compact":
        sim.run()  # lets a pending compaction daemon finish its merge
    elif kind == "restart":
        engine.crash()
        run(sim, engine.recover())
    elif kind == "drop":
        run(sim, engine.drop_partition(op[1]))


def assert_index_matches(engine):
    for pk in PARTITIONS:
        expected = [
            (clustering, row)
            for clustering, row in engine.partition_view("t", pk).items()
            if row.live
        ]
        assert list(engine.live_rows("t", pk).items()) == expected
        # The memoised reply size is the sum it stands for — asked after
        # every operation, so a change that misses an invalidation shows.
        assert engine.live_bytes("t", pk) == sum(row.payload_bytes() for _, row in expected)


def from_index(engine, pk):
    """True if ``live_rows`` serves ``pk`` from the index (no segment
    holds part of it, so no merged view has to be built)."""
    return not any(pk in segment.tables.get("t", ()) for segment in engine.segments)


@settings(max_examples=150, deadline=None)
@given(sequence=ops, flush_bytes=st.sampled_from([1 << 30, 300, 60]))
def test_live_rows_equal_the_filtered_partition_in_order(sequence, flush_bytes):
    with make_engine(flush_bytes) as (sim, engine):
        handed_out = []  # (view, its image when it was returned)
        indexed = {}  # pk -> the view the index served after the last op
        for index, op in enumerate(sequence):
            apply_op(sim, engine, index, op)
            assert_index_matches(engine)
            for pk in PARTITIONS:
                view = engine.live_rows("t", pk)
                handed_out.append((view, list(view.items())))
                if not from_index(engine, pk):
                    indexed.pop(pk, None)
                    continue
                # One version, one object: a second read returns the first,
                # and so does a read after a write to the other partition.
                assert engine.live_rows("t", pk) is view
                if pk in indexed and op[0] in ("update", "delete", "merge", "drop") and op[1] != pk:
                    assert view is indexed[pk]
                indexed[pk] = view
            # Copy-on-write: no later operation reaches into a view already
            # handed out.
            for view, image in handed_out:
                assert list(view.items()) == image


def test_a_rewritten_row_re_enters_at_its_original_position():
    with make_engine() as (sim, engine):
        for ck in (1, 2, 3):
            commit(sim, engine, [Update("t", "p", ck, {"c": ck}, (1.0, "w"))])
        commit(sim, engine, [DeleteRow("t", "p", 2, (2.0, "w"))])
        assert list(engine.live_rows("t", "p")) == [1, 3]
        commit(sim, engine, [Update("t", "p", 2, {"c": "again"}, (3.0, "w"))])
        assert list(engine.partition_view("t", "p")) == [1, 2, 3]
        assert list(engine.live_rows("t", "p")) == [1, 2, 3]


def test_stored_rows_are_replaced_not_mutated():
    with make_engine() as (sim, engine):
        commit(sim, engine, [Update("t", "p", 1, {"c": "old"}, (1.0, "w"))])
        before = engine.live_rows("t", "p")[1]
        commit(sim, engine, [Update("t", "p", 1, {"c": "new"}, (2.0, "w"))])
        after = engine.live_rows("t", "p")[1]
        assert before is not after
        assert before.visible_values() == {"c": "old"}
        assert after.visible_values() == {"c": "new"}
        commit(sim, engine, [DeleteRow("t", "p", 1, (3.0, "w"))])
        assert after.live and after.tombstone is None
        assert engine.live_rows("t", "p") == {}
        assert not engine.partition_view("t", "p")[1].live
