"""Read replies share the replicas' stored state; nothing can leak back.

A whole-partition ``store_read`` reply hands out the replica's published
live-row view itself (no copy of the dict, none of its rows), which is
safe only because both are read-only: the view has no mutators and a
write publishes a new one instead of changing it, and stored rows are
frozen — a write replaces the row, and the mutators raise on a frozen
one.  A merged (QUORUM/ALL) reply is built for its caller, who owns the
dict but still not the rows.  These tests try every way a holder could
change what it was given — a reply at ONE, a quorum merge,
``_merge_replies`` over agreeing and over diverged replicas, the lock
store's queue entries (frozen, since a decoded head is shared) — and
check that neither the replicas' stored state nor what a second reader
sees moves, and that a later write never reaches back into a reply
already handed out.
"""

from dataclasses import FrozenInstanceError

import pytest

from repro.lockstore import LockStore
from repro.lockstore.lockstore import LOCK_TABLE
from repro.store import Consistency
from repro.store.types import Row, Update

from tests.helpers import make_store, run

LATE = (9e9, "intruder")


def try_to_change(row):
    """Every way the Row API offers to change a row; True if one took."""
    changed = False
    other = Row()
    other.apply_cell("value", "intruder", LATE)
    other.delete((8e9, "intruder"))
    for attempt in (
        lambda: row.apply_cell("value", "intruder", LATE),
        lambda: row.delete(LATE),
        lambda: row.merge_from(other),
    ):
        try:
            attempt()
        except TypeError:
            continue
        changed = True
    return changed


def content(rows):
    """A deep, comparison-only image of a {clustering: Row} reply."""
    return {
        clustering: (
            {name: (cell.value, cell.stamp) for name, cell in row.cells.items()},
            row.tombstone,
        )
        for clustering, row in rows.items()
    }


def stored_state(cluster):
    return {replica.node_id: replica.engine.snapshot() for replica in cluster.replicas}


def seeded_store():
    sim, _net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)

    def fill():
        for clustering in (1, 2, 3):
            yield from coord.put(
                "t", "p", clustering, {"value": clustering}, (1.0, "w"),
                consistency=Consistency.ALL,
            )
        yield from coord.delete_row("t", "p", 2, (2.0, "w"), consistency=Consistency.ALL)

    run(sim, fill())
    return sim, cluster, coord


def read(sim, coord, consistency):
    return run(sim, coord.get("t", "p", consistency=consistency))


def test_a_reply_row_cannot_be_changed_at_any_consistency():
    sim, cluster, coord = seeded_store()
    before = stored_state(cluster)
    for consistency in (Consistency.ONE, Consistency.QUORUM, Consistency.ALL):
        rows = read(sim, coord, consistency)
        assert list(rows) == [1, 3]
        image = content(rows)
        for row in rows.values():
            # Replicas agree, so even a merged reply is the stored rows.
            assert not try_to_change(row)
        assert content(rows) == image
        assert stored_state(cluster) == before
        assert content(read(sim, coord, consistency)) == image


def test_a_reply_at_one_is_read_only_and_a_merged_one_is_the_readers_own():
    sim, cluster, coord = seeded_store()
    before = stored_state(cluster)
    rows = read(sim, coord, Consistency.ONE)
    # The replica's published view itself: it has no mutators at all.
    with pytest.raises(AttributeError):
        rows.clear()
    with pytest.raises(TypeError):
        rows["bogus"] = Row()
    with pytest.raises(TypeError):
        del rows[1]
    assert list(rows) == [1, 3]
    assert list(read(sim, coord, Consistency.ONE)) == [1, 3]
    assert stored_state(cluster) == before

    # A quorum reply is a merge built for this caller: a dict it owns.
    merged = read(sim, coord, Consistency.QUORUM)
    assert type(merged) is dict
    merged.clear()
    merged["bogus"] = Row()
    assert list(read(sim, coord, Consistency.QUORUM)) == [1, 3]
    assert list(read(sim, coord, Consistency.ONE)) == [1, 3]
    assert stored_state(cluster) == before


def test_merging_diverged_replies_copies_instead_of_touching_them():
    sim, cluster, coord = seeded_store()
    ohio, california, oregon = cluster.replicas
    # Diverge: one replica has a newer value, another an extra column.
    california.apply_update(Update("t", "p", 1, {"value": "newer"}, (5.0, "w")))
    oregon.apply_update(Update("t", "p", 3, {"extra": True}, (6.0, "w")))
    before = stored_state(cluster)
    replies = [
        (replica.node_id, {"rows": replica.local_rows("t", "p"), "tombstones": {}})
        for replica in cluster.replicas
    ]
    images = [content(reply["rows"]) for _dst, reply in replies]

    merged = coord._merge_replies(replies, "t", "p")
    assert list(merged) == [1, 3]
    assert merged[1].visible_values() == {"value": "newer"}
    assert merged[3].visible_values() == {"value": 3, "extra": True}
    assert [content(reply["rows"]) for _dst, reply in replies] == images
    assert stored_state(cluster) == before

    # The merged rows belong to the caller or are frozen; either way a
    # change stays out of the replicas and out of the replies.
    for row in merged.values():
        try_to_change(row)
    assert [content(reply["rows"]) for _dst, reply in replies] == images
    assert stored_state(cluster) == before
    second = coord._merge_replies(
        [
            (replica.node_id, {"rows": replica.local_rows("t", "p"), "tombstones": {}})
            for replica in cluster.replicas
        ],
        "t", "p",
    )
    assert second[1].visible_values() == {"value": "newer"}
    assert second[3].visible_values() == {"value": 3, "extra": True}
    assert ohio.local_row("t", "p", 1).visible_values() == {"value": 1}


def test_a_later_write_never_changes_a_reply_already_handed_out():
    sim, cluster, coord = seeded_store()
    one = read(sim, coord, Consistency.ONE)
    quorum = read(sim, coord, Consistency.QUORUM)
    images = content(one), content(quorum)

    def overwrite():
        yield from coord.put("t", "p", 1, {"value": "later", "extra": True}, (7.0, "w"),
                             consistency=Consistency.ALL)
        yield from coord.delete_row("t", "p", 3, (7.0, "w"), consistency=Consistency.ALL)
        yield from coord.put("t", "p", 2, {"value": "back"}, (8.0, "w"),
                             consistency=Consistency.ALL)

    run(sim, overwrite())
    assert (content(one), content(quorum)) == images
    now = read(sim, coord, Consistency.ONE)
    assert list(now) == [1, 2]
    assert now[1].visible_values() == {"value": "later", "extra": True}


def test_lock_queue_entries_are_detached_from_the_store():
    sim, _net, cluster, (host,) = make_store()
    lockstore = LockStore(cluster.coordinator_for(host), host.clock)

    def mint():
        for _ in range(3):
            yield from lockstore.generate_and_enqueue("k")
        yield sim.timeout(200.0)

    run(sim, mint())
    before = stored_state(cluster)
    entries = run(sim, lockstore.queue("k"))
    assert [entry.lock_ref for entry in entries] == [1, 2, 3]
    for entry in entries:
        for field, value in (("lock_ref", -1), ("enqueued_at", -1.0), ("start_time", -1.0)):
            with pytest.raises(FrozenInstanceError):
                setattr(entry, field, value)
    assert stored_state(cluster) == before
    again = run(sim, lockstore.queue("k"))
    assert [entry.lock_ref for entry in again] == [1, 2, 3]
    assert all(entry.start_time is None for entry in again)
    # The rows under the queue are the stored ones, and frozen.
    rows = run(sim, cluster.coordinator_for(host).get(
        LOCK_TABLE, "k", consistency=Consistency.LOCAL_ONE
    ))
    assert not any(try_to_change(row) for row in rows.values())
    assert stored_state(cluster) == before
