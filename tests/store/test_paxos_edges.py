"""Direct tests of Paxos acceptor edge cases and coordinator corners."""

import pytest

from repro.errors import QuorumUnavailable
from repro.store import Condition, Consistency
from repro.store.types import Update

from tests.helpers import make_store, run


def get_paxos_state(replica, table="locks", partition="k"):
    return replica.engine.paxos_state(table, partition)


def test_prepare_rejects_stale_ballot():
    sim, _net, cluster, (host,) = make_store()
    replica = cluster.replicas[0]

    def scenario():
        reply = yield from host.call(
            replica.node_id, "paxos_prepare",
            {"table": "locks", "partition": "k", "ballot": (100, "a")},
        )
        assert reply["promised"] is True
        reply = yield from host.call(
            replica.node_id, "paxos_prepare",
            {"table": "locks", "partition": "k", "ballot": (50, "b")},
        )
        return reply

    reply = run(sim, scenario())
    assert reply["promised"] is False
    assert reply["promised_ballot"] == (100, "a")


def test_propose_rejects_below_promised_and_accepts_equal():
    sim, _net, cluster, (host,) = make_store()
    replica = cluster.replicas[0]
    mutation = [Update("locks", "k", "g", {"v": 1}, (1.0, "a"))]

    def scenario():
        yield from host.call(
            replica.node_id, "paxos_prepare",
            {"table": "locks", "partition": "k", "ballot": (100, "a")},
        )
        low = yield from host.call(
            replica.node_id, "paxos_propose",
            {"table": "locks", "partition": "k", "ballot": (99, "b"),
             "mutation": mutation},
        )
        equal = yield from host.call(
            replica.node_id, "paxos_propose",
            {"table": "locks", "partition": "k", "ballot": (100, "a"),
             "mutation": mutation},
        )
        return low, equal

    low, equal = run(sim, scenario())
    assert low["accepted"] is False
    assert equal["accepted"] is True


def test_prepare_reports_in_progress_proposal():
    sim, _net, cluster, (host,) = make_store()
    replica = cluster.replicas[0]
    mutation = [Update("locks", "k", "g", {"v": 1}, (1.0, "a"), op_id="a#1")]

    def scenario():
        yield from host.call(
            replica.node_id, "paxos_propose",
            {"table": "locks", "partition": "k", "ballot": (10, "a"),
             "mutation": mutation},
        )
        reply = yield from host.call(
            replica.node_id, "paxos_prepare",
            {"table": "locks", "partition": "k", "ballot": (11, "b")},
        )
        return reply

    reply = run(sim, scenario())
    ballot, in_progress = reply["in_progress"]
    assert ballot == (10, "a")
    assert in_progress[0].op_id == "a#1"


def test_commit_is_idempotent_per_ballot():
    sim, _net, cluster, (host,) = make_store()
    replica = cluster.replicas[0]
    mutation = [Update("locks", "k", "g", {"v": 7}, (1.0, "a"))]

    def scenario():
        for _ in range(2):
            yield from host.call(
                replica.node_id, "paxos_commit",
                {"table": "locks", "partition": "k", "ballot": (10, "a"),
                 "mutation": mutation},
            )
        row = replica.local_row("locks", "k", "g")
        return row.visible_values(), replica.counters["paxos_commits"]

    values, commits = run(sim, scenario())
    assert values == {"v": 7}
    assert commits == 2  # handled twice, applied once


def test_commit_clears_matching_accepted_state():
    sim, _net, cluster, (host,) = make_store()
    replica = cluster.replicas[0]
    mutation = [Update("locks", "k", "g", {"v": 1}, (1.0, "a"))]

    def scenario():
        yield from host.call(
            replica.node_id, "paxos_propose",
            {"table": "locks", "partition": "k", "ballot": (10, "a"),
             "mutation": mutation},
        )
        assert get_paxos_state(replica).accepted is not None
        yield from host.call(
            replica.node_id, "paxos_commit",
            {"table": "locks", "partition": "k", "ballot": (10, "a"),
             "mutation": mutation},
        )
        return get_paxos_state(replica).accepted

    assert run(sim, scenario()) is None


def test_local_one_read_requires_local_replica():
    """LOCAL_ONE from a site with no replica is an explicit error, on
    every read: the second one finds the placement's target cached."""
    from repro.store import HashRing, StoreConfig, StoreCoordinator

    sim, net, cluster, (host,) = make_store()
    # A ring whose replicas exclude the host's site entirely.
    ring = HashRing(vnodes=4)
    ring.add_node("store-1-0", "N.California")
    ring.add_node("store-2-0", "Oregon")
    config = StoreConfig(replication_factor=2)
    coordinator = StoreCoordinator(host, ring, config)

    def scenario():
        outcomes = []
        for _ in range(2):
            try:
                yield from coordinator.get("t", "k", consistency=Consistency.LOCAL_ONE)
            except QuorumUnavailable:
                outcomes.append("no-local")
            else:
                outcomes.append("ok")
        return outcomes

    assert run(sim, scenario()) == ["no-local", "no-local"]


def test_write_batch_must_share_partition():
    sim, _net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)

    def scenario():
        with pytest.raises(ValueError):
            yield from coord.write(
                [Update("t", "p1", None, {"v": 1}, (1.0, "w")),
                 Update("t", "p2", None, {"v": 2}, (1.0, "w"))],
                Consistency.QUORUM,
            )
        return "checked"

    assert run(sim, scenario()) == "checked"


def test_unknown_consistency_rejected():
    sim, _net, cluster, (host,) = make_store()
    coord = cluster.coordinator_for(host)

    def scenario():
        with pytest.raises(ValueError):
            yield from coord.get("t", "k", consistency="FANCY")
        return "checked"

    assert run(sim, scenario()) == "checked"


def test_prepare_reports_latest_commit_ballot():
    sim, _net, cluster, (host,) = make_store()
    replica = cluster.replicas[0]
    mutation = [Update("locks", "k", "g", {"v": 1}, (1.0, "a"))]

    def scenario():
        first = yield from host.call(
            replica.node_id, "paxos_prepare",
            {"table": "locks", "partition": "k", "ballot": (10, "a")},
        )
        yield from host.call(
            replica.node_id, "paxos_commit",
            {"table": "locks", "partition": "k", "ballot": (10, "a"),
             "mutation": mutation},
        )
        after = yield from host.call(
            replica.node_id, "paxos_prepare",
            {"table": "locks", "partition": "k", "ballot": (11, "b")},
        )
        return first, after

    first, after = run(sim, scenario())
    assert first["latest_commit"] is None
    assert after["latest_commit"] == (10, "a")


def test_coordinator_discards_in_progress_older_than_a_commit():
    """The zombie-proposal hole the runtime ECF auditor caught: a
    partially-accepted proposal that lost its ballot race must not be
    resurrected by its own proposer after a competing CAS committed —
    otherwise two clients can both see applied=True for the same
    conditional insert (two holders of one lockRef).

    Setup: replica 0 holds an orphaned accept at ballot 10 while a
    competing CAS at ballot 20 was committed cluster-wide.  A fresh CAS
    whose condition no longer holds must be rejected, not resurrect the
    ballot-10 leftover.
    """
    sim, _net, cluster, (host,) = make_store()
    coordinator = cluster.coordinator_for(host)
    table, partition = "locks", "k"

    stale = [Update(table, partition, "g", {"v": "stale"}, (1.0, "a"), op_id="a#1")]
    won = [Update(table, partition, "g", {"v": "won"}, (2.0, "b"), op_id="b#1")]

    def scenario():
        # The orphan: accepted at one replica only, never committed.
        yield from host.call(
            cluster.replicas[0].node_id, "paxos_propose",
            {"table": table, "partition": partition, "ballot": (10, "a"),
             "mutation": stale},
        )
        # The competing CAS that won: committed everywhere.
        for replica in cluster.replicas:
            yield from host.call(
                replica.node_id, "paxos_commit",
                {"table": table, "partition": partition, "ballot": (20, "b"),
                 "mutation": won},
            )
        result = yield from coordinator.cas(
            table, partition,
            Condition("col_eq", "g", column="v", expected=None),
            [Update(table, partition, "g", {"v": "late"}, (3.0, "c"), op_id="c#1")],
        )
        row = cluster.replicas[0].local_row(table, partition, "g")
        return result, row.visible_values()

    result, values = run(sim, scenario())
    assert result.applied is False  # condition v==None no longer holds
    assert values == {"v": "won"}  # the stale proposal was NOT resurrected
