"""Three-round LWTs: the promise carries the read.

With ``read_in_promise`` (the lock store's hot path) each promise
carries its acceptor's rows and tombstones, their merge is the LWT's
read, and no read round is sent.  The promise quorum is a linearizable
read only if its promisers agree on the newest commit, so a promiser
that missed it is sent the commit, and acknowledges it, before the
proposal goes out.

Three-round and four-round LWTs retry by one rule: an attempt that
lost a ballot, or finished a rival's round instead of its own, backs off
before it prepares again.
"""

import pytest

from repro.core import MusicConfig, build_music
from repro.errors import QuorumUnavailable
from repro.net import REPLY_KIND
from repro.store import Condition
from repro.store.paxos import no_accept_read
from repro.store.types import Update

from tests.helpers import make_store, run
from tests.obs.test_recovered_release import _audited_run


def _kinds_sent(read_in_promise):
    sim, net, cluster, (host,) = make_store()
    coordinator = cluster.coordinator_for(host)
    sent = []
    net.add_tap(lambda message: sent.append(message.kind))
    update = Update("t", "p", "g", {"v": 1}, (0.0, host.node_id))
    result = run(sim, coordinator.cas(
        "t", "p", Condition("not_exists", "g"), [update],
        stamp_with_ballot=True, read_in_promise=read_in_promise,
    ))
    assert result.applied
    sim.run(until=sim.now + 1_000.0)
    return sorted(kind for kind in sent if kind != REPLY_KIND)


def test_an_uncontended_three_round_lwt_sends_no_read_round():
    rounds = ["paxos_commit"] * 3 + ["paxos_prepare"] * 3 + ["paxos_propose"] * 3
    assert _kinds_sent(read_in_promise=no_accept_read) == rounds
    assert _kinds_sent(read_in_promise=None) == sorted(rounds + ["store_read"] * 3)


@pytest.mark.parametrize("fast_locks", [False, True])
def test_only_the_polling_path_traces_a_paxos_read(fast_locks):
    music = build_music(seed=3, obs=True, music_config=MusicConfig(fast_locks=fast_locks))
    client = music.client("Ohio")

    def section():
        section = yield from client.critical_section("k")
        yield from section.put(1)
        yield from section.exit()

    run(music.sim, section())
    spans = music.obs.tracer.spans
    lwts = [span for span in spans if span.name == "store.cas"]
    reads = [span for span in spans if span.name == "paxos.read"]
    # The mint and the release; the hot path's release is a quorum delete.
    assert len(lwts) == (1 if fast_locks else 2)
    assert len(reads) == (0 if fast_locks else 2)


def test_a_promiser_that_missed_the_newest_commit_is_repaired_before_the_proposal():
    """``M1`` is accepted by N.California and Ohio but committed only to
    Ohio.  With Oregon cut off, an LWT's promise quorum is those two; it
    must commit ``M1`` to N.California before proposing, or N.California
    loses ``M1`` to the LWT's commit (which clears its accepted
    proposal) and a later promise quorum without Ohio reads a row
    without it."""
    sim, net, cluster, (ohio_host, oregon_host) = make_store(host_sites=("Ohio", "Oregon"))
    by_site = {replica.site: replica for replica in cluster.replicas}
    ohio, california = by_site["Ohio"], by_site["N.California"]
    m1 = [Update("t", "p", "x", {"v": 1}, (1.0, "m1"), op_id="m1#1")]
    target = {"table": "t", "partition": "p", "ballot": (1, "m1")}
    to_california = []
    net.add_tap(
        lambda message: to_california.append(message.kind)
        if message.dst == california.node_id else None
    )

    def first_lwt_half_committed():
        for replica in (ohio, california):
            yield from ohio_host.call(replica.node_id, "paxos_prepare", target)
            yield from ohio_host.call(replica.node_id, "paxos_propose", dict(target, mutation=m1))
        yield from ohio_host.call(ohio.node_id, "paxos_commit", dict(target, mutation=m1))

    run(sim, first_lwt_half_committed())
    assert california.local_row("t", "p", "x") is None
    del to_california[:]

    def cas(coordinator, condition, columns):
        update = Update("t", "p", "x", columns, (0.0, "w"))
        return (yield from coordinator.cas(
            "t", "p", condition, [update], stamp_with_ballot=True,
            read_in_promise=no_accept_read,
        ))

    net.isolate_site("Oregon")
    ohio_coordinator = cluster.coordinator_for(ohio_host)
    second = run(sim, cas(ohio_coordinator, Condition("exists", "x"), {"w": 2}))
    assert second.applied
    assert ohio_coordinator.counters["commit_repairs"] == 1
    # The repair commit reached N.California before the proposal did.
    assert to_california == ["paxos_prepare", "paxos_commit", "paxos_propose", "paxos_commit"]
    assert california.local_row("t", "p", "x").visible_values() == {"v": 1, "w": 2}

    # A read on the three-round path from a quorum without Ohio sees M1.
    net.heal_all()
    net.isolate_site("Ohio")
    third = run(sim, cas(
        cluster.coordinator_for(oregon_host), Condition("col_eq", "x", "v", 1), {"w": 3},
    ))
    assert third.applied, third.current


@pytest.mark.parametrize("fast_locks", [False, True])
def test_a_contended_run_audits_clean_on_either_lwt(fast_locks):
    music, finished = _audited_run(seed=2, fast_locks=fast_locks)
    assert finished == 6
    assert music.auditor.clean, music.auditor.render_report()
    repairs = sum(replica.coordinator.counters["commit_repairs"] for replica in music.replicas)
    # Under contention the three-round path repairs lagging promisers;
    # the four-round path never does.
    assert (repairs > 0) == fast_locks


def _cas(coordinator, row, read_in_promise=no_accept_read, on_recovered=None):
    update = Update("t", "p", row, {"v": 1}, (0.0, row), op_id=f"{row}#1")
    return coordinator.cas(
        "t", "p", Condition("not_exists", row), [update], stamp_with_ballot=True,
        on_recovered=on_recovered, read_in_promise=read_in_promise,
    )


def _rival_accepted_everywhere(sim, host, cluster):
    """Every acceptor accepted the rival mutation ``r`` at ballot (20, r)."""
    rival = [Update("t", "p", "r", {"v": 1}, (10.0, "r"), op_id="r#1")]

    def rounds():
        for replica in cluster.replicas:
            for ballot, kind in (((20, "r"), "paxos_prepare"), ((20, "r"), "paxos_propose")):
                body = {"table": "t", "partition": "p", "ballot": ballot, "mutation": rival}
                yield from host.call(replica.node_id, kind, body)

    run(sim, rounds())


@pytest.mark.parametrize("read_in_promise", [False, True])
def test_finishing_a_rivals_round_counts_one_ballot_loss_on_either_path(read_in_promise):
    sim, net, cluster, (host,) = make_store()
    _rival_accepted_everywhere(sim, host, cluster)
    coordinator = cluster.coordinator_for(host)
    recovered = []
    reads = no_accept_read if read_in_promise else None
    result = run(sim, _cas(coordinator, "x", reads, recovered.append))
    assert result.applied and len(recovered) == 1
    # Either path backs off once after the recovery, as after a lost ballot.
    assert coordinator.counters["ballot_losses"] == 1


def _read_at_accept(fail_remote=False):
    """A three-round CAS from Ohio on lUs whose promise read asks the
    accept round for table ``d`` (same partition key): returns the
    result, how long it took, and the coordinator.  With
    ``fail_remote`` both remote replicas stop answering once they have
    accepted, so only Ohio's acknowledges the commit."""
    sim, net, cluster, (host,) = make_store()
    coordinator = cluster.coordinator_for(host)
    replicas = coordinator.replicas("p")
    here = next(node for node in replicas if net.site_of(node) == "Ohio")
    run(sim, coordinator.put("d", "p", "row", {"v": "x"}, (1.0, "w")))
    asked = []

    def accept_read(partition, rows):
        asked.append(sorted(rows))
        return "d"

    if fail_remote:
        def after_the_accepts(message):
            if message.kind == "paxos_commit":
                for node in replicas:
                    if node != here:
                        net.fail_node(node)

        net.add_tap(after_the_accepts)
    update = Update("t", "p", "g", {"v": 1}, (0.0, host.node_id))
    started = sim.now
    result = run(sim, coordinator.cas(
        "t", "p", Condition("not_exists", "g"), [update],
        stamp_with_ballot=True, read_in_promise=accept_read,
    ))
    took = sim.now - started
    sim.run(until=sim.now + 5_000.0)
    assert asked == [[]]
    return result, took, coordinator, sim


def test_an_accept_round_read_returns_the_rows_at_the_local_commit():
    """The accept replies carry table ``d``'s rows, merged into
    ``CasResult.read``; the CAS returns at the local replica's commit
    ack, two WAN rounds in (Ohio's quorum partner, N.California, is a
    53.79 ms round trip), not three."""
    result, took, coordinator, _sim = _read_at_accept()
    assert result.applied
    rows, _sent = result.read
    assert rows["row"].visible_values() == {"v": "x"}
    assert 2 * 53.79 < took < 3 * 53.79
    assert coordinator.counters["unacked_returns"] == 0


def test_a_commit_no_quorum_acknowledges_after_the_return_is_counted():
    """The remote replicas fail once the commit is sent: the CAS has
    returned at the local ack, and the quorum's failure, a timeout
    later, is observed and counted, not left unhandled."""
    result, _took, coordinator, sim = _read_at_accept(fail_remote=True)
    assert result.applied and result.read is not None
    assert coordinator.counters["unacked_returns"] == 1
    assert sim.swallowed_failures == 0


def test_an_accept_round_read_mid_transition_waits_for_the_pending_owner():
    """While the ring moves the partition, the commit must also reach its
    pending owner (the window between the handover snapshot and the
    flip): the CAS does not return at the local ack then.  With the
    pending owner and one old owner down, only two of the three acks it
    needs come, and it fails instead of returning applied."""
    sim, net, cluster, (host,) = make_store(nodes_per_site=2)
    coordinator = cluster.coordinator_for(host)
    ring = coordinator.ring
    old = coordinator.replicas("p")
    ring.begin_transition()
    leaving = next(node for node in old if net.site_of(node) == "Oregon")
    ring.remove_node(leaving)
    (pending,) = ring.pending_owners("p", len(old))
    net.fail_node(pending)
    net.fail_node(leaving)
    update = Update("t", "p", "g", {"v": 1}, (0.0, host.node_id))
    with pytest.raises(QuorumUnavailable):
        run(sim, coordinator.cas(
            "t", "p", Condition("not_exists", "g"), [update],
            stamp_with_ballot=True, read_in_promise=lambda partition, rows: "d",
        ))
