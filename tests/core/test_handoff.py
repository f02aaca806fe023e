"""The hand-off (DESIGN.md §7): on the hot path a clean release writes
the value its holder last acknowledged to the lock partition, in the
same quorum batch as its row delete, and the successor's first
criticalGet serves it from its guard's local read instead of a quorum
read.  A section granted by a quorum read serves that read's value
instead: the hand-off's second source.  Past the serve itself and where
it is written, each test sets up one hazard the serve rules (DESIGN.md
§8) exist for and checks that the get falls back to the quorum read
there and still reads the true value, with a clean audit; the last
checks how a serve is observed.
"""

import pytest

from repro import MusicConfig, build_music
from repro.errors import QuorumUnavailable
from repro.lockstore.lockstore import HANDOFF_ROW, LOCK_TABLE
from repro.obs import extract_critpaths
from repro.obs.__main__ import _span_hit_ratios
from repro.obs.critpath import ROOT_SPAN
from repro.store import Consistency
from repro.store.types import Update

from tests.helpers import run


def hits(music, *sources):
    """Gets the hand-off served, from ``sources`` ("grant", "row"; default both)."""
    return sum(
        replica.counters["handoff_hits"][source]
        for replica in music.replicas for source in sources or ("grant", "row")
    )


def handoff_row(music, key="k"):
    """``(released ref, handed)`` of the hand-off row, read at quorum."""
    coordinator = music.replicas[0].coordinator

    def read():
        rows = yield from coordinator.get(LOCK_TABLE, key, HANDOFF_ROW, Consistency.QUORUM)
        cell = rows[HANDOFF_ROW].visible_cells()["value"]
        return int(cell.stamp[0]), cell.value

    return run(music.sim, read())


def section(client, *ops, key="k"):
    """One critical section on ``key`` running ``ops`` in order: "get",
    or a value to put.  Returns what the gets read."""
    reads = []
    cs = yield from client.critical_section(key)
    for op in ops:
        if op == "get":
            reads.append((yield from cs.get()))
        else:
            yield from cs.put(op)
    yield from cs.exit()
    return reads


def assert_clean(music):
    assert music.auditor.clean, music.auditor.render_report()


def test_a_successor_serves_its_predecessors_value():
    """The hot path: the second section's get is served by the first
    section's hand-off, at no quorum read."""
    music = build_music(audit=True)
    client = music.client("Ohio")
    run(music.sim, section(client, "get", "A"))
    assert handoff_row(music)[1][0] == "A"
    before = hits(music)
    assert run(music.sim, section(client, "get", "B")) == ["A"]
    assert hits(music) == before + 1 == hits(music, "row") + 1
    assert_clean(music)


@pytest.mark.parametrize("config", [
    MusicConfig(), MusicConfig(read_leases=True), MusicConfig(fast_locks=False),
], ids=["hot-path", "read-leases", "polling"])
def test_only_the_hot_path_writes_the_row(config):
    """The hot path writes the row with leases on or off; the paper's
    polling protocol never does.  On the hot path the first section's
    get serves its grant's read — under the lease window that read
    anchored, with leases on — and the second's the row."""
    music = build_music(music_config=config, audit=True)
    client = music.client("Ohio")
    for value in ("A", "B"):
        run(music.sim, section(client, "get", value))
    rows = run(music.sim, music.replicas[0].coordinator.get(
        LOCK_TABLE, "k", HANDOFF_ROW, Consistency.QUORUM
    ))
    assert (HANDOFF_ROW in rows) == config.fast_locks
    leased = sum(replica.counters["lease_hits"] for replica in music.replicas)
    assert (hits(music, "grant"), leased) == (
        (0, 1) if config.read_leases else (int(config.fast_locks), 0)
    )
    assert hits(music, "row") == int(config.fast_locks)
    assert_clean(music)


def test_a_get_after_the_sections_own_put_reads_the_quorum():
    """Rule (e): once the section has written, the hand-off is older
    than the true value."""
    music = build_music(audit=True)
    client = music.client("Ohio")
    run(music.sim, section(client, "get", "A"))
    before = hits(music)
    assert run(music.sim, section(client, "B", "get")) == ["B"]
    assert hits(music) == before
    assert_clean(music)


def retried_op_scenario(music):
    """A section whose get needed a second attempt, then put "B", and
    its successor's get: returns what that get read and how many gets
    the hand-off row served meanwhile."""
    client = music.client("Ohio")
    run(music.sim, section(client, "get", "A"))
    named = handoff_row(music)
    home = client.replicas[0]
    critical_get = home.critical_get
    failed = []

    def flaky_get(key, lock_ref, min_stamp=None):
        if not failed:
            failed.append(lock_ref)
            raise QuorumUnavailable("injected: the first attempt is lost")
        return critical_get(key, lock_ref, min_stamp)

    home.critical_get = flaky_get
    run(music.sim, section(client, "get", "B"))
    assert failed
    assert handoff_row(music) == named
    before = hits(music, "row")
    (read,) = run(music.sim, section(client, "get", "C"))
    return read, hits(music, "row") - before


def test_a_predecessor_with_a_retried_op_writes_no_row():
    """An op that needed a second attempt may have landed twice, or
    late: what its section holds is unknown, so its release writes no
    row, and the successor, whose row names a lower ref (rule (b)),
    takes the flag read at its grant and serves that, not the row."""
    music = build_music(audit=True)
    assert retried_op_scenario(music) == ("B", 0)
    assert_clean(music)


def test_a_forced_predecessor_hands_nothing_on():
    """A preempted holder's successor synchronizes at its grant, so its
    replica does not serve the hand-off (rule (d)), which names an older
    section than the synchronized value."""
    music = build_music(audit=True)
    client = music.client("Ohio")
    replica = music.replica_at("Ohio")
    run(music.sim, section(client, "get", "A"))

    def preempted():
        ref = yield from client.create_lock_ref("k")
        assert (yield from client.acquire_lock_blocking("k", ref))
        yield from client.critical_put("k", ref, "B")
        yield from replica.forced_release("k", ref)  # ...and never releases

    run(music.sim, preempted())
    before = hits(music), replica.counters["syncs"]
    assert run(music.sim, section(client, "get", "C")) == ["B"]
    assert hits(music) == before[0]
    assert replica.counters["syncs"] == before[1] + 1
    assert_clean(music)


def test_a_mid_queue_leaver_writes_no_row():
    """A waiter that leaves before its grant writes no row, so the next
    holder finds the row naming a ref below its predecessor (rule (b))."""
    music = build_music(audit=True)
    sim = music.sim
    holder, leaver, waiter = (music.client("Ohio") for _ in range(3))
    run(sim, section(holder, "get", "A"))

    def scenario():
        cs = yield from holder.critical_section("k")
        value = yield from cs.get()
        yield from cs.put(value + "B")
        left = yield from leaver.create_lock_ref("k")
        last = yield from waiter.create_lock_ref("k")
        yield from leaver.release_lock("k", left)
        yield from cs.exit()
        assert (yield from waiter.acquire_lock_blocking("k", last))
        return cs.lock_ref, left, last

    before = hits(music, "row")
    held, left, last = run(sim, scenario())
    assert held < left < last
    assert handoff_row(music)[0] == held
    read = run(sim, waiter.critical_get("k", last))
    run(sim, waiter.release_lock("k", last))
    assert read == "AB"
    assert hits(music, "row") == before + 1  # the holder's own get, not the waiter's
    assert_clean(music)


@pytest.mark.parametrize("read_leases", [False, True], ids=["leases-off", "leases-on"])
def test_a_mid_queue_leaver_leaves_the_holders_entry(read_leases):
    """A waiter at the holder's replica that leaves from behind the head
    drops its own mirror entry only: the holder's get is still served
    locally, by the hand-off or under its lease window."""
    music = build_music(audit=True, music_config=MusicConfig(read_leases=read_leases))
    sim = music.sim
    holder, leaver = music.client("Ohio"), music.client("Ohio")
    run(sim, section(holder, "get", "A"))

    def served():
        return hits(music) + sum(replica.counters["lease_hits"] for replica in music.replicas)

    def scenario():
        cs = yield from holder.critical_section("k")
        left = yield from leaver.create_lock_ref("k")
        yield from leaver.release_lock("k", left)
        before = served()
        value = yield from cs.get()
        yield from cs.exit()
        return value, served() - before

    assert run(sim, scenario()) == ("A", 1)
    assert_clean(music)


def test_a_holder_that_did_no_op_writes_no_row():
    """A section without an op leaves the row naming the section before
    it, so its successor takes the flag read at its grant and serves
    that, not the row."""
    music = build_music(audit=True)
    client = music.client("Ohio")
    run(music.sim, section(client, "get", "A"))
    named = handoff_row(music)
    run(music.sim, section(client))
    assert handoff_row(music) == named
    before = hits(music, "row")
    assert run(music.sim, section(client, "get", "B")) == ["A"]
    assert hits(music, "row") == before
    assert_clean(music)


def missed_mints_scenario(music, held):
    """A store replica misses the mints of two lockRefs — unless
    ``held``, the whole section of the first too: its write and its
    release — and the second mint's commit reaches it late: its local
    queue shows the second ref at the head and nothing of the first (the
    gap the fault sweep found; with the first section over, the shape
    the elastic crash test found).  Returns the second ref and the
    Oregon client that minted the first."""
    sim, network = music.sim, music.network
    ohio, oregon = music.client("Ohio"), music.client("Oregon")
    local = music.replica_at("Ohio")
    ohio_store = next(
        node for node in local.coordinator.replicas("k") if network.site_of(node) == "Ohio"
    )
    run(sim, section(ohio, "get", "OLD"))
    network.fail_node(ohio_store)
    if held:
        first = run(sim, oregon.create_lock_ref("k"))
        assert run(sim, oregon.acquire_lock_blocking("k", first))
    else:
        run(sim, section(oregon, "get", "NEW"))
    ref = run(sim, music.replica_at("Oregon").create_lock_ref("k"))
    network.recover_node(ohio_store)
    # The mint's commit, delivered late: its rows as a peer holds them.
    peer = music.replica_at("Oregon").coordinator.replicas("k")[0]
    rows = music.store.by_id[peer].local_rows(LOCK_TABLE, "k")
    for clustering in ("guard", ref):
        for column, cell in rows[clustering].visible_cells().items():
            music.store.by_id[ohio_store].apply_update(
                Update(LOCK_TABLE, "k", clustering, {column: cell.value}, cell.stamp)
            )
    here = music.store.by_id[ohio_store].engine.read(LOCK_TABLE, "k")
    assert min(r for r in here[0] if isinstance(r, int)) == ref and ref - 1 not in here[1]
    return ref, oregon


def test_a_replica_that_missed_a_section_reads_the_head_at_quorum():
    """The local read shows no tombstone for the section it missed,
    between the ref its hand-off row names and its head: a gap (DESIGN.md
    §7), so the head is read at quorum, whose row names the ref below
    the head (rule (b)) and serves the get."""
    music = build_music(audit=True)
    ref, _oregon = missed_mints_scenario(music, held=False)
    ohio, local = music.client("Ohio"), music.replica_at("Ohio")

    def successor():
        head = yield from local.lock_store.head("k")
        assert head[0].lock_ref == ref and head[3][0] == ref - 1, head
        assert (yield from ohio.acquire_lock_blocking("k", ref))
        before = hits(music)
        value = yield from ohio.critical_get("k", ref)
        yield from ohio.release_lock("k", ref)
        return value, hits(music) - before

    assert run(music.sim, successor()) == ("NEW", 1)
    assert_clean(music)


@pytest.mark.parametrize("read_leases", [False, True], ids=["leases-off", "leases-on"])
def test_a_replica_that_missed_a_queued_mint_grants_nothing_past_it(read_leases):
    """The first ref is still held at Oregon: the replica's local head
    is the second, and granting it would make two holders.  The gap
    sends the acquire's head read to the quorum, which shows the first."""
    music = build_music(audit=True, music_config=MusicConfig(read_leases=read_leases))
    ref, oregon = missed_mints_scenario(music, held=True)
    ohio, local = music.client("Ohio"), music.replica_at("Ohio")

    def successor():
        assert not (yield from local.acquire_lock("k", ref))
        yield from oregon.release_lock("k", ref - 1)
        assert (yield from ohio.acquire_lock_blocking("k", ref))
        value = yield from ohio.critical_get("k", ref)
        yield from ohio.release_lock("k", ref)
        return value

    assert run(music.sim, successor()) == "OLD"
    assert_clean(music)


def test_a_served_get_is_a_local_read_span_in_the_critical_path():
    """A served get is a ``music.criticalGet`` span marked ``handoff`` and
    its ``source``, which the critical path attributes to
    ``op.local_read``; the music tally counts it per source, and so does
    ``explain``'s span-derived hit rate."""
    music = build_music(obs=True)
    client = music.client("Ohio")
    tracer = music.obs.tracer

    def traced():
        for value in ("A", "B"):
            with tracer.span(ROOT_SPAN, node=client.client_id, site=client.site):
                yield from section(client, "get", value)

    run(music.sim, traced())
    gets = [span for span in tracer.spans if span.name == "music.criticalGet"]
    assert [span.attrs.get("handoff") for span in gets] == [True, True]
    assert [span.attrs.get("source") for span in gets] == ["grant", "row"]
    for path in extract_critpaths(tracer.spans):
        assert path.phase_totals().get("op.local_read", 0.0) > 0.0
    registry = music.obs.metrics
    assert registry.total("music.handoff.hits", source="grant") == 1
    assert registry.total("music.handoff.hits", source="row") == 1
    assert registry.total("music.handoff.misses") == 0
    ratios = _span_hit_ratios(tracer.spans)
    assert "hand-off served (grant read) criticalGets: 1/2 (50.0%)" in ratios
    assert "hand-off served (row) criticalGets: 1/2 (50.0%)" in ratios
