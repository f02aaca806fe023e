"""The early grant read (DESIGN.md §8): on the hot path with leases off,
a mint whose decided queue shows no ref below its own starts the
grant's quorum read of the data partition at its decide point, beside
its commit round.  The grant takes that read if its proving head read
shows the same forced epoch; the read's value is what the section's
first get serves.  These tests check where the read sits in a trace,
when it is not started or not taken, and that nothing a replica keeps
for it, or for the serve, outlives the section.
"""

from repro import MusicConfig, build_music
from repro.obs import extract_critpaths
from repro.obs.critpath import ROOT_SPAN

from tests.core.test_handoff import assert_clean, hits, section
from tests.helpers import run


def kept(music, key="k"):
    """The replicas that still keep an early read or a serve source for ``key``."""
    return [
        replica.node_id for replica in music.replicas
        if key in replica._early_reads or key in replica._handed
    ]


def test_the_flag_read_runs_inside_the_mint_and_serves_the_get():
    """Traced, the read is a ``music.grantRead`` span in the section's
    trace that starts inside the mint's CAS and ends before the grant:
    the critical path bills its flag read a local sliver, and the get is
    a local read."""
    music = build_music(obs=True, audit=True)
    client = music.client("Oregon")
    tracer = music.obs.tracer

    def traced():
        with tracer.span(ROOT_SPAN, node=client.client_id, site=client.site):
            return (yield from section(client, "get", "A"))

    assert run(music.sim, traced()) == [None]
    (read,) = [span for span in tracer.spans if span.name == "music.grantRead"]
    (cas,) = [span for span in tracer.spans if span.name == "store.cas"]
    (grant,) = [span for span in tracer.spans if span.name == "music.grant"]
    assert read.trace_id == cas.trace_id and read.parent_id == cas.span_id
    assert cas.start_ms < read.start_ms and read.end_ms <= grant.start_ms
    assert not [span for span in tracer.spans if span.name == "music.grantWait"]
    (path,) = extract_critpaths(tracer.spans)
    assert abs(path.attributed_ms - path.duration_ms) < 1e-9
    assert path.phase_totals()["acquire.flag_read"] < 1.0
    assert hits(music, "grant") == 1
    assert_clean(music)


def test_no_read_starts_behind_a_queued_ref_or_beside_fast_path_evidence():
    """A mint queued behind a holder starts nothing, and neither does a
    repeat mint at a replica that holds fast-path evidence for the key;
    the polling protocol and read leases never start one."""
    music = build_music(audit=True)
    ohio, oregon = music.client("Ohio"), music.client("Oregon")
    started = []
    for replica in music.replicas:
        replica.lock_store.on_head = (
            lambda key, ref, epoch, hook=replica.lock_store.on_head: (
                started.append(ref), hook(key, ref, epoch)
            )
        )

    def scenario():
        cs = yield from ohio.critical_section("k")
        ref = yield from oregon.create_lock_ref("k")
        yield from cs.exit()
        assert (yield from oregon.acquire_lock_blocking("k", ref))
        yield from oregon.release_lock("k", ref)
        return cs.lock_ref

    first = run(music.sim, scenario())
    assert started == [first]
    # Ohio's mint heads its decided queue, but Ohio holds evidence.
    ref = run(music.sim, ohio.create_lock_ref("k"))
    assert started == [first, ref] and kept(music) == []
    run(music.sim, ohio.release_lock("k", ref))
    for config in (MusicConfig(fast_locks=False), MusicConfig(read_leases=True)):
        other = build_music(music_config=config)
        assert all(replica.lock_store.on_head is None for replica in other.replicas)
    assert_clean(music)


def test_nothing_kept_outlives_the_sections_release():
    music = build_music(audit=True)
    client = music.client("Ohio")

    def scenario():
        cs = yield from client.critical_section("k")
        assert kept(music) == [music.replica_at("Ohio").node_id]
        yield from cs.get()
        yield from cs.exit()

    run(music.sim, scenario())
    assert kept(music) == []
    assert_clean(music)


def test_nothing_kept_outlives_the_sections_preemption():
    """Preempted by another replica: its release push, which names the
    successor, reaches the holder's replica; preempted here: the
    preemption drops it itself."""
    music = build_music(audit=True)
    ohio, oregon = music.client("Ohio"), music.client("Oregon")
    there = music.replica_at("Oregon")

    def elsewhere():
        cs = yield from ohio.critical_section("k")
        assert kept(music) == [music.replica_at("Ohio").node_id]
        waiter = yield from oregon.create_lock_ref("k")
        yield from there.forced_release("k", cs.lock_ref)
        yield music.sim.timeout(200.0)
        assert kept(music) == []
        assert (yield from oregon.acquire_lock_blocking("k", waiter))
        yield from oregon.release_lock("k", waiter)

    def here():
        cs = yield from ohio.critical_section("k")
        assert kept(music) == [music.replica_at("Ohio").node_id]
        yield from music.replica_at("Ohio").forced_release("k", cs.lock_ref)
        assert kept(music) == []

    run(music.sim, elsewhere())
    run(music.sim, here())
    assert kept(music) == []
    assert_clean(music)


def test_nothing_kept_outlives_a_failover_acquire_at_another_replica():
    """The mint's replica started the read; the grant, the ops and the
    release all ran at another replica, whose release push drops it."""
    music = build_music(audit=True)
    client = music.client("Ohio")
    home, other = music.replica_at("Ohio"), music.replica_at("Oregon")

    def scenario():
        ref = yield from client.create_lock_ref("k")
        assert list(home._early_reads) == ["k"]
        while not (yield from other.acquire_lock("k", ref)):
            yield music.sim.timeout(5.0)
        ok, value, _ = yield from other.critical_get("k", ref)
        assert ok and value is None
        yield from other.critical_put("k", ref, "A")
        yield from other.release_lock("k", ref)
        yield music.sim.timeout(200.0)

    run(music.sim, scenario())
    assert kept(music) == []
    assert hits(music, "grant") == 1  # Oregon read at its own grant
    assert_clean(music)
