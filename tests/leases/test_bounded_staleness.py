"""Non-critical bounded-staleness reads (DESIGN.md §8).

``client.get(key, staleness_ms=...)`` serves from the replica's read
cache while the entry is younger than the caller's bound, fills through
with a ONE-consistency read on a miss, is invalidated by push grants,
and never travels backwards within a client session.
"""

from repro import build_music
from repro.services import PortalBackend, PortalFrontend
from tests.helpers import run


def test_cache_miss_fill_hit_and_bound_expiry():
    music = build_music(read_leases=True, audit=True)
    sim = music.sim
    client = music.client("Ohio")
    ohio = music.replica_at("Ohio")

    def scenario():
        yield from client.put("k", "v")
        yield sim.timeout(200.0)                      # settle replication
        a = yield from client.get("k", staleness_ms=300.0)   # miss -> fill
        b = yield from client.get("k", staleness_ms=300.0)   # hit
        yield sim.timeout(500.0)                      # age past the bound
        c = yield from client.get("k", staleness_ms=300.0)   # miss again
        return a, b, c

    assert run(sim, scenario()) == ("v", "v", "v")
    assert ohio.counters["cache_hits"] == 1
    assert ohio.counters["cache_misses"] == 2
    hits = [
        event.fields["hit"]
        for event in music.auditor.events
        if event.kind == "cached_read"
    ]
    assert hits == [False, True, False]
    assert music.auditor.clean, music.auditor.render_report()


def test_unbounded_get_bypasses_the_cache():
    music = build_music(read_leases=True, audit=True)
    sim = music.sim
    client = music.client("Ohio")
    ohio = music.replica_at("Ohio")

    def scenario():
        yield from client.put("k", "v")
        yield sim.timeout(200.0)
        return (yield from client.get("k"))           # plain eventual read

    assert run(sim, scenario()) == "v"
    assert ohio.counters["cache_hits"] == 0
    assert ohio.counters["cache_misses"] == 0
    assert music.auditor.clean, music.auditor.render_report()


def test_push_grant_invalidates_remote_caches():
    music = build_music(read_leases=True, audit=True)
    sim = music.sim
    writer = music.client("Ohio")
    reader = music.client("Oregon")
    oregon = music.replica_at("Oregon")

    def scenario():
        cs = yield from writer.critical_section("k")
        yield from cs.put(1)
        yield from cs.exit()
        yield sim.timeout(200.0)
        v1 = yield from reader.get("k", staleness_ms=10_000.0)
        cs = yield from writer.critical_section("k")
        yield from cs.put(2)
        yield from cs.exit()                          # release push fans out
        yield sim.timeout(500.0)
        v2 = yield from reader.get("k", staleness_ms=10_000.0)
        return v1, v2

    # A 10s bound would happily serve the cached 1; only the push-grant
    # invalidation riding the release makes the second read see 2.
    assert run(sim, scenario()) == (1, 2)
    assert oregon.counters["cache_invalidations"] >= 1
    assert music.auditor.clean, music.auditor.render_report()


def test_session_watermark_survives_replica_failover():
    music = build_music(read_leases=True, audit=True)
    sim = music.sim
    writer = music.client("Ohio")
    reader = music.client("Ohio", client_id="reader")
    ohio = music.replica_at("Ohio")

    def scenario():
        yield from writer.put("k", "old")
        yield sim.timeout(1_000.0)                    # "old" fully replicated
        yield from writer.put("k", "new")             # acked by Ohio only
        a = yield from reader.get("k", staleness_ms=5_000.0)
        music.network.fail_node(ohio.node_id)
        # Failover lands on Oregon, whose ONE read races the still-in-
        # flight replication of "new" and fetches the older stamp.
        b = yield from reader.get("k", staleness_ms=5_000.0)
        music.network.recover_node(ohio.node_id)
        return a, b

    # The client's session watermark papers over the regression: the
    # remembered "new" is served instead of Oregon's stale fetch.
    assert run(sim, scenario()) == ("new", "new")
    session_flags = [
        event.fields["session"]
        for event in music.auditor.events
        if event.kind == "cached_read"
    ]
    assert session_flags == [False, True]
    assert music.auditor.clean, music.auditor.render_report()


def test_portal_dashboard_serves_bounded_reads():
    music = build_music(read_leases=True, audit=True)
    sim = music.sim
    backends = [
        PortalBackend(music.replica_at(site), f"be-{site}")
        for site in ("Ohio", "Oregon")
    ]
    frontend = PortalFrontend(music.client("Ohio", client_id="fe"), backends)

    def scenario():
        yield from frontend.write("alice", "admin")
        yield sim.timeout(100.0)
        r1 = yield from frontend.dashboard_role("alice", staleness_ms=1_000.0)
        r2 = yield from frontend.dashboard_role("alice", staleness_ms=1_000.0)
        return r1, r2

    assert run(sim, scenario()) == ("admin", "admin")
    ohio = music.replica_at("Ohio")
    assert ohio.counters["cache_hits"] >= 1           # the re-read was local
    assert music.auditor.clean, music.auditor.render_report()


def test_read_leases_bring_the_invalidation_channel_on_every_construction_path():
    """``read_leases`` implies ``push_grants`` in ``MusicConfig`` itself,
    not only under ``build_music(read_leases=True)``: a config built by a
    live cluster spec or handed straight to a replica used to leave the
    invalidation channel off, so cached reads lived to their staleness
    bound — silently, since MonotonicReads only compares against
    *delivered* invalidations."""
    from dataclasses import replace

    from repro import MusicConfig
    from repro.live import ClusterSpec, localhost_spec

    # fast_locks (on by default) brings the channel too: switch it off
    # so only read_leases can.
    polling = MusicConfig(fast_locks=False)
    assert not polling.push_grants
    assert MusicConfig(fast_locks=False, read_leases=True).push_grants
    assert replace(polling, read_leases=True).push_grants
    spec = localhost_spec(music={"read_leases": True, "fast_locks": False})
    assert spec.music_config().push_grants
    assert ClusterSpec.from_dict(spec.to_dict()).music_config().push_grants  # the TOML/JSON path
    sugar = build_music(read_leases=True, music_config=polling).config
    assert sugar == build_music(music_config=replace(polling, read_leases=True)).config

    # And the channel works: the scenario of the test above, with the
    # tier switched on through the config alone.
    music = build_music(music_config=replace(polling, read_leases=True), audit=True)
    sim = music.sim
    writer, reader = music.client("Ohio"), music.client("Oregon")

    def scenario():
        seen = []
        for value in (1, 2):
            cs = yield from writer.critical_section("k")
            yield from cs.put(value)
            yield from cs.exit()                      # release push fans out
            yield sim.timeout(500.0)
            seen.append((yield from reader.get("k", staleness_ms=10_000.0)))
        return seen

    assert run(sim, scenario()) == [1, 2]
    assert music.replica_at("Oregon").counters["cache_invalidations"] >= 1
    assert music.auditor.clean, music.auditor.render_report()
