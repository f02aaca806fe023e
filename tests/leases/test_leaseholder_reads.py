"""Leaseholder local critical reads (DESIGN.md §8).

The holder's replica serves ``critical_get`` from its write-through
mirror while its lease is provably inside the ECF window; everything
else — expiry, revocation, failover — must fall back to the quorum.
"""

import pytest

from repro import MusicConfig, build_music
from repro.core import ReadOnlyMultiKeySection, enter_multi
from repro.errors import ReproError
from tests.helpers import run


def build(read_lease_ms=None, **kw):
    config = MusicConfig()
    if read_lease_ms is not None:
        config.read_lease_ms = read_lease_ms
    return build_music(music_config=config, read_leases=True, audit=True, **kw)


def test_leaseholder_reads_serve_locally():
    music = build()
    client = music.client("Ohio")
    ohio = music.replica_at("Ohio")

    def scenario():
        cs = yield from client.critical_section("k")
        yield from cs.put("v1")
        values = []
        for _ in range(5):
            values.append((yield from cs.get()))
        yield from cs.exit()
        return values

    values = run(music.sim, scenario())
    assert values == ["v1"] * 5
    assert ohio.counters["lease_hits"] == 5
    assert ohio.counters["lease_misses"] == 0
    kinds = [event.kind for event in music.auditor.events]
    assert kinds.count("lease_read") == 5
    assert music.auditor.clean, music.auditor.render_report()


def test_expired_window_falls_to_quorum_and_reanchors():
    # The window must outlast the ~54ms quorum RTT (lUs nearest remote)
    # for the anchoring read to hand over an open lease, but be short
    # enough that one idle stretch expires it.
    music = build(read_lease_ms=150.0)
    sim = music.sim
    client = music.client("Ohio")
    ohio = music.replica_at("Ohio")

    def scenario():
        cs = yield from client.critical_section("k")
        yield from cs.put("v1")
        first = yield from cs.get()          # inside the acquire window
        yield sim.timeout(250.0)             # let the window expire
        second = yield from cs.get()         # miss -> quorum read-through
        third = yield from cs.get()          # the read-through re-anchored
        yield from cs.exit()
        return first, second, third

    assert run(sim, scenario()) == ("v1", "v1", "v1")
    assert ohio.counters["lease_hits"] == 2
    assert ohio.counters["lease_misses"] == 1
    assert music.auditor.clean, music.auditor.render_report()


def test_next_holder_reads_latest_across_sites():
    music = build()
    ohio_client = music.client("Ohio")
    oregon_client = music.client("Oregon")

    def scenario():
        cs = yield from ohio_client.critical_section("k")
        yield from cs.put("A")
        yield from cs.exit()
        cs = yield from oregon_client.critical_section("k", timeout_ms=60_000.0)
        inherited = yield from cs.get()
        yield from cs.put("B")
        reread = yield from cs.get()
        yield from cs.exit()
        cs = yield from ohio_client.critical_section("k", timeout_ms=60_000.0)
        final = yield from cs.get()
        yield from cs.exit()
        return inherited, reread, final

    assert run(music.sim, scenario()) == ("A", "B", "B")
    assert music.auditor.clean, music.auditor.render_report()


@pytest.mark.parametrize("mode", ["library", "service"])
def test_session_watermark_guards_failover_mirror(mode):
    """Mid-section failover: a put acknowledged via another replica must
    never be shadowed by the first replica's stale-but-in-window mirror.

    In service mode the watermark has to cross the wire: the forked
    service client's ``music.criticalGet`` carried only ``key, lock_ref``,
    so the recovered replica served its stale mirror ("v1")."""
    music = build()
    client = music.client("Ohio") if mode == "library" else music.service_client("Ohio")
    ohio = music.replica_at("Ohio")

    def scenario():
        ref = yield from client.create_lock_ref("k")
        granted = yield from client.acquire_lock_blocking("k", ref)
        assert granted
        yield from client.critical_put("k", ref, "v1")   # mirror at Ohio
        music.network.fail_node(ohio.node_id)            # suspend, RAM intact
        yield from client.critical_put("k", ref, "v2")   # via failover replica
        music.network.recover_node(ohio.node_id)
        value = yield from client.critical_get("k", ref)  # back at Ohio
        yield from client.release_lock("k", ref)
        return value

    assert run(music.sim, scenario()) == "v2"
    # The stale mirror was skipped via the session watermark, not served.
    assert ohio.counters["lease_misses"] >= 1
    assert music.auditor.clean, music.auditor.render_report()


def test_read_only_multi_key_section_uses_leases_and_rejects_puts():
    music = build()
    client = music.client("Ohio")
    ohio = music.replica_at("Ohio")

    def scenario():
        seed = yield from client.critical_section("a")
        yield from seed.put(1)
        yield from seed.exit()
        section = yield from enter_multi(client, ["a", "b"], read_only=True)
        assert isinstance(section, ReadOnlyMultiKeySection)
        view = yield from section.get_all()
        # The first read of each key is a fast-path-acquire miss that
        # re-anchors; re-reading now rides the lease tier locally.
        again = yield from section.get("a")
        assert again == view["a"]
        with pytest.raises(ReproError):
            yield from section.put("a", 99)
        yield from section.exit()
        return view

    view = run(music.sim, scenario())
    assert view == {"a": 1, "b": None}
    assert ohio.counters["lease_hits"] >= 1  # the re-read rode the lease tier
    assert music.auditor.clean, music.auditor.render_report()


def test_read_only_section_repins_a_preempted_key():
    music = build(read_lease_ms=50.0)
    sim = music.sim
    client = music.client("Ohio")
    oregon = music.replica_at("Oregon")
    oregon_client = music.client("Oregon")

    def scenario():
        section = yield from enter_multi(client, ["a", "b"], read_only=True)
        old_ref = section.lock_refs["b"]
        # A rival forcibly takes "b", writes, and releases it again.
        yield from oregon.forced_release("b", old_ref)
        cs = yield from oregon_client.critical_section("b", timeout_ms=60_000.0)
        yield from cs.put("stolen")
        yield from cs.exit()
        # The read-only section re-pins just "b" and reads the new value;
        # "a" stays held under its original lockRef throughout.
        value = yield from section.get("b")
        assert section.lock_refs["b"] != old_ref
        assert section.counters["reacquires"] == 1
        yield from section.exit()
        return value

    assert run(sim, scenario()) == "stolen"
    assert music.auditor.clean, music.auditor.render_report()
