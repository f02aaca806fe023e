"""Colocated bursts on one hot key take the flat hot path (DESIGN.md §7):
each section queues its own lockRef and is handed the lock by its
predecessor's release.  Every counter here is checked exactly, so a
lost update or a doubly held lock shows in the final value.

The burst runs replay the workload of EXPERIMENTS.md's "Hierarchical
MUSIC — retired" sweep (one read-increment-write section per client,
``burst`` clients per site) and hold the flat path under the makespan
the per-site lock proxy took there, which is why the proxy went.
"""

from functools import partial

import pytest

from repro import MusicConfig, build_music
from repro.bench.workers import counter_increments, read_counter, run_all

from tests.helpers import assert_queue_model_matches_store, run


def increment(client, key="ctr"):
    section = yield from client.critical_section(key, timeout_ms=120_000.0)
    value = yield from section.get()
    yield from section.put((value or 0) + 1)
    yield from section.exit()


def locked_read(music, site="Ohio", key="ctr"):
    return run(music.sim, read_counter(music.client(site), key, timeout_ms=1e8))


def colocated_burst(music, burst, key="hot"):
    """``burst`` clients per site, each one section on ``key``, all
    started at once; returns the makespan in simulated ms."""
    sim = music.sim
    enters = [
        partial(music.client(site, f"flat-{site}-{index}").critical_section,
                key, timeout_ms=1e8)
        for site in music.profile.site_names for index in range(burst)
    ]
    run_all(sim, [counter_increments(sim, enter, rounds=1) for enter in enters], limit=1e9)
    return sim.now


def test_a_section_round_trips_on_the_flat_path():
    music = build_music()
    client = music.client("Ohio")

    def task():
        yield from increment(client)
        section = yield from client.critical_section("ctr")
        final = yield from section.get()
        yield from section.exit()
        return final

    assert run(music.sim, task()) == 1


@pytest.mark.parametrize("profile_name, burst, proxy_makespan_ms", [
    ("lUs", 12, 2_810.0),
    ("lUs", 24, 5_319.0),
    ("lUs", 48, 10_334.0),
    ("lUsEu", 12, 5_735.0),
    ("lUsEu", 24, 10_787.0),
    ("lUsEu", 48, 20_891.0),
])
def test_a_colocated_burst_applies_every_increment_before_the_proxy_did(
        profile_name, burst, proxy_makespan_ms):
    music = build_music(profile_name=profile_name, seed=54, audit=True)
    makespan_ms = colocated_burst(music, burst)
    sites = len(music.profile.site_names)
    assert locked_read(music, key="hot") == sites * burst
    assert music.auditor.clean, music.auditor.render_report()
    assert_queue_model_matches_store(music, ("hot",))
    assert makespan_ms < proxy_makespan_ms


def test_a_colocated_burst_under_the_polling_protocol_applies_every_increment():
    """The paper's protocol has no hand-off: each waiter polls the guard
    row, and the burst still serializes exactly."""
    music = build_music(music_config=MusicConfig(fast_locks=False), seed=54, audit=True)
    colocated_burst(music, burst=2)
    assert locked_read(music, key="hot") == 2 * len(music.profile.site_names)
    assert music.auditor.clean, music.auditor.render_report()


def test_a_remote_site_reads_a_local_bursts_last_value():
    music = build_music()
    ohio = music.client("Ohio")

    def local_burst():
        for value in ("first", "second", "from-ohio"):
            section = yield from ohio.critical_section("k")
            yield from section.put(value)
            yield from section.exit()

    run(music.sim, local_burst())

    def remote():
        section = yield from music.client("Oregon").critical_section("k", timeout_ms=30_000.0)
        value = yield from section.get()
        yield from section.exit()
        return value

    assert run(music.sim, remote()) == "from-ohio"


def test_a_continuous_local_stream_does_not_starve_another_site():
    """The lock queue is FIFO: a site that keeps re-entering cannot
    keep a waiter elsewhere out for more than the sections queued ahead
    of it."""
    music = build_music(audit=True)
    ohio = music.client("Ohio")
    entered = {}

    def ohio_stream():
        for _ in range(60):
            yield from increment(ohio)
            if entered:
                return

    def oregon_waiter():
        yield music.sim.timeout(500.0)
        section = yield from music.client("Oregon").critical_section("ctr", timeout_ms=120_000.0)
        entered["at"] = music.sim.now
        yield from section.exit()

    run_all(music.sim, [ohio_stream(), oregon_waiter()], limit=1e9)
    assert entered["at"] < 2_000.0
    assert music.auditor.clean, music.auditor.render_report()


def test_a_slow_section_keeps_its_lock_through_a_long_think():
    """A holder that thinks for seconds between its puts is not cut off
    by its successor: the waiter enters only after the second put."""
    music = build_music(audit=True)

    def slow():
        section = yield from music.client("Ohio").critical_section("k")
        yield from section.put("start")
        yield music.sim.timeout(1_500.0)
        yield from section.put("end")
        yield from section.exit()
        return "survived"

    def waiter():
        yield music.sim.timeout(100.0)
        section = yield from music.client("Oregon").critical_section("k", timeout_ms=60_000.0)
        value = yield from section.get()
        yield from section.exit()
        return value

    slow_proc = music.sim.process(slow())
    waiter_proc = music.sim.process(waiter())
    assert music.sim.run_until_complete(slow_proc, limit=1e9) == "survived"
    assert music.sim.run_until_complete(waiter_proc, limit=1e9) == "end"
    assert music.auditor.clean, music.auditor.render_report()


def test_two_sites_of_sequential_sections_interleave_correctly():
    music = build_music(audit=True)

    def site_stream(site, rounds):
        client = music.client(site)
        for _ in range(rounds):
            yield from increment(client)

    run_all(music.sim, [site_stream("Ohio", 4), site_stream("Oregon", 4)], limit=1e9)
    assert locked_read(music) == 8
    assert music.auditor.clean, music.auditor.render_report()
    assert_queue_model_matches_store(music, ("ctr",))
