"""Tests for the hierarchical MUSIC prototype (future work)."""

from repro.core import build_music
from repro.core.hierarchical import HierarchicalClient


def run(music, generator, limit=1e9):
    return music.sim.run_until_complete(music.sim.process(generator), limit=limit)


def hierarchical(music, site, **kwargs):
    return HierarchicalClient(music.replica_at(site), **kwargs)


def test_local_section_round_trip():
    music = build_music()
    client = hierarchical(music, "Ohio")

    def task():
        section = yield from client.critical_section("k")
        value = yield from section.get()
        yield from section.put((value or 0) + 1)
        yield from section.exit()
        section = yield from client.critical_section("k")
        final = yield from section.get()
        yield from section.exit()
        return final

    assert run(music, task()) == 1


def test_burst_amortizes_global_acquisitions():
    """Ten colocated critical sections in a burst: one global lock
    acquisition (2 WAN LWTs) instead of ten."""
    music = build_music()
    client = hierarchical(music, "Ohio")
    done = []

    def worker(tag):
        section = yield from client.critical_section("hot")
        value = yield from section.get()
        yield from section.put((value or 0) + 1)
        yield from section.exit()
        done.append(tag)

    procs = [music.sim.process(worker(i)) for i in range(10)]
    for proc in procs:
        music.sim.run_until_complete(proc, limit=1e9)
    proxy = client.proxy_for("hot")
    assert len(done) == 10
    assert proxy.stats["local_grants"] == 10
    assert proxy.stats["global_acquisitions"] == 1

    def check():
        plain = music.client("Ohio")
        cs = yield from plain.critical_section("hot", timeout_ms=60_000.0)
        value = yield from cs.get()
        yield from cs.exit()
        return value

    assert run(music, check()) == 10


def test_idle_proxy_releases_for_other_sites():
    music = build_music()
    ohio = hierarchical(music, "Ohio", idle_release_ms=100.0)

    def local_burst():
        section = yield from ohio.critical_section("k")
        yield from section.put("from-ohio")
        yield from section.exit()

    run(music, local_burst())
    # After the idle timeout, a plain client elsewhere gets the lock.
    music.sim.run(until=music.sim.now + 1_000.0)

    def remote():
        client = music.client("Oregon")
        cs = yield from client.critical_section("k", timeout_ms=30_000.0)
        value = yield from cs.get()
        yield from cs.put("from-oregon")
        yield from cs.exit()
        return value

    assert run(music, remote()) == "from-ohio"


def test_max_hold_bounds_cross_site_starvation():
    """A continuous local stream cannot hold the global lock forever."""
    music = build_music()
    ohio = hierarchical(music, "Ohio", max_hold_ms=3_000.0, idle_release_ms=500.0)
    oregon_done = {}

    def ohio_stream():
        # Keeps local demand up for a long time.
        for _ in range(60):
            section = yield from ohio.critical_section("k")
            value = yield from section.get()
            yield from section.put((value or 0) + 1)
            yield from section.exit()
            if oregon_done:
                return

    def oregon_waiter():
        yield music.sim.timeout(500.0)
        client = music.client("Oregon")
        cs = yield from client.critical_section("k", timeout_ms=120_000.0)
        oregon_done["at"] = music.sim.now
        yield from cs.exit()

    procs = [music.sim.process(ohio_stream()), music.sim.process(oregon_waiter())]
    for proc in procs:
        music.sim.run_until_complete(proc, limit=1e9)
    # Oregon got in within ~one bounded hold plus lock-transfer costs.
    assert oregon_done["at"] < 15_000.0


def test_slow_local_section_not_cut_off_by_idle_release():
    """A local section that works longer than the idle timeout (with no
    other waiters) must keep the global lock until it exits."""
    music = build_music()
    client = hierarchical(music, "Ohio", idle_release_ms=100.0)

    def task():
        section = yield from client.critical_section("k")
        yield from section.put("start")
        # Think for much longer than idle_release_ms between operations.
        yield music.sim.timeout(1_500.0)
        yield from section.put("end")  # must still hold the lock
        yield from section.exit()
        return "survived"

    assert run(music, task()) == "survived"

    def check():
        plain = music.client("Oregon")
        cs = yield from plain.critical_section("k", timeout_ms=60_000.0)
        value = yield from cs.get()
        yield from cs.exit()
        return value

    assert run(music, check()) == "end"


def test_two_sites_of_proxies_interleave_correctly():
    music = build_music()
    counters = {"total": 0}

    def site_burst(site, rounds):
        client = hierarchical(music, site, idle_release_ms=50.0)
        for _ in range(rounds):
            section = yield from client.critical_section("ctr")
            value = yield from section.get()
            yield from section.put((value or 0) + 1)
            yield from section.exit()
            counters["total"] += 1

    procs = [
        music.sim.process(site_burst("Ohio", 4)),
        music.sim.process(site_burst("Oregon", 4)),
    ]
    for proc in procs:
        music.sim.run_until_complete(proc, limit=1e9)

    def check():
        plain = music.client("N.California")
        cs = yield from plain.critical_section("ctr", timeout_ms=120_000.0)
        value = yield from cs.get()
        yield from cs.exit()
        return value

    # No lost updates across the two sites' proxies.
    assert run(music, check()) == 8
