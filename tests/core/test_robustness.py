"""Robustness properties: determinism, clock skew, jitter/loss, scale."""

from hypothesis import given, settings, strategies as st

from repro.core import build_music
from repro.errors import ReproError


def run_counter_scenario(seed, clock_skew_ms=0.0, rounds=2):
    """Increment a shared counter from all three sites; return
    (final value, total sim time)."""
    music = build_music(seed=seed, clock_skew_ms=clock_skew_ms)

    def incrementer(site):
        client = music.client(site)
        for _ in range(rounds):
            cs = yield from client.critical_section("ctr", timeout_ms=1e7)
            value = yield from cs.get()
            yield from cs.put((value or 0) + 1)
            yield from cs.exit()

    procs = [music.sim.process(incrementer(site))
             for site in music.profile.site_names]
    for proc in procs:
        music.sim.run_until_complete(proc, limit=1e9)

    def check():
        client = music.client("Ohio")
        cs = yield from client.critical_section("ctr", timeout_ms=1e7)
        value = yield from cs.get()
        yield from cs.exit()
        return value

    final = music.sim.run_until_complete(music.sim.process(check()), limit=1e9)
    return final, music.sim.now


def test_simulation_is_deterministic():
    """Identical seeds give bit-identical runs (time and results)."""
    a = run_counter_scenario(seed=123)
    b = run_counter_scenario(seed=123)
    assert a == b


def test_different_seeds_still_correct():
    for seed in (1, 2, 3):
        final, _t = run_counter_scenario(seed=seed)
        assert final == 6


@given(skew=st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False))
@settings(max_examples=8, deadline=None)
def test_correctness_independent_of_clock_skew(skew):
    """Section III-B: local clocks only sequentialize a single client's
    actions; MUSIC must stay correct under arbitrary cross-node skew."""
    final, _t = run_counter_scenario(seed=9, clock_skew_ms=skew)
    assert final == 6


def test_correctness_under_jitter_and_mild_loss():
    """Message reordering (jitter) and loss only slow things down."""
    from repro.net import Network, PAPER_PROFILES
    from repro.sim import RandomStreams, Simulator

    sim = Simulator()
    streams = RandomStreams(55)
    network = Network(sim, PAPER_PROFILES["lUs"], streams=streams,
                      jitter_fraction=0.3, loss_probability=0.02)
    music = build_music(seed=55, sim=sim, network=network)

    def incrementer(site):
        client = music.client(site)
        done = 0
        while done < 2:
            try:
                cs = yield from client.critical_section("ctr", timeout_ms=1e7)
                value = yield from cs.get()
                yield from cs.put((value or 0) + 1)
                yield from cs.exit()
                done += 1
            except ReproError:
                yield sim.timeout(200.0)

    procs = [sim.process(incrementer(site)) for site in music.profile.site_names]
    for proc in procs:
        sim.run_until_complete(proc, limit=1e9)

    def check():
        client = music.client("Ohio")
        cs = yield from client.critical_section("ctr", timeout_ms=1e7)
        value = yield from cs.get()
        yield from cs.exit()
        return value

    final = sim.run_until_complete(sim.process(check()), limit=1e9)
    assert final == 6


def test_nine_node_sharded_cluster_semantics():
    """ECF holds unchanged on the Fig 4(b) 9-node sharded deployment."""
    music = build_music(nodes_per_site=3, seed=66)

    def task():
        client = music.client("Ohio")
        for index in range(5):
            cs = yield from client.critical_section(f"key-{index}")
            yield from cs.put(index)
            yield from cs.exit()
        values = []
        for index in range(5):
            cs = yield from client.critical_section(f"key-{index}")
            value = yield from cs.get()
            yield from cs.exit()
            values.append(value)
        return values

    values = music.sim.run_until_complete(music.sim.process(task()), limit=1e9)
    assert values == [0, 1, 2, 3, 4]


def test_critical_delete_semantics():
    music = build_music()
    client = music.client("Ohio")
    replica = music.replica_at("Ohio")

    def task():
        cs = yield from client.critical_section("k")
        yield from cs.put("to-be-deleted")
        ok = yield from replica.critical_delete("k", cs.lock_ref)
        assert ok
        value = yield from cs.get()
        yield from cs.exit()
        # Deleted under the lock: subsequent sections see no value.
        cs2 = yield from client.critical_section("k")
        value2 = yield from cs2.get()
        yield from cs2.exit()
        return value, value2

    assert music.sim.run_until_complete(music.sim.process(task())) == (None, None)


def test_multiple_music_replicas_per_site():
    music = build_music(music_replicas_per_site=2, seed=88)
    assert len(music.replicas) == 6

    def task():
        client = music.client("Ohio")
        cs = yield from client.critical_section("k")
        yield from cs.put("multi-replica")
        yield from cs.exit()
        cs = yield from client.critical_section("k")
        value = yield from cs.get()
        yield from cs.exit()
        return value

    assert music.sim.run_until_complete(music.sim.process(task())) == "multi-replica"
