"""The debt ledger: one reproducer per open correctness debt of ROADMAP
item 1, each a strict ``xfail``.  Each asserts what the protocol owes,
so it fails today; strict means a change that pays a debt by accident
fails the suite too, and its fix deletes the marker, leaving the
reproducer as the regression test.  Together they run in a few seconds.
"""

import pytest

from repro.bench.scenario import PAPER_MUSIC
from repro.core import MusicConfig, build_music
from repro.errors import ReproError
from repro.lockstore.lockstore import MAX_ENQUEUE_ATTEMPTS

from benchmarks.e2e.workloads import SIM_LIMIT_MS, _build_fault_takeover, final_counter
from tests.core.test_handoff import missed_mints_scenario


def _sections_finished(seed):
    """The polling protocol, three service clients at three sites, ten
    sections each on one key: how many of the 30 finish."""
    music = build_music(profile_name="lUs", seed=seed, music_config=PAPER_MUSIC)
    sim, done = music.sim, []

    def contender(site):
        client = music.service_client(site)
        for _ in range(10):
            try:
                section = yield from client.critical_section("k", timeout_ms=600_000.0)
            except ReproError:
                return
            value = yield from section.get()
            yield from section.put((value or 0) + 1)
            yield from section.exit()
            done.append(site)

    for site in music.profile.site_names[:3]:
        sim.process(contender(site))
    sim.run(until=1_200_000.0)
    return len(done)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP 1(f)")
def test_a_timed_out_mint_leaves_no_orphan_lockref():
    # One test over ten seeds, not ten cases: some seeds finish anyway,
    # and a strict xfail case that passed would fail the suite.
    finished = {seed: _sections_finished(seed) for seed in range(10)}
    assert finished == {seed: 30 for seed in range(10)}


# Paid on the hot path: its releases are quorum deletes, not Paxos
# commits, so the newest commit a promiser can lack is a mint, and the
# promise repair brings the healed replica the guard with it.
@pytest.mark.parametrize("fast_locks", [
    True,
    pytest.param(False, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="ROADMAP 1(a)")),
])
def test_a_healed_site_mints_its_own_lockrefs(fast_locks):
    music = build_music(seed=0, music_config=MusicConfig(fast_locks=fast_locks))
    sim, network = music.sim, music.network
    sites = music.profile.site_names
    network.isolate_site(sites[0])

    def away():
        client = music.client(sites[-1])
        for _ in range(3):
            section = yield from client.critical_section("k", timeout_ms=600_000.0)
            yield from section.exit()

    sim.run_until_complete(sim.process(away()), limit=SIM_LIMIT_MS)
    network.heal_all()
    sim.run(until=sim.now + 1_000.0)

    def home():
        section = yield from music.client(sites[0]).critical_section(
            "k", timeout_ms=600_000.0
        )
        yield from section.exit()

    sim.run_until_complete(sim.process(home()), limit=SIM_LIMIT_MS)
    lock_store = music.replica_at(sites[0]).lock_store
    assert lock_store.counters["enqueue_conflicts"]["k"] < MAX_ENQUEUE_ATTEMPTS


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP 1(a)")
def test_a_healed_site_mints_after_missing_a_forced_dequeue():
    # The hot path's remaining hole: the newest commit the healed replica
    # lacks is a forced dequeue, which carries no guard, so the promise
    # repair leaves its guard stale and every mint attempt there misses
    # (seed 0: all 20, and the section enters 2.2 s later, by failover).
    music = build_music(seed=0)
    sim, network = music.sim, music.network
    sites = music.profile.site_names
    network.isolate_site(sites[0])
    client = music.client(sites[-1])

    def away():
        for _ in range(2):
            section = yield from client.critical_section("k", timeout_ms=600_000.0)
            yield from section.exit()
        ref = yield from client.create_lock_ref("k")
        assert (yield from client.acquire_lock_blocking("k", ref))
        yield from music.replica_at(sites[-1]).forced_release("k", ref)

    sim.run_until_complete(sim.process(away()), limit=SIM_LIMIT_MS)
    network.heal_all()
    sim.run(until=sim.now + 1_000.0)

    def home():
        section = yield from music.client(sites[0]).critical_section(
            "k", timeout_ms=600_000.0
        )
        yield from section.exit()

    sim.run_until_complete(sim.process(home()), limit=SIM_LIMIT_MS)
    lock_store = music.replica_at(sites[0]).lock_store
    assert lock_store.counters["enqueue_conflicts"]["k"] < MAX_ENQUEUE_ATTEMPTS


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP 1(c)")
def test_every_applied_increment_is_in_the_final_counters():
    # Seed 10: 334 sections applied, the counters end at 333 (seed 11
    # shows it too: 328 / 326; seed 5, 343 / 343, does not).
    run = _build_fault_takeover(10, "full", False)
    sim = run.deployment.sim
    for process in run.processes:
        sim.run_until_complete(process, limit=SIM_LIMIT_MS)
    run.verify()
    total = sum(final_counter(run.deployment, f"ctr-{index}") or 0 for index in range(6))
    assert total == len(run.latencies)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP 1(g)")
def test_a_polling_replica_that_missed_a_queued_mint_grants_nothing_past_it():
    # The hot path's head read checks for a gap below the head and reads
    # the quorum when it finds one; the polling protocol's trusts the
    # local replica, which shows the second ref at the head and grants
    # it while the first is held: two holders.
    music = build_music(audit=True, music_config=PAPER_MUSIC)
    ref, _holder = missed_mints_scenario(music, held=True)
    acquire = music.replica_at("Ohio").acquire_lock("k", ref)
    granted = music.sim.run_until_complete(music.sim.process(acquire))
    assert not granted and music.auditor.clean
