"""An audited fault sweep of the hot path's uncontended mints: a mint
whose promises show an empty queue reads the data partition in its
accept round and returns at its commit's local ack (DESIGN.md §7).
Twelve clients at three sites run sections on many keys, few clients to
a key, so most mints take that path, while each run isolates one site
and later crashes one store node for a while: a mint whose local
replica is down returns at the quorum's commit ack instead, and one cut
off from a quorum fails.  Every seed must audit clean, leave no failure
of a background commit unobserved, and leave the auditor's lock-queue
model equal to the store's queues.

Each seed runs with read leases off and on (one mirror serves both).
Seeds 0-399 are slow-marked (CI's scheduled ``figures-slow`` workflow
runs them, about 3 minutes); one seed per mode runs with the tier-1
suite.  Sixty seeds were once the sweep, and missed the queue gap that
seeds 82-412 show (DESIGN.md §7).
"""

import pytest

from repro import MusicConfig, build_music
from repro.errors import ReproError
from tests.helpers import assert_queue_model_matches_store

CLIENTS, SECTIONS, KEYS = 12, 6, 24


LEASE_MODES = pytest.mark.parametrize("read_leases", [False, True], ids=["leases-off", "leases-on"])


def _fault_sweep_run(seed, read_leases):
    config = MusicConfig(
        failure_detection_enabled=True,
        detector_scan_interval_ms=1_000.0,
        lease_timeout_ms=3_000.0,
        orphan_timeout_ms=3_000.0,
        read_leases=read_leases,
    )
    music = build_music(music_config=config, seed=seed, audit=True)
    sim, sites = music.sim, music.profile.site_names
    faults = music.fault_schedule()
    faults.partition_at(300.0 + 40.0 * (seed % 10), sites[seed % 3])
    faults.heal_at(2_300.0)
    store = f"store-{(seed + 1) % 3}-0"
    faults.crash_at(3_000.0 + 40.0 * (seed % 7), store)
    faults.recover_at(5_500.0, store)
    faults.arm()
    rng = music.streams.stream("fault-sweep")
    keys = [[f"k-{rng.randrange(KEYS)}" for _ in range(SECTIONS)] for _ in range(CLIENTS)]
    applied = []

    def worker(index):
        client = music.client(sites[index % len(sites)])
        for key in keys[index]:
            while True:
                try:
                    section = yield from client.critical_section(key, timeout_ms=20_000.0)
                    value = yield from section.get()
                    yield from section.put((value or 0) + 1)
                    yield from section.exit()
                    applied.append(key)
                    break
                except ReproError:
                    yield sim.timeout(500.0)  # the detectors reclaim what was left

    processes = [sim.process(worker(index)) for index in range(CLIENTS)]
    for process in processes:
        sim.run_until_complete(process, limit=1e9)
    sim.run(until=sim.now + 10_000.0)  # outstanding forced releases land
    return music, applied, sorted({key for row in keys for key in row})


def _assert_clean(seed, read_leases):
    music, applied, keys = _fault_sweep_run(seed, read_leases)
    assert len(applied) == CLIENTS * SECTIONS
    assert music.sim.swallowed_failures == 0
    assert music.auditor.clean, music.auditor.render_report()
    assert_queue_model_matches_store(music, keys)
    # The path under test ran: gets served the grant's read, by the
    # hand-off or under the lease window it anchored.
    heads = sum(
        replica.counters["handoff_hits"]["grant"] + replica.counters["lease_hits"]
        for replica in music.replicas
    )
    assert heads > 0


@LEASE_MODES
def test_one_seed_of_the_fault_sweep_audits_clean(read_leases):
    _assert_clean(0, read_leases)


@pytest.mark.slow
@LEASE_MODES
@pytest.mark.parametrize("seed", range(400))
def test_the_fault_sweep_audits_clean(seed, read_leases):
    _assert_clean(seed, read_leases)
