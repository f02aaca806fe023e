"""Seeded fault gauntlet with the read-lease tier enabled (CI step).

The tests/integration/test_audited_faults.py scenario — partitions, a
store-node crash, and false failure detection — re-run with
``read_leases=True`` and lease traffic layered on top: the stalled
Ohio lockholder serves lease reads before it is preempted, a second
leaseholder's replica crash-stops mid-lease, and bounded-staleness
readers at every site hammer the read caches throughout.  The audit —
including the LeaseSafety and MonotonicReads checkers — must come back
clean; only the benign zombie counters may tick.
"""

import os

from repro import MusicConfig, build_music
from repro.errors import ReproError
from repro.faults import FaultSchedule, flaky_link_profile
from repro.obs import write_audit_jsonl
from tests.helpers import assert_replay_equivalent

ARTIFACT_DIR = os.environ.get("REPRO_AUDIT_ARTIFACT_DIR")


def _leased_fault_run(seed=77):
    config = MusicConfig(
        failure_detection_enabled=True,
        detector_scan_interval_ms=1_000.0,
        lease_timeout_ms=3_000.0,
        orphan_timeout_ms=3_000.0,
    )
    config.read_lease_ms = 200.0
    music = build_music(
        music_config=config, seed=seed, audit=True, read_leases=True
    )
    sim = music.sim
    faults = FaultSchedule(sim, music.network)
    faults.partition_at(2_000.0, "Ohio")
    faults.heal_at(12_000.0)
    flaky_link_profile(faults, "Ohio", "Oregon", start=14_000.0, end=30_000.0,
                       period=4_000.0, duty=0.4)
    faults.crash_at(16_000.0, "store-1-0")
    faults.recover_at(24_000.0, "store-1-0")
    faults.arm()

    applied = []
    bounded_reads = []

    def stalled_leaseholder():
        # Acquires, lease-reads its own writes, then stalls through the
        # Ohio isolation: false failure detection preempts it, and any
        # post-preemption read must land on the quorum path (or raise),
        # never on the revoked lease.
        client = music.client("Ohio")
        try:
            cs = yield from client.critical_section("shared", timeout_ms=30_000.0)
            yield from cs.put("written-by-ohio")
            for _ in range(5):
                yield sim.timeout(20.0)
                value = yield from cs.get()
                assert value == "written-by-ohio"
            yield sim.timeout(15_000.0)
            yield from cs.put("ZOMBIE")  # preempted by now: must not stick
            yield from cs.exit()
        except ReproError:
            pass

    def takeover():
        yield sim.timeout(4_000.0)
        client = music.client("Oregon")
        cs = yield from client.critical_section("shared", timeout_ms=60_000.0)
        inherited = yield from cs.get()
        assert inherited == "written-by-ohio"
        yield from cs.put("written-by-oregon")
        yield from cs.exit()

    def crashing_leaseholder():
        # A N.California holder lease-reads, then its MUSIC replica
        # crash-stops mid-lease; the detectors eventually preempt the
        # orphaned lock (the forcedRelease must wait out the window).
        client = music.client("N.California")
        replica = music.replica_at("N.California")
        try:
            cs = yield from client.critical_section("orphaned", timeout_ms=30_000.0)
            yield from cs.put("pre-crash")
            for _ in range(3):
                yield sim.timeout(20.0)
                yield from cs.get()
            replica.crash()
            yield sim.timeout(10_000.0)
            replica.recover()
        except ReproError:
            pass

    def orphan_takeover():
        yield sim.timeout(8_000.0)
        client = music.client("Oregon")
        cs = yield from client.critical_section("orphaned", timeout_ms=60_000.0)
        yield from cs.put("written-after-crash")
        yield from cs.exit()

    def incrementer(site, key, rounds):
        client = music.client(site)
        done = 0
        while done < rounds:
            try:
                cs = yield from client.critical_section(key, timeout_ms=60_000.0)
                value = yield from cs.get()
                yield from cs.put((value or 0) + 1)
                yield from cs.exit()
                done += 1
                applied.append((site, key))
            except ReproError:
                yield sim.timeout(500.0)

    def bounded_reader(site, rounds):
        # Non-critical dashboard traffic: generous bound, so freshness
        # rides entirely on the push-grant invalidations.
        client = music.client(site, client_id=f"reader-{site}")
        done = 0
        while done < rounds:
            try:
                value = yield from client.get("ctr-a", staleness_ms=2_000.0)
                bounded_reads.append((site, value))
                done += 1
            except ReproError:
                pass
            yield sim.timeout(700.0)

    procs = [
        sim.process(stalled_leaseholder()),
        sim.process(takeover()),
        sim.process(crashing_leaseholder()),
        sim.process(orphan_takeover()),
        sim.process(incrementer("Ohio", "ctr-a", 3)),
        sim.process(incrementer("N.California", "ctr-a", 3)),
        sim.process(incrementer("Oregon", "ctr-b", 3)),
        sim.process(bounded_reader("Ohio", 20)),
        sim.process(bounded_reader("Oregon", 20)),
    ]
    for proc in procs:
        sim.run_until_complete(proc, limit=1e9)
    sim.run(until=sim.now + 10_000.0)
    if ARTIFACT_DIR:
        os.makedirs(ARTIFACT_DIR, exist_ok=True)
        write_audit_jsonl(
            music.auditor,
            os.path.join(ARTIFACT_DIR, f"leased_fault_run_seed{seed}.jsonl"),
        )
    return music, applied, bounded_reads


def test_leased_fault_run_audits_clean():
    music, applied, bounded_reads = _leased_fault_run()
    assert len(applied) == 9
    assert len(bounded_reads) == 40
    auditor = music.auditor
    kinds = {event.kind for event in auditor.events}
    # The run exercised every lease code path, not just happy-path ops.
    assert "fault" in kinds
    assert "forced_release" in kinds
    assert "lease_read" in kinds
    assert "cached_read" in kinds
    assert "lease_invalidate" in kinds
    assert auditor.clean, auditor.render_report()
    auditor.assert_clean()
    assert_replay_equivalent(auditor)
