"""The acceptance run of the runtime ECF auditor (ISSUE 2).

A seeded FaultSchedule throws partitions, a node crash, and false
failure detection (an isolated-but-alive lockholder gets preempted) at
a contended MUSIC deployment with the auditor attached; the audit must
come back clean — the implementation never violates Exclusivity,
Latest-State, queue FIFO, synchFlag monotonicity, or the δ rule, even
while the *benign* races (zombie grants/puts from stale peeks) the
paper tolerates do occur and are counted, not flagged.
"""

import io
import os

from repro import MusicConfig, build_music
from repro.errors import ReproError
from repro.faults import FaultSchedule, flaky_link_profile
from repro.obs import replay_audit, write_audit_jsonl
from tests.helpers import assert_queue_model_matches_store, assert_replay_equivalent

# CI sets this to a directory; each run's audit history is dumped there
# so a red build's artifacts can be re-checked offline with
# ``python -m repro.obs audit <file>``.
ARTIFACT_DIR = os.environ.get("REPRO_AUDIT_ARTIFACT_DIR")


def _audited_fault_run(seed=77, fast_locks=False):
    """Partitions + a crash + false detection over contended keys."""
    config = MusicConfig(
        fast_locks=fast_locks,
        failure_detection_enabled=True,
        detector_scan_interval_ms=1_000.0,
        lease_timeout_ms=3_000.0,
        orphan_timeout_ms=3_000.0,
    )
    music = build_music(music_config=config, seed=seed, audit=True)
    faults = FaultSchedule(music.sim, music.network)
    # The isolation window preempts the stalled Ohio lockholder (false
    # failure detection); a flapping WAN link and a store-node crash/
    # recovery run underneath the contended increments.
    faults.partition_at(2_000.0, "Ohio")
    faults.heal_at(12_000.0)
    flaky_link_profile(faults, "Ohio", "Oregon", start=14_000.0, end=30_000.0,
                       period=4_000.0, duty=0.4)
    faults.crash_at(16_000.0, "store-1-0")
    faults.recover_at(24_000.0, "store-1-0")
    faults.arm()

    applied = []

    def stalled_holder():
        # Acquires the lock, then stalls through the Ohio isolation: the
        # detectors preempt it, and its wake-up write is the zombie
        # criticalPut of Section IV-B.
        client = music.client("Ohio")
        try:
            cs = yield from client.critical_section("shared", timeout_ms=30_000.0)
            yield from cs.put("written-by-ohio")
            yield music.sim.timeout(15_000.0)
            yield from cs.put("ZOMBIE")  # preempted by now: must not stick
            yield from cs.exit()
        except ReproError:
            pass

    def takeover():
        yield music.sim.timeout(4_000.0)
        client = music.client("Oregon")
        cs = yield from client.critical_section("shared", timeout_ms=60_000.0)
        inherited = yield from cs.get()
        assert inherited == "written-by-ohio"
        yield from cs.put("written-by-oregon")
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
                yield music.sim.timeout(500.0)

    procs = [
        music.sim.process(stalled_holder()),
        music.sim.process(takeover()),
        music.sim.process(incrementer("Ohio", "ctr-a", 3)),
        music.sim.process(incrementer("N.California", "ctr-a", 3)),
        music.sim.process(incrementer("Oregon", "ctr-b", 3)),
    ]
    for proc in procs:
        music.sim.run_until_complete(proc, limit=1e9)
    # Let the detectors quiesce (outstanding forced releases complete).
    music.sim.run(until=music.sim.now + 10_000.0)
    if ARTIFACT_DIR:
        os.makedirs(ARTIFACT_DIR, exist_ok=True)
        suffix = "_fastlocks" if fast_locks else ""
        write_audit_jsonl(
            music.auditor,
            os.path.join(
                ARTIFACT_DIR, f"audited_fault_run_seed{seed}{suffix}.jsonl"
            ),
        )
    return music, applied


def test_seeded_fault_run_audits_clean():
    music, applied = _audited_fault_run()
    assert len(applied) == 9
    auditor = music.auditor
    # The run exercised the interesting paths, not just happy-path ops.
    kinds = {event.kind for event in auditor.events}
    assert "fault" in kinds
    assert "forced_release" in kinds
    assert "sync" in kinds  # the takeover had to synchronize
    assert auditor.clean, auditor.render_report()
    auditor.assert_clean()
    assert_replay_equivalent(music.auditor)
    assert_queue_model_matches_store(music, ("shared", "ctr-a", "ctr-b"))


def test_seeded_fault_run_audits_clean_with_fast_locks():
    """The same fault gauntlet with the DESIGN §8 contention hot path on
    (LWT group commit + synchFlag fast path + push grants) must stay
    just as clean: the optimizations change latencies, not safety."""
    music, applied = _audited_fault_run(fast_locks=True)
    assert len(applied) == 9
    auditor = music.auditor
    kinds = {event.kind for event in auditor.events}
    assert "fault" in kinds
    assert "forced_release" in kinds
    assert "sync" in kinds  # forced preemption still forces the sync
    assert auditor.clean, auditor.render_report()
    auditor.assert_clean()
    assert_replay_equivalent(music.auditor)
    assert_queue_model_matches_store(music, ("shared", "ctr-a", "ctr-b"))


def test_fault_run_history_replays_identically_offline():
    music, _applied = _audited_fault_run()
    buffer = io.StringIO()
    write_audit_jsonl(music.auditor, buffer)
    buffer.seek(0)
    replayed = replay_audit(buffer)
    assert replayed.period_ms == music.config.period_ms
    assert len(replayed.events) == len(music.auditor.events)
    assert replayed.violation_counts == music.auditor.violation_counts
    assert replayed.counters == music.auditor.counters
    assert replayed.clean
    assert_replay_equivalent(music.auditor)


def test_fault_markers_interleave_with_key_histories():
    music, _applied = _audited_fault_run()
    fault_events = [e for e in music.auditor.events if e.kind == "fault"]
    labels = [e.fields["label"] for e in fault_events]
    assert "crash store-1-0" in labels
    assert any(label.startswith("partition") for label in labels)
    assert music.auditor.counters["faults"] == len(fault_events)
