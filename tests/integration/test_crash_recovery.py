"""Crash/recovery acceptance runs for the durable storage engine.

Three claims, per ISSUE 3:

1. A seeded crash storm — partitions, node restarts with *real* state
   loss, false failure detection — audits clean under the default
   ``wal_sync="always"``: every acknowledged write and every Paxos
   promise survives the restarts, so the ECF invariants hold.
2. Recovery is deterministic: the same seed yields bit-identical
   post-recovery store contents and identical simulated timings.
3. The durability actually carries the safety: re-running a split-brain
   restart with Paxos journaling disabled (a classic volatile-acceptor
   bug) makes two coordinators mint the same lockRef, and the runtime
   ECF auditor catches it, naming the violated invariant.
"""

import os

from repro import MusicConfig, build_music
from repro.errors import ReproError
from repro.faults import flaky_link_profile
from repro.lockstore import LOCK_TABLE
from repro.obs import write_audit_jsonl
from repro.storage import StorageEngineConfig, dump_wal_jsonl
from repro.store import StoreConfig

from tests.helpers import run

# CI sets these to directories: a red build uploads the audit history
# and each replica's commit log for offline inspection.
AUDIT_ARTIFACT_DIR = os.environ.get("REPRO_AUDIT_ARTIFACT_DIR")
WAL_ARTIFACT_DIR = os.environ.get("REPRO_STORAGE_ARTIFACT_DIR")


def _dump_artifacts(music, tag):
    if AUDIT_ARTIFACT_DIR:
        os.makedirs(AUDIT_ARTIFACT_DIR, exist_ok=True)
        write_audit_jsonl(
            music.auditor, os.path.join(AUDIT_ARTIFACT_DIR, f"{tag}.jsonl")
        )
    if WAL_ARTIFACT_DIR:
        os.makedirs(WAL_ARTIFACT_DIR, exist_ok=True)
        for replica in music.store.replicas:
            dump_wal_jsonl(
                replica.engine,
                os.path.join(WAL_ARTIFACT_DIR, f"{tag}_{replica.node_id}.jsonl"),
            )


# -- 1+2: the crash storm --------------------------------------------------------


def _crash_storm(seed=77):
    """Partitions + two real restarts + false detection, fully audited."""
    config = MusicConfig(
        failure_detection_enabled=True,
        detector_scan_interval_ms=1_000.0,
        lease_timeout_ms=3_000.0,
        orphan_timeout_ms=3_000.0,
    )
    # obs=True: the storm's replay time is read back from the metrics.
    music = build_music(music_config=config, seed=seed, obs=True, audit=True)
    faults = music.fault_schedule()
    # Ohio's isolation preempts a live lockholder (false detection); a
    # flapping WAN link runs underneath; two store nodes restart and
    # lose their volatile state mid-storm, replaying their commit logs
    # before rejoining.
    faults.partition_at(2_000.0, "Ohio")
    faults.heal_at(12_000.0)
    flaky_link_profile(faults, "Ohio", "Oregon", start=14_000.0, end=26_000.0,
                       period=4_000.0, duty=0.4)
    faults.restart_at(16_000.0, "store-1-0", down_ms=6_000.0)
    faults.restart_at(20_000.0, "store-2-0", down_ms=2_000.0)
    faults.arm()

    applied = []

    def stalled_holder():
        # Holds the lock through the isolation; the detectors preempt
        # it, and its wake-up write is the zombie put of Section IV-B.
        client = music.client("Ohio")
        try:
            cs = yield from client.critical_section("shared", timeout_ms=30_000.0)
            yield from cs.put("written-by-ohio")
            yield music.sim.timeout(15_000.0)
            yield from cs.put("ZOMBIE")
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
        music.sim.process(incrementer("Ohio", "ctr", 2)),
        music.sim.process(incrementer("N.California", "ctr", 2)),
        music.sim.process(incrementer("Oregon", "ctr", 2)),
    ]
    for proc in procs:
        music.sim.run_until_complete(proc, limit=1e9)
    music.sim.run(until=music.sim.now + 10_000.0)  # detectors quiesce
    _dump_artifacts(music, f"crash_storm_seed{seed}")
    return music, applied


def _fingerprint(music):
    """Everything determinism must cover: post-recovery store contents,
    replay accounting, and the simulated clock."""
    engines = {
        replica.node_id: replica.engine for replica in music.store.replicas
    }
    return {
        "now": music.sim.now,
        "snapshots": {
            node_id: engine.snapshot() for node_id, engine in engines.items()
        },
        "stats": {
            node_id: dict(engine.stats) for node_id, engine in engines.items()
        },
        "events": len(music.auditor.events),
    }


_STORM_CACHE = {}


def _storm(seed=77):
    if seed not in _STORM_CACHE:
        music, applied = _crash_storm(seed)
        _STORM_CACHE[seed] = (music, applied, _fingerprint(music))
    return _STORM_CACHE[seed]


def test_crash_storm_audits_clean_under_wal_sync_always():
    music, applied, _ = _storm()
    assert len(applied) == 6
    auditor = music.auditor
    kinds = {event.kind for event in auditor.events}
    assert "fault" in kinds
    assert "forced_release" in kinds
    assert auditor.clean, auditor.render_report()
    auditor.assert_clean()
    # The restarts really lost state and really replayed the log.
    for node_id in ("store-1-0", "store-2-0"):
        stats = music.store.by_id[node_id].engine.stats
        assert stats["crashes"] == 1
        assert stats["replays"] == 1
        assert stats["last_replay_bytes"] > 0
    # Replay time was charged on the simulated clock and recorded.
    replay_ms = music.obs.metrics.find("storage.recover.replay_ms")
    assert sum(h.count for h in replay_ms) == 2


def test_crash_storm_recovery_is_deterministic():
    _music, _applied, first = _storm()
    music2, _applied2 = _crash_storm(seed=77)
    second = _fingerprint(music2)
    assert first["now"] == second["now"]
    assert first["snapshots"] == second["snapshots"]
    assert first["stats"] == second["stats"]
    assert first["events"] == second["events"]


# -- 3: the volatile-acceptor mutation ------------------------------------------


def _split_brain_restart(journal_paxos, seed=13):
    """Restart every store replica at the exact moment an in-flight
    lockRef mint has been accepted everywhere but committed nowhere,
    then let a second coordinator mint from the recovered state.

    With the Paxos journal on, recovery replays the accepted proposal
    and the second coordinator must complete it before its own (the
    Cassandra LWT recovery path): lockRefs stay unique.  With it off,
    every acceptor forgets its promise, both coordinators' commits land,
    and the same lockRef is minted twice.
    """
    store_config = StoreConfig(
        storage=StorageEngineConfig(
            wal_sync="always", journal_paxos=journal_paxos
        )
    )
    # obs=True: the caught double mint must name its guilty spans.
    music = build_music(seed=seed, obs=True, audit=True, store_config=store_config)
    sim = music.sim
    ohio = music.replica_at("Ohio").lock_store
    ncal = music.replica_at("N.California").lock_store

    minted = []
    run(sim, ohio.generate_and_enqueue("k"))  # lockRef 1, committed
    sim.run(until=sim.now + 500.0)  # ...on all three replicas

    trigger = {}

    def proposer(store, label):
        ref = yield from store.generate_and_enqueue("k")
        minted.append((label, ref))

    def restarter():
        # Watch the acceptors; the moment all three hold an accepted
        # (uncommitted) proposal for the lock partition, restart them
        # all — instant recovery, but volatile state is gone.
        deadline = sim.now + 5_000.0
        while sim.now < deadline and "at" not in trigger:
            states = [
                replica.engine.paxos.get((LOCK_TABLE, "k"))
                for replica in music.store.replicas
            ]
            if states and all(
                state is not None and state.accepted is not None
                for state in states
            ):
                for replica in music.store.replicas:
                    replica.crash()
                    replica.recover()
                trigger["at"] = sim.now
                return
            yield sim.timeout(0.25)

    def second_proposer():
        while "at" not in trigger:
            yield sim.timeout(0.25)
        yield sim.timeout(1.0)  # replay is sub-ms; the node is back
        yield from proposer(ncal, "N.California")

    first = sim.process(proposer(ohio, "Ohio"))
    sim.process(restarter())
    second = sim.process(second_proposer())
    sim.run_until_complete(first, limit=1e9)
    sim.run_until_complete(second, limit=1e9)
    sim.run(until=sim.now + 2_000.0)  # let stray commits land
    assert "at" in trigger, "the restart never fired: no accepted quorum seen"
    tag = "split_brain_journal_" + ("on" if journal_paxos else "off")
    _dump_artifacts(music, f"{tag}_seed{seed}")
    return music, minted


def test_journaled_acceptors_keep_lockrefs_unique_across_restart():
    music, minted = _split_brain_restart(journal_paxos=True)
    refs = sorted(ref for _label, ref in minted)
    assert refs == [2, 3]  # setup minted 1; no duplicates
    assert music.auditor.clean, music.auditor.render_report()


def test_volatile_acceptors_double_mint_and_the_auditor_catches_it():
    music, minted = _split_brain_restart(journal_paxos=False)
    refs = [ref for _label, ref in minted]
    assert refs == [2, 2]  # both coordinators minted the same lockRef
    auditor = music.auditor
    assert not auditor.clean
    assert "LockQueueFIFO" in auditor.violation_counts, auditor.violation_counts
    violation = next(
        v for v in auditor.violations if v.invariant == "LockQueueFIFO"
    )
    assert violation.source == "runtime"
    assert "minted after" in violation.detail
    assert violation.trace_spans and violation.trace
