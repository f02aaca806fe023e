"""Forced-release abort path of MultiKeyCriticalSection under a seeded
fault schedule: a live-but-partitioned holder is falsely detected as
failed mid-section, its locks are preempted, and the abort discipline
must leave no orphan lockRefs and a clean audit."""

from repro.core import MusicConfig, build_music
from repro.errors import NotLockHolder, ReproError
from repro.core.multikey import enter_multi


def build():
    config = MusicConfig(
        detector_scan_interval_ms=1_000.0,
        lease_timeout_ms=3_000.0,
        orphan_timeout_ms=3_000.0,
        failure_detection_enabled=True,
    )
    return build_music(music_config=config, audit=True, seed=5)


def test_partition_and_false_detection_mid_section():
    music = build()
    sim = music.sim
    outcome = {}

    def holder():
        client = music.client("Ohio")
        cs = yield from enter_multi(client, ["mk-a", "mk-b"],
                                    timeout_ms=60_000.0)
        outcome["held_refs"] = dict(cs.lock_refs)
        # Partition hits while we sit inside the section; the detector
        # (outside Ohio) falsely declares us dead and preempts the locks.
        yield sim.timeout(12_000.0)
        try:
            yield from cs.put("mk-a", "zombie-write")
            outcome["put"] = "accepted"
        except NotLockHolder:
            outcome["put"] = "rejected"
            # The abort discipline: release whatever is still held —
            # releasing a forcibly-released lockRef is harmless.
            try:
                yield from cs.exit()
            except ReproError:
                pass
        # Clean retry: fresh lockRefs, the whole section again.
        retry = yield from enter_multi(client, ["mk-a", "mk-b"],
                                       timeout_ms=60_000.0)
        outcome["retry_refs"] = dict(retry.lock_refs)
        yield from retry.put("mk-a", "after-retry")
        yield from retry.put("mk-b", "after-retry")
        yield from retry.exit()

    def contender():
        # The reason preemption exists at all: someone else wants mk-a.
        # Enters shortly before the zombie write arrives and is still
        # the (newer) queue head when it does, so the guard answers
        # youAreNoLongerLockHolder rather than a retryable local lag —
        # then exits while the holder's clean retry is queued behind it.
        client = music.client("Oregon")
        yield sim.timeout(11_500.0)
        cs = yield from enter_multi(client, ["mk-a"], timeout_ms=60_000.0)
        yield from cs.put("mk-a", "contender-write")
        yield sim.timeout(1_200.0)
        yield from cs.exit()

    faults = (
        music.fault_schedule()
        .partition_at(1_000.0, "Ohio")
        .heal_at(9_000.0)
    )
    faults.arm()
    procs = [sim.process(holder()), sim.process(contender())]
    for proc in procs:
        sim.run_until_complete(proc, limit=1e9)

    # The zombie write was refused and the retry used fresh lockRefs.
    assert outcome["put"] == "rejected"
    assert all(
        outcome["retry_refs"][key] > outcome["held_refs"][key]
        for key in outcome["held_refs"]
    )
    # The false detection actually fired.
    assert sum(d.preemptions for d in music.detectors) >= 1

    # No orphan lockRefs: both queues are empty at quorum.  A release
    # returns at its local ack, so the peek first lets the retry's
    # deletes, still on the wire, land.
    def queues_empty():
        yield sim.timeout(1_000.0)
        replica = music.replica_at("Oregon")
        heads = []
        for key in ("mk-a", "mk-b"):
            entry = yield from replica.lock_store.peek_quorum(key)
            heads.append(entry)
        return heads

    heads = sim.run_until_complete(sim.process(queues_empty()), limit=1e9)
    assert heads == [None, None]

    # Exclusivity/Latest-State held throughout: the audit is clean.
    assert music.auditor.clean, music.auditor.render_report()

    # And the retried section's writes are the store's current values.
    def read_back():
        client = music.client("Oregon")
        cs = yield from enter_multi(client, ["mk-a", "mk-b"],
                                    timeout_ms=60_000.0)
        values = yield from cs.get_all()
        yield from cs.exit()
        return values

    values = sim.run_until_complete(sim.process(read_back()), limit=1e9)
    assert values == {"mk-a": "after-retry", "mk-b": "after-retry"}


def test_preemption_mid_acquisition_releases_partial_locks():
    """Losing an early lock while waiting on a later one aborts the
    attempt and releases the partial set (the enter_multi restart
    path), still audit-clean."""
    music = build()
    sim = music.sim

    def contender(site, keys, delay_ms, tag, done):
        client = music.client(site)
        yield sim.timeout(delay_ms)
        cs = yield from enter_multi(client, keys, timeout_ms=120_000.0,
                                    retries=6)
        yield sim.timeout(100.0)
        for key in cs.keys:
            yield from cs.put(key, tag)
        yield from cs.exit()
        done.append(tag)

    done = []
    procs = [
        sim.process(contender("Ohio", ["mk-x", "mk-y"], 0.0, "first", done)),
        sim.process(contender("Oregon", ["mk-y", "mk-z"], 50.0, "second", done)),
        sim.process(contender("N.California", ["mk-x", "mk-z"], 100.0, "third", done)),
    ]
    for proc in procs:
        sim.run_until_complete(proc, limit=1e9)
    assert sorted(done) == ["first", "second", "third"]
    assert music.auditor.clean, music.auditor.render_report()

    def queues_empty():
        replica = music.replica_at("Ohio")
        heads = []
        for key in ("mk-x", "mk-y", "mk-z"):
            entry = yield from replica.lock_store.peek_quorum(key)
            heads.append(entry)
        return heads

    heads = sim.run_until_complete(sim.process(queues_empty()), limit=1e9)
    assert heads == [None, None, None]
