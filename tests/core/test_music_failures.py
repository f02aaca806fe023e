"""ECF under failures: crash mid-put, false detection, orphans, leases.

These tests drive the scenarios of Sections III-A and IV-B, which are
the reason MUSIC exists: imperfect failure detection and lockholders
dying mid-write must never compromise Exclusivity or Latest-State.
"""

import pytest

from repro.core import MusicConfig, build_music
from repro.errors import LeaseExpired, NotLockHolder, QuorumUnavailable
from repro.store import StoreConfig


def failure_music(**overrides):
    config = MusicConfig(
        detector_scan_interval_ms=overrides.pop("scan_ms", 1_000.0),
        lease_timeout_ms=overrides.pop("lease_ms", 3_000.0),
        orphan_timeout_ms=overrides.pop("orphan_ms", 3_000.0),
        failure_detection_enabled=True,
    )
    return build_music(music_config=config, **overrides)


def run(music, generator, limit=1e8):
    return music.sim.run_until_complete(music.sim.process(generator), limit=limit)


def test_forced_release_preempts_dead_lockholder():
    """A crashed lockholder's lock is reclaimed; the next client enters."""
    music = failure_music()
    client_a = music.client("Ohio")
    client_b = music.client("Oregon")

    def part_one():
        cs = yield from client_a.critical_section("k")
        yield from cs.put("A-was-here")
        return cs

    run(music, part_one())
    # Client A "dies" silently holding the lock: it never releases.

    def part_two():
        cs = yield from client_b.critical_section("k", timeout_ms=60_000.0)
        value = yield from cs.get()
        yield from cs.put("B-took-over")
        yield from cs.exit()
        return value

    value = run(music, part_two())
    # Latest-State: B entered from A's last acknowledged write.
    assert value == "A-was-here"
    assert sum(d.preemptions for d in music.detectors) >= 1


def test_crash_mid_critical_put_next_holder_sees_consistent_value():
    """The refined true-value rule: after a mid-put crash, the next
    lockholder reads either the old or the attempted value — and that
    choice then sticks (it is re-written at quorum during sync)."""
    music = failure_music()
    sim = music.sim
    replica_ohio = music.replica_at("Ohio")
    client_a = music.client("Ohio")
    client_b = music.client("Oregon")

    def setup():
        cs = yield from client_a.critical_section("k")
        yield from cs.put("committed-old")
        return cs.lock_ref

    ref_a = run(music, setup())

    # A starts another criticalPut but its host site is cut off right as
    # the write goes out: the write may reach some replicas, not a quorum.
    def doomed_put():
        try:
            yield from replica_ohio.critical_put("k", ref_a, "attempted-new")
        except (QuorumUnavailable, NotLockHolder):
            pass

    sim.process(doomed_put())
    sim.run(until=sim.now + 1.0)  # let the write leave the NIC
    music.network.isolate_site("Ohio")
    sim.run(until=sim.now + 10_000.0)  # detector preempts A meanwhile
    music.network.heal_all()

    def takeover():
        cs = yield from client_b.critical_section("k", timeout_ms=120_000.0)
        first_read = yield from cs.get()
        second_read = yield from cs.get()
        yield from cs.exit()
        return first_read, second_read

    first_read, second_read = run(music, takeover())
    assert first_read in ("committed-old", "attempted-new")
    # The sync committed the choice: reads are stable from now on.
    assert second_read == first_read
    assert any(r.counters["syncs"] >= 1 for r in music.replicas)


def test_exclusivity_under_false_failure_detection():
    """Section IV-B's headline scenario: a live-but-partitioned
    lockholder is preempted; after healing, its criticalPut reaches the
    data store but must have NO effect on the true value."""
    music = failure_music(lease_ms=2_000.0)
    sim = music.sim
    replica_ohio = music.replica_at("Ohio")
    client_a = music.client("Ohio")
    client_b = music.client("Oregon")

    def acquire_a():
        cs = yield from client_a.critical_section("k")
        yield from cs.put("A-initial")
        return cs.lock_ref

    ref_a = run(music, acquire_a())

    # Partition A's site; the detector (elsewhere) preempts the "failed"
    # holder, and crucially Ohio's local lock store misses the dequeue.
    music.network.isolate_site("Ohio")
    sim.run(until=sim.now + 10_000.0)

    def takeover_b():
        cs = yield from client_b.critical_section("k", timeout_ms=120_000.0)
        yield from cs.put("B-value")
        return cs

    cs_b = run(music, takeover_b())
    music.network.heal_all()

    # A is alive and (with its stale local lock store) still believes it
    # holds the lock: its guard passes and its quorum write goes out.
    def stale_put():
        try:
            stamp = yield from replica_ohio.critical_put("k", ref_a, "A-ZOMBIE-WRITE")
            return f"put-returned-{stamp is not None}"
        except NotLockHolder:
            return "rejected"

    outcome = run(music, stale_put())
    # Whether the transport accepted it or the guard caught it, the
    # data store must be unaffected:
    def read_b():
        value = yield from cs_b.get()
        yield from cs_b.exit()
        return value

    assert run(music, read_b()) == "B-value"
    assert outcome in ("put-returned-True", "rejected")

    # And the next critical section still sees B's value.
    def final_read():
        client = music.client("N.California")
        cs = yield from client.critical_section("k", timeout_ms=120_000.0)
        value = yield from cs.get()
        yield from cs.exit()
        return value

    assert run(music, final_read()) == "B-value"


def test_orphan_lock_ref_cleaned_up():
    """A client that dies after createLockRef does not block the queue."""
    music = failure_music(orphan_ms=2_000.0)
    client_a = music.client("Ohio")
    client_b = music.client("Oregon")

    def orphan():
        ref = yield from client_a.create_lock_ref("k")
        return ref  # client dies; never acquires

    run(music, orphan())

    def queued_client():
        cs = yield from client_b.critical_section("k", timeout_ms=60_000.0)
        yield from cs.put("B")
        yield from cs.exit()
        return "entered"

    assert run(music, queued_client()) == "entered"


def test_lease_expiry_rejects_overlong_critical_section():
    """criticalPut rejects operations past the T bound (Section VI)."""
    config = MusicConfig(period_ms=5_000.0)
    music = build_music(music_config=config)
    client = music.client("Ohio")

    def task():
        cs = yield from client.critical_section("k")
        yield from cs.put("within-lease")
        yield music.sim.timeout(6_000.0)  # exceed T
        replica = music.replica_at("Ohio")
        with pytest.raises(LeaseExpired):
            yield from replica.critical_put("k", cs.lock_ref, "too-late")
        return "done"

    assert run(music, task()) == "done"


@pytest.mark.parametrize("fast_locks, syncs", [(False, 1), (True, 0)], ids=["polling", "hot-path"])
def test_forced_release_of_released_lock_only_causes_extra_sync(fast_locks, syncs):
    """Section IV-B: a late forcedRelease on an already-released lockRef
    leaves the synchFlag erroneously true; the only consequence is an
    unnecessary synchronization on the next acquire.  On the hot path
    the next grant finds the released ref's hand-off row and no marker
    (the forced dequeue lost to the release), so it reads no flag and
    syncs nothing: the store is defined."""
    music = build_music(music_config=MusicConfig(fast_locks=fast_locks))
    client = music.client("Ohio")
    replica = music.replica_at("Ohio")

    def task():
        cs = yield from client.critical_section("k")
        yield from cs.put("value-1")
        yield from cs.exit()
        # Some replica still thinks lockRef holds the lock.
        yield from replica.forced_release("k", cs.lock_ref)
        syncs_before = sum(r.counters["syncs"] for r in music.replicas)
        cs2 = yield from client.critical_section("k")
        value = yield from cs2.get()
        yield from cs2.exit()
        syncs_after = sum(r.counters["syncs"] for r in music.replicas)
        return value, syncs_after - syncs_before

    value, extra_syncs = run(music, task())
    assert value == "value-1"  # data unharmed
    assert extra_syncs == syncs  # at most one unnecessary sync


def test_client_fails_over_to_another_music_replica():
    """A client whose home MUSIC replica dies retries elsewhere."""
    music = build_music()
    client = music.client("Ohio")
    music.replica_at("Ohio").crash()

    def task():
        cs = yield from client.critical_section("k", timeout_ms=60_000.0)
        yield from cs.put("via-remote-replica")
        value = yield from cs.get()
        yield from cs.exit()
        return value

    assert run(music, task()) == "via-remote-replica"


def test_operations_nack_without_backend_quorum(monkeypatch):
    """With two sites of store replicas down, ops nack rather than lie."""
    music = build_music()
    monkeypatch.setattr(StoreConfig, "rpc_timeout_ms", 300.0)
    client = music.client("Ohio")
    music.network.isolate_site("N.California")
    music.network.isolate_site("Oregon")

    def task():
        try:
            yield from client.create_lock_ref("k")
        except QuorumUnavailable:
            return "nack"
        return "ok"

    assert run(music, task()) == "nack"


def test_service_resumes_after_quorum_restored(monkeypatch):
    music = build_music()
    monkeypatch.setattr(StoreConfig, "rpc_timeout_ms", 300.0)
    client = music.client("Ohio")
    music.network.isolate_site("N.California")
    music.network.isolate_site("Oregon")

    def failing():
        try:
            yield from client.create_lock_ref("k")
        except QuorumUnavailable:
            return "nack"
        return "ok"

    assert run(music, failing()) == "nack"
    music.network.heal_all()

    def recovered():
        cs = yield from client.critical_section("k", timeout_ms=60_000.0)
        yield from cs.put("back")
        yield from cs.exit()
        return "ok"

    assert run(music, recovered()) == "ok"


def test_detector_does_not_preempt_active_lockholder():
    """A healthy lockholder inside its lease is left alone."""
    music = failure_music(lease_ms=30_000.0, scan_ms=500.0)
    client = music.client("Ohio")

    def task():
        cs = yield from client.critical_section("k")
        for i in range(5):
            yield music.sim.timeout(1_000.0)
            yield from cs.put(f"beat-{i}")
        yield from cs.exit()
        return "finished"

    assert run(music, task()) == "finished"
    assert sum(d.preemptions for d in music.detectors) == 0
