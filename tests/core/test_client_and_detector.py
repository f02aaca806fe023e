"""Client retry plumbing and failure-detector lifecycle details."""

import pytest

from repro.core import MusicConfig, build_music
from repro.core.failure_detector import FailureDetector
from repro.errors import QuorumUnavailable
from repro.store import Consistency, StoreConfig


def run(music, generator, limit=1e9):
    return music.sim.run_until_complete(music.sim.process(generator), limit=limit)


def test_client_requires_replicas():
    from repro.core import MusicClient

    with pytest.raises(ValueError):
        MusicClient([], "Ohio")


def test_client_skips_failed_replicas_in_rotation():
    music = build_music()
    client = music.client("Ohio")
    music.replica_at("Ohio").crash()
    music.replica_at("N.California").crash()

    def task():
        # Only Oregon is alive; ops still succeed through it.
        yield from client.put("k", "v")
        value = yield from client.get("k")
        return value

    assert run(music, task()) == "v"


def test_client_exhausts_retries_with_typed_error(monkeypatch):
    music = build_music()
    monkeypatch.setattr(StoreConfig, "rpc_timeout_ms", 200.0)
    monkeypatch.setattr(MusicConfig, "op_retry_delay_ms", 50.0)
    client = music.client("Ohio")
    for site in music.profile.site_names:
        music.network.isolate_site(site)

    def task():
        try:
            yield from client.create_lock_ref("k")
        except QuorumUnavailable:
            return "nack"
        return "ok"

    assert run(music, task()) == "nack"


def test_acquire_blocking_timeout_returns_false_and_is_recoverable():
    music = build_music()
    client_a = music.client("Ohio")
    client_b = music.client("Oregon")

    def task():
        cs = yield from client_a.critical_section("k")
        ref_b = yield from client_b.create_lock_ref("k")
        granted = yield from client_b.acquire_lock_blocking("k", ref_b,
                                                            timeout_ms=1_000.0)
        assert granted is False
        yield from cs.exit()
        # The same lockRef can still be acquired after the holder left.
        granted = yield from client_b.acquire_lock_blocking("k", ref_b,
                                                            timeout_ms=60_000.0)
        yield from client_b.release_lock("k", ref_b)
        return granted

    assert run(music, task()) is True


def test_detector_stop_halts_preemptions():
    config = MusicConfig(
        failure_detection_enabled=False,  # we manage the detector by hand
        detector_scan_interval_ms=500.0,
        lease_timeout_ms=1_500.0,
        orphan_timeout_ms=1_500.0,
    )
    music = build_music(music_config=config)
    detector = FailureDetector(music.replica_at("Ohio"))
    detector.start()
    detector.start()  # idempotent
    client = music.client("Ohio")

    def holder():
        cs = yield from client.critical_section("k")
        return cs  # never released

    run(music, holder())
    detector.stop()
    detector.stop()  # idempotent
    music.sim.run(until=music.sim.now + 10_000.0, strict=False)
    assert detector.preemptions == 0  # stopped before any scan could fire


def test_detector_skips_scans_while_its_replica_is_down():
    config = MusicConfig(
        failure_detection_enabled=True,
        detector_scan_interval_ms=500.0,
        lease_timeout_ms=1_500.0,
        orphan_timeout_ms=1_500.0,
    )
    music = build_music(music_config=config)
    client = music.client("N.California")

    def holder():
        cs = yield from client.critical_section("k")
        return cs

    run(music, holder())
    for replica in music.replicas:
        replica.crash()
    music.sim.run(until=music.sim.now + 5_000.0, strict=False)
    # Crashed replicas' detectors must not have preempted anything.
    assert sum(d.preemptions for d in music.detectors) == 0
    for replica in music.replicas:
        replica.recover()
    music.sim.run(until=music.sim.now + 20_000.0, strict=False)
    assert sum(d.preemptions for d in music.detectors) >= 1


def test_get_entry_quorum_fallback_when_local_lags():
    """Oregon's store replica loses the grant's startTime write (its
    quorum was Ohio's and N.California's).  Oregon's MUSIC replica holds
    no lease for the lockRef, so its criticalPut reads the queue row
    locally, finds no startTime, and recovers it with a QUORUM read."""
    music = build_music()
    client = music.client("Ohio")
    oregon_replica = music.replica_at("Oregon")
    (oregon_store,) = [r for r in music.store.replicas if r.site == "Oregon"]
    write, _ = oregon_store._handlers["store_write"]

    def loses_start_times(message):
        updates = message.body["updates"]
        if not any(getattr(update, "columns", {}).get("startTime") for update in updates):
            write(message)

    oregon_store.on("store_write", loses_start_times)
    reads = []
    get_entry = oregon_replica.lock_store.get_entry

    def spied(key, lock_ref, consistency=Consistency.LOCAL_ONE):
        entry = yield from get_entry(key, lock_ref, consistency)
        reads.append((consistency, None if entry is None else entry.start_time))
        return entry

    oregon_replica.lock_store.get_entry = spied

    def task():
        cs = yield from client.critical_section("k")
        granted = music.replica_at("Ohio")._leases[("k", cs.lock_ref)]
        # The mint returned at Ohio's commit: Oregon's guard says retry
        # until the commit reaches Oregon's store.
        stamp = None
        while stamp is None:
            stamp = yield from oregon_replica.critical_put("k", cs.lock_ref, "via-oregon")
            if stamp is None:
                yield music.sim.timeout(5.0)
        yield from client.release_lock("k", cs.lock_ref)
        return granted, stamp

    granted, stamp = run(music, task())
    # Acknowledged under Oregon's stamp, on the startTime the quorum held.
    assert stamp[1] == oregon_replica.node_id
    assert reads == [(Consistency.LOCAL_ONE, None), (Consistency.QUORUM, granted)]


def test_a_client_that_never_retries_or_polls_makes_no_stream():
    """The jitter stream is made on first draw: an uncontended client —
    no failover retry, no acquire poll — never pays for one."""
    music = build_music(seed=4)
    client = music.client("Ohio", client_id="solo")

    def task():
        section = yield from client.critical_section("k")
        yield from section.put(1)
        yield from section.exit()

    run(music, task())
    assert client._rng is None
    assert "client:solo" not in music.streams._streams


def test_lazy_jitter_draws_equal_eager_ones():
    """``RandomStreams.stream`` depends only on (seed, name), so making
    a client's stream at its first draw instead of at construction
    changes no draw: a contended run (polls and backoffs) is identical.
    The polling protocol, so every client draws."""

    def contended(eager):
        music = build_music(seed=6, music_config=MusicConfig(fast_locks=False))
        clients = [music.client(site) for site in ("Ohio", "Ohio", "Oregon", "Oregon")]
        if eager:
            for client in clients:
                client.rng  # made now, at construction time
        finished = []

        def worker(client):
            for _ in range(3):
                section = yield from client.critical_section("hot")
                yield from section.exit()
                finished.append((client.client_id, music.sim.now))

        processes = [music.sim.process(worker(client)) for client in clients]
        for process in processes:
            music.sim.run_until_complete(process)
        return finished, [client._rng.getstate() for client in clients]

    lazy, eager = contended(eager=False), contended(eager=True)
    assert lazy == eager and len(lazy[0]) == 12
