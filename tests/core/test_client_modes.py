"""One client contract, both deployments of Fig. 1.

Every case here runs twice: once over a ``library`` client (handed the
MUSIC replicas themselves) and once over a ``service`` client (the same
``MusicClient`` handed RPC stubs, on its own host).  The client code is
one implementation, so its retry accounting, deadline discipline and
Listing-1 surface must not depend on which it was handed.

Two seed bugs stay pinned (they once lived in both client forks):

1. the failover loop *burned a retry attempt* on every known-failed
   replica it skipped, and with every replica failed spun dry before
   failing.  Each attempt now lands on a live replica and the
   all-failed case raises immediately;
2. ``acquire_lock_blocking`` slept its full backoff interval past the
   caller's deadline and then polled one extra time.  The sleep is
   clamped to the remaining deadline and the deadline re-checked before
   the next attempt.

The stamp a write was acknowledged under is a return value on every
path, a failover mid-section included; that one case also runs over a
``live`` client (the service client on real sockets).

The service-only cases at the bottom pin what only exists across a
wire: the client-to-replica hop, and the two bugs the forked service
client had (watermark not sent, release push lost during the poll).
"""

import pytest

from repro.core import MusicConfig, build_music, service_client
from repro.core import client as client_module
from repro.core.client import OP_RETRY_LIMIT
from repro.core.service import PUSH_WAIT_MS
from repro.errors import NotLockHolder, QuorumUnavailable, ReproError
from repro.net import Node
from repro.store import StoreConfig

MODES = ("library", "service")


@pytest.fixture(params=MODES)
def mode(request):
    return request.param


def client_of(music, mode, site="Ohio"):
    return music.client(site) if mode == "library" else music.service_client(site)


def run(music, generator, limit=1e9):
    return music.sim.run_until_complete(music.sim.process(generator), limit=limit)


# -- failover attempt accounting ---------------------------------------------


def test_failover_attempts_all_land_on_the_live_replica(mode, monkeypatch):
    """With two replicas pre-failed, every one of the OP_RETRY_LIMIT
    attempts must still contact the remaining live replica (the seed
    bug burned attempts skipping the failed ones)."""
    music = build_music()
    client = client_of(music, mode)
    music.replica_at("Ohio").crash()
    music.replica_at("Oregon").crash()
    monkeypatch.setattr(MusicConfig, "op_retry_delay_ms", 1.0)
    calls = []

    def nacking_op(replica):
        calls.append(replica.site)
        raise QuorumUnavailable("synthetic nack")
        yield  # pragma: no cover - makes this a generator function

    def task():
        try:
            yield from client._with_failover("op", nacking_op)
        except QuorumUnavailable:
            return "nacked"
        return "ok"

    assert run(music, task()) == "nacked"
    assert len(calls) == OP_RETRY_LIMIT
    assert set(calls) == {"N.California"}


def test_failed_replicas_are_skipped_without_burning_attempts(mode):
    music = build_music()
    client = client_of(music, mode)
    music.replica_at("Ohio").crash()
    music.replica_at("Oregon").crash()

    def task():
        # The one live replica still serves the op on the first attempt.
        yield from client.put("k", "v")
        value = yield from client.get("k")
        return value

    assert run(music, task()) == "v"


def test_failover_raises_immediately_when_every_replica_is_failed(mode):
    music = build_music()
    client = client_of(music, mode)
    for replica in music.replicas:
        replica.crash()
    started = music.sim.now

    def task():
        try:
            yield from client.get("k")
        except QuorumUnavailable as error:
            return str(error)
        return None

    message = run(music, task())
    assert message is not None and "every replica is failed" in message
    # No retry sleeps: the failure is synchronous, not OP_RETRY_LIMIT
    # rounds of backoff against nothing.
    assert music.sim.now == started


def test_failover_happy_path_uses_one_attempt(mode):
    music = build_music()
    client = client_of(music, mode)
    calls = []

    def op(replica):
        calls.append(replica.site)
        return "value"
        yield  # pragma: no cover

    def task():
        result = yield from client._with_failover("op", op)
        return result

    assert run(music, task()) == "value"
    assert calls == ["Ohio"]  # home replica first, exactly once


def test_client_fails_over_across_replicas(mode):
    music = build_music()
    client = client_of(music, mode)
    music.replica_at("Ohio").crash()

    def task():
        cs = yield from client.critical_section("k")
        yield from cs.put("via-failover")
        value = yield from cs.get()
        yield from cs.exit()
        return value

    assert run(music, task()) == "via-failover"


def test_nacks_without_backend_quorum(mode, monkeypatch):
    music = build_music()
    client = client_of(music, mode)
    monkeypatch.setattr(StoreConfig, "rpc_timeout_ms", 300.0)
    music.network.isolate_site("N.California")
    music.network.isolate_site("Oregon")

    def task():
        try:
            yield from client.create_lock_ref("k")
        except QuorumUnavailable:
            return "nack"
        return "ok"

    assert run(music, task()) == "nack"


# -- blocking-acquire deadline -----------------------------------------------

# A poll in flight when the deadline passes still completes.  A library
# poll is a local peek; a service poll adds one intra-site round trip.
OVERSHOOT_MS = {"library": 1e-9, "service": 10.0}


def _contended_wait(mode, timeout_ms, **build_kwargs):
    music = build_music(**build_kwargs)
    holder = music.client("Ohio")
    waiter = client_of(music, mode, "Oregon")

    def task():
        cs = yield from holder.critical_section("k")
        ref = yield from waiter.create_lock_ref("k")
        started = music.sim.now
        granted = yield from waiter.acquire_lock_blocking(
            "k", ref, timeout_ms=timeout_ms
        )
        waited = music.sim.now - started
        yield from cs.exit()
        yield from waiter.release_lock("k", ref)
        return granted, waited

    return run(music, task())


@pytest.mark.parametrize("timeout_ms", [400.0, 1_000.0, 2_500.0])
def test_acquire_blocking_respects_its_deadline(mode, timeout_ms):
    """A contended acquire with a timeout returns False within
    timeout_ms (+ a poll already in flight) — the seed bug overshot by
    up to a full backed-off poll interval (500 ms)."""
    granted, waited = _contended_wait(mode, timeout_ms)
    assert granted is False
    assert waited <= timeout_ms + OVERSHOOT_MS[mode], waited


def test_acquire_blocking_deadline_holds_with_push_grants(mode):
    """Same contract with the push-grant wait path active."""
    granted, waited = _contended_wait(
        mode, 800.0, music_config=MusicConfig(fast_locks=True)
    )
    assert granted is False
    assert waited <= 800.0 + OVERSHOOT_MS[mode], waited


def _counting_polls(client):
    """Count ``client``'s acquireLock polls in the list returned."""
    polls, acquire = [], client.acquire_lock

    def counted(key, lock_ref):
        polls.append(client.sim.now)
        return acquire(key, lock_ref)

    client.acquire_lock = counted
    return polls


def test_the_fuse_never_overshoots_the_deadline(mode):
    """A waiter three places back sleeps a fuse of three
    ``acquire_poll_max_ms``, clamped: with ``timeout_ms=700`` it polls
    once and returns False at exactly t0 + 700 ms."""
    music = build_music()
    holder = music.client("Ohio")
    queued = [music.client(site) for site in ("N.California", "Ohio")]
    waiter = client_of(music, mode, "Oregon")
    polls = _counting_polls(waiter)

    def task():
        cs = yield from holder.critical_section("k")
        for client in queued:
            yield from client.create_lock_ref("k")
        ref = yield from waiter.create_lock_ref("k")
        assert ref == cs.lock_ref + 3
        started = music.sim.now
        granted = yield from waiter.acquire_lock_blocking("k", ref, timeout_ms=700.0)
        return granted, started

    granted, started = run(music, task())
    assert granted is False
    assert music.sim.now == pytest.approx(started + 700.0, abs=1e-9)
    assert polls == [started]


def test_the_sleep_after_a_push_is_clamped_to_the_deadline(mode, monkeypatch):
    """A push that lands before the deadline cannot carry the wait past
    it: with the apply fuse stretched to 10 s, the pushed waiter still
    returns at exactly t0 + 700 ms."""
    monkeypatch.setattr(client_module, "APPLY_FUSE_MS", 10_000.0)
    music = build_music()
    holder = music.client("Ohio")
    waiter = client_of(music, mode, "Oregon")
    polls = _counting_polls(waiter)

    def release_soon(cs):
        yield music.sim.timeout(200.0)
        yield from cs.exit()

    def task():
        cs = yield from holder.critical_section("k")
        ref = yield from waiter.create_lock_ref("k")
        started = music.sim.now
        music.sim.process(release_soon(cs))
        granted = yield from waiter.acquire_lock_blocking("k", ref, timeout_ms=700.0)
        return granted, started

    granted, started = run(music, task())
    assert granted is False
    assert music.sim.now == pytest.approx(started + 700.0, abs=1e-9)
    assert polls == [started]


def test_a_wait_polls_as_often_in_both_modes():
    """A lapsed ``music.waitRelease`` is no push: the stub renews the
    subscription and the waiter keeps its fuse.  Over one 6 s wait a
    service client polls exactly as often as a library client drawing
    the same jitter (the stub once woke its waiter at every 2 s lapse,
    restarting the 3 ms ramp: 53 polls against 21)."""
    counts = {}
    for mode in MODES:
        music = build_music()
        holder = music.client("Ohio")
        if mode == "library":
            waiter = music.client("Oregon", client_id="waiter")
        else:
            waiter = music.service_client("Oregon", client_id="waiter")
        polls = _counting_polls(waiter)

        def task():
            cs = yield from holder.critical_section("k")
            ref = yield from waiter.create_lock_ref("k")
            acquiring = music.sim.process(waiter.acquire_lock_blocking("k", ref))
            yield music.sim.timeout(6_000.0)
            yield from cs.exit()
            granted = yield acquiring
            return granted

        assert run(music, task()) is True
        counts[mode] = len(polls)
    assert counts["library"] == counts["service"], counts
    assert counts["library"] < 6_000.0 / MusicConfig.acquire_poll_max_ms + 3, counts


def test_critical_section_times_out_and_gives_the_ref_back(mode):
    music = build_music()
    holder = music.client("Ohio")
    waiter = client_of(music, mode, "Oregon")

    def task():
        cs = yield from holder.critical_section("k")
        with pytest.raises(ReproError, match="timed out"):
            yield from waiter.critical_section("k", timeout_ms=300.0)
        yield from cs.exit()
        # The timed-out lockRef was released, not orphaned: the next
        # section enters without waiting for a failure detector.
        again = yield from waiter.critical_section("k", timeout_ms=5_000.0)
        yield from again.exit()
        return "done"

    assert run(music, task()) == "done"


# -- the Listing-1 surface ---------------------------------------------------


def test_critical_section_round_trip(mode):
    music = build_music()
    client = client_of(music, mode)

    def task():
        ref = yield from client.create_lock_ref("k")
        granted = yield from client.acquire_lock_blocking("k", ref)
        assert granted
        yield from client.critical_put("k", ref, {"v": 1})
        value = yield from client.critical_get("k", ref)
        yield from client.release_lock("k", ref)
        return value

    assert run(music, task()) == {"v": 1}


def test_critical_delete(mode):
    music = build_music()
    client = client_of(music, mode)

    def task():
        cs = yield from client.critical_section("k")
        yield from cs.put("data")
        before = yield from cs.get()
        yield from cs.delete()
        after = yield from cs.get()
        yield from cs.exit()
        return before, after

    assert run(music, task()) == ("data", None)


def test_unlocked_ops_and_get_all_keys(mode):
    music = build_music()
    client = client_of(music, mode)

    def task():
        yield from client.put("job-1", {"s": 1})
        yield from client.put("job-2", {"s": 2})
        yield music.sim.timeout(50.0)
        keys = yield from client.get_all_keys()
        value = yield from client.get("job-1")
        return keys, value

    keys, value = run(music, task())
    assert keys == ["job-1", "job-2"]
    assert value == {"s": 1}


def test_errors_reach_the_caller_typed(mode):
    music = build_music()
    client = client_of(music, mode)
    client_b = music.client("Oregon")

    def task():
        ref = yield from client.create_lock_ref("k")
        granted = yield from client.acquire_lock_blocking("k", ref)
        assert granted
        yield from client.release_lock("k", ref)
        ref_b = yield from client_b.create_lock_ref("k")
        yield from client_b.acquire_lock_blocking("k", ref_b)
        # The stale ref must surface NotLockHolder, not a generic error
        # — and releasing it again is a no-op, not a failure.
        with pytest.raises(NotLockHolder):
            yield from client.critical_put("k", ref, "stale")
        assert (yield from client.release_lock("k", ref)) is True
        yield from client_b.release_lock("k", ref_b)
        return "done"

    assert run(music, task()) == "done"


def test_stamped_and_txn_ops(mode):
    """The version tokens the transaction layer records ride every
    path: the stamp a critical write was acknowledged under is the
    stamp the next read — guarded or not — reports."""
    music = build_music()
    client = client_of(music, mode)

    def task():
        cs = yield from client.critical_section("k")
        put_stamp = yield from client.critical_put("k", cs.lock_ref, "a")
        value, get_stamp = yield from client.critical_get_stamped("k", cs.lock_ref)
        yield from cs.exit()
        unguarded = yield from client.txn_read("k")
        newer = (put_stamp[0] + 1.0, "txn")
        yield from client.txn_write("k", "b", newer)
        rewritten = yield from client.txn_read("k")
        return put_stamp, (value, get_stamp), unguarded, rewritten, newer

    put_stamp, guarded, unguarded, rewritten, newer = run(music, task())
    assert guarded == ("a", put_stamp)
    assert unguarded == ("a", put_stamp)
    assert rewritten == ("b", newer)


def stamped_section(client, lose_home):
    """Put, lose the home replica, put again, read back guarded and
    unguarded: every version stamp is a return value."""
    cs = yield from client.critical_section("k")
    first = yield from cs.put("a")
    lose_home()
    second = yield from cs.put("b")
    guarded = yield from client.critical_get_stamped("k", cs.lock_ref)
    unguarded = yield from client.txn_read("k")
    yield from cs.exit()
    return first, second, guarded, unguarded


def check_stamps_across_the_failover(stamps, home):
    first, second, guarded, unguarded = stamps
    # A stamp names the replica that wrote under it: the second put was
    # acknowledged elsewhere, and its caller got *that* attempt's stamp.
    assert first[1] == home and second[1] != home
    assert first < second
    assert guarded == unguarded == ("b", second)


def test_stamps_are_return_values_across_a_failover(mode):
    music = build_music()
    client = client_of(music, mode)
    home = music.replica_at("Ohio")
    stamps = run(music, stamped_section(client, home.crash))
    check_stamps_across_the_failover(stamps, home.node_id)


def test_a_live_client_gets_the_same_stamps_from_return_values(tmp_path, monkeypatch):
    """The same section over real sockets (the live runtime's client is
    the service client on a TCP transport)."""
    import asyncio

    from repro.live import LocalCluster
    from tests.live.conftest import make_spec

    async def main():
        async with LocalCluster(make_spec(n_nodes=3, tmp_path=tmp_path)) as cluster:
            client = cluster.build_client()
            home = client.replica.node_id

            def lose_home():
                # What the client sees of a crashed remote replica.
                monkeypatch.setattr(
                    cluster.client_transport, "is_failed", lambda node_id: node_id == home
                )

            stamps = await asyncio.wait_for(
                cluster.clock.run_process(stamped_section(client, lose_home)), timeout=60.0
            )
            assert cluster.drain_failures() == []
        return stamps, home

    check_stamps_across_the_failover(*asyncio.run(main()))


def test_bounded_reads_keep_the_session_prefix(mode):
    music = build_music(read_leases=True, audit=True)
    writer = music.client("Ohio")
    reader = client_of(music, mode)
    ohio = music.replica_at("Ohio")

    def task():
        yield from writer.put("k", "old")
        yield music.sim.timeout(1_000.0)      # "old" fully replicated
        yield from writer.put("k", "new")     # acked by Ohio only
        first = yield from reader.get("k", staleness_ms=5_000.0)
        music.network.fail_node(ohio.node_id)
        # Failover lands on a replica whose ONE read races the still-in-
        # flight replication of "new"; the session watermark covers it.
        second = yield from reader.get("k", staleness_ms=5_000.0)
        music.network.recover_node(ohio.node_id)
        return first, second

    assert run(music, task()) == ("new", "new")
    assert music.auditor.clean, music.auditor.render_report()


# -- service mode only: what exists only across a wire -----------------------


def far_client_of(music):
    """A service client in Oregon that knows only the Ohio replica: every
    operation crosses the 72 ms Oregon-Ohio link."""
    far_host = Node(music.sim, music.network, "far-host", "Oregon")
    far_host.start()
    ohio = music.replica_at("Ohio")
    return service_client(
        far_host, [(ohio.node_id, ohio.site)], music.config, streams=music.streams
    )


def test_service_mode_pays_the_client_to_replica_hop():
    """Service mode adds a client-to-replica round trip per op; a
    client far from every replica it knows pays a WAN hop."""
    music = build_music()
    far_client = far_client_of(music)

    def task():
        start = music.sim.now
        yield from far_client.put("k", "x")
        return music.sim.now - start

    # One Oregon->Ohio round trip (72.14ms) on top of the eventual write.
    assert run(music, task()) > 70.0


def test_release_during_the_poll_round_trip_wakes_a_service_waiter():
    """Push grants, service mode: a release decided while the waiter's
    acquireLock poll is crossing the wire must still wake it.  The
    forked service client subscribed (``music.waitRelease``) only
    *after* the poll returned, so a push landing in between was lost and
    the waiter slept out the 2 s long-poll bound with the lock free.

    The waiter sits a WAN hop (72 ms RTT) from the only replica it
    knows, which makes the window wide, and starts polling at a fixed
    time with its lockRef already minted; the holder's release is swept
    across that first poll so some releases are decided inside it.
    """
    poll_at_ms = 1_500.0
    waits = []
    config = MusicConfig(fast_locks=True)
    for release_after_ms in range(1_000, 1_300, 20):
        music = build_music(music_config=config, seed=5)
        sim = music.sim
        holder = music.client("Ohio")
        waiter = far_client_of(music)
        released_at = []

        def hold():
            cs = yield from holder.critical_section("k")
            yield sim.timeout(float(release_after_ms))
            yield from cs.exit()
            released_at.append(sim.now)

        def wait():
            yield sim.timeout(600.0)  # the holder is in by now
            ref = yield from waiter.create_lock_ref("k")
            yield sim.timeout(poll_at_ms - sim.now)
            granted = yield from waiter.acquire_lock_blocking("k", ref)
            assert granted
            granted_at = sim.now
            yield from waiter.release_lock("k", ref)
            return granted_at

        sim.process(hold())
        granted_at = run(music, wait())
        waits.append(granted_at - max(released_at[0], poll_at_ms))

    # One client<->replica round trip, the short re-poll fuse and the
    # grant's own quorum flag read at worst — never the long-poll bound.
    assert max(waits) < 200.0 < PUSH_WAIT_MS, waits
